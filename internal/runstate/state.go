// Package runstate serializes the full resumable state of a tuning run —
// the parsed candidate pool, the selector's round bookkeeping, the virtual
// clock position, and the sampling phase's LLM telemetry — into a
// versioned, checksum-framed checkpoint. The tuner writes one checkpoint
// after LLM sampling completes and one after every selector round; feeding
// the latest checkpoint back through the resume path reproduces the
// uninterrupted run's selection byte-for-byte (pinned by the golden-E1 chaos
// tests in internal/bench).
//
// Durability model: checkpoints are written by Store with an atomic rename
// after an fsync, and the previous generation is kept as a fallback. A torn
// or corrupted file (truncation, bit flips) is detected by the length+CRC
// frame and Decode returns ErrCheckpointCorrupt; Store.Load then falls back
// to the previous generation, which re-runs at most one selector round.
package runstate

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/race"
	"lambdatune/internal/core/selector"
	"lambdatune/internal/engine"
)

// Version is the current checkpoint schema version. Decode rejects any
// version newer than it with ErrCheckpointVersion — a checkpoint written by
// a newer build must not be half-understood by an older one — while still
// reading every older supported version (v2 added the racing rung state and
// per-query times, v3 index failures and LLM telemetry in place of the
// retired fault-stream position; older files decode with the newer fields
// absent, and a v2 injector block is ignored).
const Version = 3

// minVersion is the oldest checkpoint schema this build still reads.
const minVersion = 1

// magic is the first token of every checkpoint file.
const magic = "lambdatune-checkpoint"

// Typed checkpoint errors, matchable with errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint that failed the length or
	// CRC-32 check, or whose payload is not valid checkpoint JSON — a torn
	// write, truncation, or external damage.
	ErrCheckpointCorrupt = errors.New("runstate: checkpoint corrupt")
	// ErrCheckpointVersion reports a checkpoint with an unknown schema
	// version.
	ErrCheckpointVersion = errors.New("runstate: unsupported checkpoint version")
	// ErrCheckpointMismatch reports a checkpoint that belongs to a different
	// run: the workload or the selection-relevant options differ.
	ErrCheckpointMismatch = errors.New("runstate: checkpoint belongs to a different run")
)

// IndexState is one serialized index recommendation.
type IndexState struct {
	Table   string `json:"table"`
	Columns string `json:"columns"`
	Name    string `json:"name,omitempty"`
}

// ConfigState is one serialized candidate configuration. Params marshal with
// sorted keys (encoding/json map ordering), so encoding is byte-stable.
type ConfigState struct {
	ID      string            `json:"id"`
	Params  map[string]string `json:"params"`
	Indexes []IndexState      `json:"indexes,omitempty"`
}

// MetaState is one configuration's serialized evaluation bookkeeping
// (evaluator.ConfigMeta, with the Completed set flattened to a sorted list).
type MetaState struct {
	Time       float64  `json:"time"`
	IsComplete bool     `json:"is_complete"`
	IndexTime  float64  `json:"index_time"`
	Completed  []string `json:"completed,omitempty"`
	Aborts     int      `json:"aborts,omitempty"`
	// IndexFailures counts the index builds injected faults failed (v3).
	IndexFailures int `json:"index_failures,omitempty"`
	// QueryTimes carries the per-query observed seconds racing's surrogate
	// fits from (v2; absent outside racing runs, so non-racing encodings are
	// unchanged from v1 apart from the header version).
	QueryTimes map[string]float64 `json:"query_times,omitempty"`
}

// RoundCheckpoint is the serialized form of selector.RoundState.
type RoundCheckpoint struct {
	Round   int     `json:"round"`
	Timeout float64 `json:"timeout"`
	// BestID/BestTime carry the best fully evaluated configuration at save
	// time ("" = none yet): a resumed run restores the best directly instead
	// of re-deriving it, which keeps post-completion checkpoints resumable
	// without re-evaluating candidates the uninterrupted run never touched
	// again.
	BestID   string               `json:"best_id,omitempty"`
	BestTime float64              `json:"best_time,omitempty"`
	Metas    map[string]MetaState `json:"metas"`
	// Race is the racing strategy's rung bookkeeping (v2; nil under full
	// evaluation).
	Race *race.State `json:"race,omitempty"`
}

// LLMState is the sampling phase's LLM telemetry, the LLM counters of the
// tuner's fault report: a resumed run skips sampling and reports these.
type LLMState struct {
	Calls              int     `json:"calls"`
	Failures           int     `json:"failures,omitempty"`
	Retries            int     `json:"retries,omitempty"`
	BreakerTrips       int     `json:"breaker_trips,omitempty"`
	FallbackCalls      int     `json:"fallback_calls,omitempty"`
	BackoffSeconds     float64 `json:"backoff_seconds,omitempty"`
	BreakerWaitSeconds float64 `json:"breaker_wait_seconds,omitempty"`
	FailedCallSeconds  float64 `json:"failed_call_seconds,omitempty"`
}

// State is the full resumable state of a tuning run at a checkpoint.
type State struct {
	// Version is the schema version (always the package Version on encode).
	Version int `json:"version"`
	// RunID names the run; Store derives the checkpoint filename from it.
	RunID string `json:"run_id"`
	// WorkloadDigest / OptionsDigest fingerprint what the checkpoint was
	// taken against; Validate refuses to resume onto a different workload or
	// differently configured run.
	WorkloadDigest string `json:"workload_digest"`
	OptionsDigest  string `json:"options_digest"`
	// StartClockSeconds / ClockSeconds are the virtual clock at run start and
	// at the checkpoint. Resume advances a fresh backend's clock to
	// ClockSeconds and accounts TuningSeconds from StartClockSeconds, so a
	// resumed run reports the same totals as the uninterrupted one.
	StartClockSeconds float64 `json:"start_clock_seconds"`
	ClockSeconds      float64 `json:"clock_seconds"`
	// PromptTokens preserves the prompt accounting of the original run (the
	// prompt itself is not re-generated on resume).
	PromptTokens int `json:"prompt_tokens"`
	// SeedDefault records whether the candidate pool was seeded with the
	// default configuration.
	SeedDefault bool `json:"seed_default"`
	// Candidates is the parsed candidate pool in sampling order — the paid-for
	// LLM samples, never re-requested on resume.
	Candidates []ConfigState `json:"candidates"`
	// Warnings / DroppedSamples carry the sampling phase's non-fatal issues,
	// LLM its resilience telemetry (v3; nil when it is all zero).
	Warnings       []string  `json:"warnings,omitempty"`
	DroppedSamples int       `json:"dropped_samples,omitempty"`
	LLM            *LLMState `json:"llm,omitempty"`
	// Round is the selector's last saved round state; nil when only sampling
	// has finished (selection restarts from round 1 with the restored pool).
	Round *RoundCheckpoint `json:"round,omitempty"`
}

// Validate checks the checkpoint against the run about to resume. A nil
// error means the checkpoint was taken by an equivalent run.
func (st *State) Validate(workloadDigest, optionsDigest string) error {
	if st.WorkloadDigest != workloadDigest {
		return fmt.Errorf("%w: workload digest %s != %s",
			ErrCheckpointMismatch, st.WorkloadDigest, workloadDigest)
	}
	if st.OptionsDigest != optionsDigest {
		return fmt.Errorf("%w: options digest %s != %s",
			ErrCheckpointMismatch, st.OptionsDigest, optionsDigest)
	}
	return nil
}

// Encode frames the state as a checkpoint file: a header line carrying the
// schema version, payload length, and CRC-32, followed by the JSON payload.
// Encoding is deterministic for a given state (JSON maps marshal with sorted
// keys, floats round-trip exactly).
func Encode(st *State) ([]byte, error) {
	cp := *st
	cp.Version = Version
	payload, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	payload = append(payload, '\n')
	header := fmt.Sprintf("%s v%d crc32=%08x bytes=%d\n",
		magic, Version, crc32.ChecksumIEEE(payload), len(payload))
	return append([]byte(header), payload...), nil
}

// Decode parses and verifies a checkpoint file. Torn writes and corruption
// return ErrCheckpointCorrupt; unknown schema versions return
// ErrCheckpointVersion. Both are wrapped, so errors.Is matches.
func Decode(data []byte) (*State, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header", ErrCheckpointCorrupt)
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 4 || fields[0] != magic {
		return nil, fmt.Errorf("%w: bad header %q", ErrCheckpointCorrupt, string(data[:nl]))
	}
	version, err := strconv.Atoi(strings.TrimPrefix(fields[1], "v"))
	if err != nil || !strings.HasPrefix(fields[1], "v") {
		return nil, fmt.Errorf("%w: bad version field %q", ErrCheckpointCorrupt, fields[1])
	}
	if version < minVersion || version > Version {
		return nil, fmt.Errorf("%w: v%d (this build reads v%d-v%d)", ErrCheckpointVersion, version, minVersion, Version)
	}
	wantCRC, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "crc32="), 16, 32)
	if err != nil || !strings.HasPrefix(fields[2], "crc32=") {
		return nil, fmt.Errorf("%w: bad crc field %q", ErrCheckpointCorrupt, fields[2])
	}
	wantLen, err := strconv.Atoi(strings.TrimPrefix(fields[3], "bytes="))
	if err != nil || !strings.HasPrefix(fields[3], "bytes=") {
		return nil, fmt.Errorf("%w: bad length field %q", ErrCheckpointCorrupt, fields[3])
	}
	payload := data[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d (torn write?)",
			ErrCheckpointCorrupt, len(payload), wantLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != uint32(wantCRC) {
		return nil, fmt.Errorf("%w: crc32 %08x != %08x", ErrCheckpointCorrupt, got, uint32(wantCRC))
	}
	var st State
	dec := json.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if st.Version < minVersion || st.Version > Version {
		return nil, fmt.Errorf("%w: payload v%d (this build reads v%d-v%d)", ErrCheckpointVersion, st.Version, minVersion, Version)
	}
	if st.Version != version {
		return nil, fmt.Errorf("%w: header says v%d, payload says v%d", ErrCheckpointCorrupt, version, st.Version)
	}
	return &st, nil
}

// CaptureConfigs serializes a candidate pool.
func CaptureConfigs(cs []*engine.Config) []ConfigState {
	out := make([]ConfigState, len(cs))
	for i, c := range cs {
		cc := ConfigState{ID: c.ID, Params: map[string]string{}}
		for k, v := range c.Params {
			cc.Params[k] = v
		}
		for _, ix := range c.Indexes {
			cc.Indexes = append(cc.Indexes, IndexState{Table: ix.Table, Columns: ix.Columns, Name: ix.Name})
		}
		out[i] = cc
	}
	return out
}

// RestoreConfigs rebuilds the candidate pool from its serialized form.
func RestoreConfigs(cs []ConfigState) []*engine.Config {
	out := make([]*engine.Config, len(cs))
	for i, c := range cs {
		cfg := &engine.Config{ID: c.ID, Params: map[string]string{}}
		for k, v := range c.Params {
			cfg.Params[k] = v
		}
		for _, ix := range c.Indexes {
			cfg.Indexes = append(cfg.Indexes, engine.IndexDef{Table: ix.Table, Columns: ix.Columns, Name: ix.Name})
		}
		out[i] = cfg
	}
	return out
}

// CaptureRound serializes the selector's round state (nil in, nil out).
func CaptureRound(rs *selector.RoundState) *RoundCheckpoint {
	if rs == nil {
		return nil
	}
	rc := &RoundCheckpoint{
		Round: rs.Round, Timeout: rs.Timeout,
		BestID: rs.BestID, BestTime: rs.BestTime,
		Metas: map[string]MetaState{},
		Race:  rs.Race.Clone(),
	}
	for id, m := range rs.Metas {
		if m == nil {
			continue
		}
		ms := MetaState{Time: m.Time, IsComplete: m.IsComplete, IndexTime: m.IndexTime,
			Aborts: m.Aborts, IndexFailures: m.IndexFailures}
		for q, done := range m.Completed {
			if done {
				ms.Completed = append(ms.Completed, q)
			}
		}
		sort.Strings(ms.Completed)
		if len(m.QueryTimes) > 0 {
			ms.QueryTimes = make(map[string]float64, len(m.QueryTimes))
			for q, secs := range m.QueryTimes {
				ms.QueryTimes[q] = secs
			}
		}
		rc.Metas[id] = ms
	}
	return rc
}

// Restore rebuilds the selector round state from its serialized form.
func (rc *RoundCheckpoint) Restore() *selector.RoundState {
	if rc == nil {
		return nil
	}
	rs := &selector.RoundState{
		Round: rc.Round, Timeout: rc.Timeout,
		BestID: rc.BestID, BestTime: rc.BestTime,
		Metas: map[string]*evaluator.ConfigMeta{},
		Race:  rc.Race.Clone(),
	}
	for id, ms := range rc.Metas {
		m := evaluator.NewConfigMeta()
		m.Time = ms.Time
		m.IsComplete = ms.IsComplete
		m.IndexTime = ms.IndexTime
		m.Aborts = ms.Aborts
		m.IndexFailures = ms.IndexFailures
		for _, q := range ms.Completed {
			m.Completed[q] = true
		}
		if len(ms.QueryTimes) > 0 {
			m.QueryTimes = make(map[string]float64, len(ms.QueryTimes))
			for q, secs := range ms.QueryTimes {
				m.QueryTimes[q] = secs
			}
		}
		rs.Metas[id] = m
	}
	return rs
}

// WorkloadDigest fingerprints a workload: its name plus every query's name
// and SQL text, in order.
func WorkloadDigest(name string, qs []*engine.Query) string {
	h := sha256.New()
	fmt.Fprintf(h, "workload %s\n", name)
	for _, q := range qs {
		fmt.Fprintf(h, "query %s\n%s\n", q.Name, q.SQL)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// Fingerprint is the set of option fields that determine a run's selection
// behavior. Two runs with equal fingerprints (and equal workload digests)
// make byte-identical selection decisions, so a checkpoint from one may
// resume in the other. Parallelism is deliberately absent: selection is
// parallelism-invariant, so a run checkpointed at Parallelism 1 may resume
// at 4 and vice versa. So are LLM fault rates: a resumed run skips sampling.
type Fingerprint struct {
	Flavor         string
	Seed           int64
	Samples        int
	Temperature    float64
	TokenBudget    int
	InitialTimeout float64
	Alpha          float64
	Adaptive       bool
	UseScheduler   bool
	LazyIndexes    bool
	SeedDefault    bool
	// Racing and its tuning knobs join the digest only when racing is on, so
	// every pre-racing (and non-racing) digest is unchanged: old checkpoints
	// keep resuming under new builds.
	Racing     bool
	RaceStart  float64
	RaceGrowth float64
	RaceFinal  int
	RaceNoElim bool
	// The engine fault plan joins the digest only when a rate is nonzero.
	FaultSeed      int64
	QueryAbortRate float64
	IndexFailRate  float64
}

// Digest condenses the fingerprint.
func (f Fingerprint) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s seed=%d k=%d temp=%g budget=%d t0=%g alpha=%g adapt=%t sched=%t lazy=%t seeddef=%t",
		f.Flavor, f.Seed, f.Samples, f.Temperature, f.TokenBudget,
		f.InitialTimeout, f.Alpha, f.Adaptive, f.UseScheduler, f.LazyIndexes, f.SeedDefault)
	if f.Racing {
		fmt.Fprintf(h, " racing start=%g growth=%g final=%d noelim=%t",
			f.RaceStart, f.RaceGrowth, f.RaceFinal, f.RaceNoElim)
	}
	if f.QueryAbortRate > 0 || f.IndexFailRate > 0 {
		fmt.Fprintf(h, " faults seed=%d abort=%g ixfail=%g", f.FaultSeed, f.QueryAbortRate, f.IndexFailRate)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
