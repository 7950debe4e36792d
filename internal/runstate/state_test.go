package runstate

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/race"
	"lambdatune/internal/core/selector"
	"lambdatune/internal/engine"
)

// sampleState builds a representative checkpoint state with every field
// populated, used by the round-trip and golden tests.
func sampleState() *State {
	rs := &selector.RoundState{
		Round: 2, Timeout: 100, BestID: "llm-1", BestTime: 10.136116263704787,
		Metas: map[string]*evaluator.ConfigMeta{},
	}
	m := evaluator.NewConfigMeta()
	m.Time = 42.5
	m.IsComplete = true
	m.IndexTime = 3.25
	m.Aborts = 1
	m.IndexFailures = 2
	m.Completed["q1"] = true
	m.Completed["q9"] = true
	m.Completed["q3"] = false // not completed: must not serialize
	m.QueryTimes = map[string]float64{"q1": 1.5, "q9": 41.0}
	rs.Metas["llm-1"] = m
	rs.Metas["default"] = evaluator.NewConfigMeta()
	rs.Race = &race.State{Rung: 1, Survivors: []string{"llm-1", "default"}}

	return &State{
		RunID:             "golden-run",
		WorkloadDigest:    "wd-1234",
		OptionsDigest:     "od-5678",
		StartClockSeconds: 0,
		ClockSeconds:      123.45678901234567,
		PromptTokens:      2048,
		SeedDefault:       true,
		Candidates: CaptureConfigs([]*engine.Config{
			{ID: "llm-1", Params: map[string]string{"work_mem": "512MB", "shared_buffers": "4GB"},
				Indexes: []engine.IndexDef{{Table: "lineitem", Columns: "l_orderkey"}}},
			{ID: "llm-2", Params: map[string]string{"work_mem": "1GB"}},
		}),
		Warnings:       []string{"sample 3 dropped: unparseable response"},
		DroppedSamples: 1,
		LLM: &LLMState{Calls: 9, Failures: 4, Retries: 3, BreakerTrips: 1, FallbackCalls: 1,
			BackoffSeconds: 3.5, BreakerWaitSeconds: 120, FailedCallSeconds: 8},
		Round: CaptureRound(rs),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sampleState()
	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != st.RunID || got.ClockSeconds != st.ClockSeconds ||
		got.PromptTokens != st.PromptTokens || got.DroppedSamples != st.DroppedSamples {
		t.Errorf("scalar fields did not round-trip: %+v", got)
	}
	if got.Round == nil || got.Round.BestID != "llm-1" || got.Round.BestTime != st.Round.BestTime {
		t.Errorf("round best did not round-trip: %+v", got.Round)
	}
	if got.LLM == nil || *got.LLM != *st.LLM {
		t.Errorf("LLM telemetry did not round-trip: %+v", got.LLM)
	}

	// Encoding is deterministic: same state, same bytes.
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("re-encoding a decoded state produced different bytes")
	}
}

func TestRoundStateRoundTrip(t *testing.T) {
	st := sampleState()
	rs := st.Round.Restore()
	if rs.Round != 2 || rs.Timeout != 100 || rs.BestID != "llm-1" {
		t.Fatalf("restored round: %+v", rs)
	}
	m := rs.Metas["llm-1"]
	if m == nil || m.Time != 42.5 || !m.IsComplete || m.IndexTime != 3.25 || m.Aborts != 1 || m.IndexFailures != 2 {
		t.Fatalf("restored meta: %+v", m)
	}
	if !m.Completed["q1"] || !m.Completed["q9"] {
		t.Errorf("completed set lost: %v", m.Completed)
	}
	if m.Completed["q3"] {
		t.Error("not-completed query serialized as completed")
	}
	if m.QueryTimes["q1"] != 1.5 || m.QueryTimes["q9"] != 41.0 {
		t.Errorf("query times lost: %v", m.QueryTimes)
	}
	if rs.Race == nil || rs.Race.Rung != 1 || len(rs.Race.Survivors) != 2 {
		t.Errorf("race state lost: %+v", rs.Race)
	}
	// Capture(Restore(x)) is a fixed point.
	got := CaptureRound(rs)
	if got.Metas["llm-1"].Completed[0] != "q1" ||
		got.Metas["llm-1"].Completed[1] != "q9" {
		t.Errorf("re-captured completed list: %v", got.Metas["llm-1"].Completed)
	}
	if got.Race == nil || got.Race.Survivors[0] != "llm-1" {
		t.Errorf("re-captured race state: %+v", got.Race)
	}
	// The capture deep-copies the race state — mutating the live selector
	// state must not reach into an already-saved checkpoint.
	rs.Race.Survivors[0] = "mutated"
	if got.Race.Survivors[0] != "llm-1" {
		t.Error("captured race state aliases the live one")
	}
}

// TestGoldenCheckpoint pins the on-disk format: a schema change that alters
// the encoding of an existing state must bump Version and regenerate this
// fixture (set UPDATE_GOLDEN=1).
func TestGoldenCheckpoint(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "checkpoint_v3.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if string(data) != string(want) {
		t.Error("checkpoint encoding changed without a Version bump; " +
			"if intentional, bump Version and regenerate with UPDATE_GOLDEN=1")
	}
	if _, err := Decode(want); err != nil {
		t.Errorf("golden fixture does not decode: %v", err)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	data, _ := Encode(sampleState())
	bumped := strings.Replace(string(data), "lambdatune-checkpoint v3 ", "lambdatune-checkpoint v9 ", 1)
	if _, err := Decode([]byte(bumped)); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("header version bump: got %v, want ErrCheckpointVersion", err)
	}
	// A payload whose version is unknown is also rejected (the header CRC
	// covers the payload, so this requires reframing).
	st := sampleState()
	raw, _ := Encode(st)
	tampered := strings.Replace(string(raw), `"version": 3`, `"version": 4`, 1)
	if _, err := Decode(reframe(t, tampered)); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("payload version mismatch: got %v, want ErrCheckpointVersion", err)
	}
	// A supported payload version that disagrees with the header is corruption,
	// not a version skew.
	disagree := strings.Replace(string(raw), `"version": 3`, `"version": 2`, 1)
	if _, err := Decode(reframe(t, disagree)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("header/payload disagreement: got %v, want ErrCheckpointCorrupt", err)
	}
}

// TestDecodeV1Checkpoint: checkpoints written by v1 builds (pre-racing) must
// keep decoding — the v1 fixture is frozen for exactly this test.
func TestDecodeV1Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Decode(data)
	if err != nil {
		t.Fatalf("v1 checkpoint no longer decodes: %v", err)
	}
	if st.Version != 1 || st.RunID != "golden-run" {
		t.Fatalf("v1 decode lost fields: version=%d run=%s", st.Version, st.RunID)
	}
	if st.Round == nil || st.Round.Race != nil {
		t.Fatalf("v1 round state should restore with no racing bookkeeping: %+v", st.Round)
	}
	if rs := st.Round.Restore(); rs.Race != nil || rs.Metas["llm-1"].QueryTimes != nil {
		t.Fatal("v1 restore invented v2 fields")
	}
}

// TestDecodeV2Checkpoint: checkpoints written by v2 builds must keep
// decoding — the v2 fixture is frozen for exactly this test. Its injector
// block (the retired engine fault stream's position) is ignored.
func TestDecodeV2Checkpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"injector"`) {
		t.Fatal("v2 fixture lost its injector block")
	}
	st, err := Decode(data)
	if err != nil {
		t.Fatalf("v2 checkpoint no longer decodes: %v", err)
	}
	if st.Version != 2 || st.RunID != "golden-run" || st.LLM != nil {
		t.Fatalf("v2 decode: version=%d run=%s llm=%+v", st.Version, st.RunID, st.LLM)
	}
	rs := st.Round.Restore()
	if m := rs.Metas["llm-1"]; m.Aborts != 1 || m.IndexFailures != 0 || rs.Race == nil {
		t.Fatalf("v2 restore: meta %+v race %+v", m, rs.Race)
	}
}

// reframe recomputes the header for a tampered payload so only the payload
// check under test fires, not the CRC.
func reframe(t *testing.T, data string) []byte {
	t.Helper()
	nl := strings.IndexByte(data, '\n')
	payload := []byte(data[nl+1:])
	header := fmt.Sprintf("%s v%d crc32=%08x bytes=%d\n",
		magic, Version, crc32.ChecksumIEEE(payload), len(payload))
	return append([]byte(header), payload...)
}

func TestDecodeCorruption(t *testing.T) {
	data, _ := Encode(sampleState())
	cases := map[string][]byte{
		"empty":            {},
		"no header":        []byte("junk"),
		"truncated":        data[:len(data)/2],
		"extra bytes":      append(append([]byte{}, data...), "tail"...),
		"flipped bit":      flip(data, len(data)-10),
		"garbage header":   []byte("lambdatune-checkpoint v1 zzz\n{}"),
		"not a checkpoint": []byte("PNG\x0d\x0a\x1a\x0a....."),
	}
	for name, c := range cases {
		if _, err := Decode(c); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: got %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}

func flip(data []byte, i int) []byte {
	cp := append([]byte{}, data...)
	cp[i] ^= 0x40
	return cp
}

func TestValidate(t *testing.T) {
	st := sampleState()
	if err := st.Validate("wd-1234", "od-5678"); err != nil {
		t.Errorf("matching digests: %v", err)
	}
	if err := st.Validate("other", "od-5678"); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("workload mismatch: %v", err)
	}
	if err := st.Validate("wd-1234", "other"); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("options mismatch: %v", err)
	}
}

func TestWorkloadDigest(t *testing.T) {
	qs := []*engine.Query{{Name: "q1", SQL: "SELECT 1"}, {Name: "q2", SQL: "SELECT 2"}}
	d1 := WorkloadDigest("", qs)
	if d1 != WorkloadDigest("", qs) {
		t.Error("digest not deterministic")
	}
	if d1 == WorkloadDigest("", qs[:1]) {
		t.Error("digest ignores query count")
	}
	if d1 == WorkloadDigest("", []*engine.Query{{Name: "q1", SQL: "SELECT 1"}, {Name: "q2", SQL: "SELECT 3"}}) {
		t.Error("digest ignores SQL text")
	}
	if d1 == WorkloadDigest("named", qs) {
		t.Error("digest ignores workload name")
	}
}

func TestFingerprintDigest(t *testing.T) {
	base := Fingerprint{Flavor: "postgres", Seed: 1, Samples: 5, Temperature: 0.7,
		InitialTimeout: 10, Alpha: 10, Adaptive: true, UseScheduler: true, LazyIndexes: true, SeedDefault: true}
	if base.Digest() != base.Digest() {
		t.Error("fingerprint not deterministic")
	}
	variants := []Fingerprint{base, base, base, base, base}
	variants[1].Seed = 2
	variants[2].Alpha = 5
	variants[3].Flavor = "mysql"
	variants[4].Racing = true
	variants[4].RaceStart = 0.25
	variants[4].RaceGrowth = 2
	variants[4].RaceFinal = 2
	seen := map[string]bool{}
	for _, v := range variants[1:] {
		d := v.Digest()
		if d == base.Digest() || seen[d] {
			t.Errorf("fingerprint collision for %+v", v)
		}
		seen[d] = true
	}
	// Racing knobs must not perturb non-racing digests: a pre-racing build's
	// checkpoints keep validating under this build.
	withKnobs := base
	withKnobs.RaceStart = 0.5
	withKnobs.RaceFinal = 3
	if withKnobs.Digest() != base.Digest() {
		t.Error("racing knobs changed a non-racing digest")
	}
	// Likewise a fault seed without engine fault rates: every fault-free
	// digest is unchanged.
	seedOnly := base
	seedOnly.FaultSeed = 9
	if seedOnly.Digest() != base.Digest() {
		t.Error("a fault seed without rates changed the digest")
	}
	// Each part of an engine fault plan changes the digest.
	faulty := base
	faulty.FaultSeed, faulty.QueryAbortRate, faulty.IndexFailRate = 1, 0.05, 0.05
	plans := []Fingerprint{faulty, faulty, faulty, faulty}
	plans[1].FaultSeed = 2
	plans[2].QueryAbortRate = 0.1
	plans[3].IndexFailRate = 0
	seen = map[string]bool{base.Digest(): true}
	for _, p := range plans {
		if d := p.Digest(); seen[d] {
			t.Errorf("fault plan %+v collides", p)
		} else {
			seen[d] = true
		}
	}
}

func FuzzDecode(f *testing.F) {
	data, _ := Encode(sampleState())
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte("lambdatune-checkpoint v1 crc32=00000000 bytes=2\n{}"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Decode must never panic and must only return nil errors for frames
		// that verify end to end.
		st, err := Decode(b)
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
		if err == nil {
			// Anything that decodes must re-encode.
			if _, err := Encode(st); err != nil {
				t.Fatalf("decoded state does not re-encode: %v", err)
			}
		}
	})
}
