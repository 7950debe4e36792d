package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"lambdatune/internal/runstate"
)

// journalName is the job-record journal's file name under Config.DataDir.
const journalName = "jobs.log"

// legacyRecordName is the per-job record older builds replaced on every
// transition, <DataDir>/<job-id>/job.json. It is read once, by the import in
// openJournal, and never written.
const legacyRecordName = "job.json"

// recordPrefix opens every journal line, followed by the CRC-32 (IEEE) of
// the line's JSON as 8 hex digits and one space.
const recordPrefix = "crc32="

// errJournalClosed reports a persist after a clean Drain closed the journal.
var errJournalClosed = errors.New("service: job journal closed")

// journal is the append-only log of job records, <DataDir>/jobs.log. Each
// record is one line, "crc32=<8 hex> <compact JSON of Job>\n". For each job
// ID the newest line that passes both the CRC and the JSON decode wins; any
// other line — a torn tail, a bit flip — is skipped without losing the lines
// after it. openJournal rewrites the file compacted, one record per job; from
// then on each job transition costs one write and one fsync to the open file.
type journal struct {
	path string

	mu sync.Mutex
	f  *os.File // nil once closed
	// size is the offset just past the last durable record; a failed append
	// truncates the file back to it. torn records that the truncation failed
	// too, so the file may end in a partial line the next append must end
	// first.
	size int64
	torn bool
}

// openJournal loads every job record persisted under dir: the journal's, then
// the legacy job.json of each job directory the journal does not know (the
// journal wins when both exist). It rewrites the journal compacted, which
// also drops a torn tail before anything is appended after it, and opens it
// for appends.
func openJournal(dir string, log *slog.Logger) (*journal, map[string]*Job, error) {
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	jobs, skipped := decodeJournal(data)
	if skipped > 0 {
		log.Warn("journal: skipped unreadable records", "path", path, "skipped", skipped)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || jobs[e.Name()] != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), legacyRecordName))
		if err != nil {
			continue // no legacy record here
		}
		var job Job
		if err := json.Unmarshal(data, &job); err != nil {
			log.Warn("readopt: skipping corrupt job record", "dir", e.Name(), "error", err)
			continue
		}
		if job.ID != "" && jobs[job.ID] == nil {
			jobs[job.ID] = &job
		}
	}

	ids := make([]string, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var compact []byte
	for _, id := range ids {
		rec, err := json.Marshal(jobs[id])
		if err != nil {
			return nil, nil, fmt.Errorf("service: compact journal: %w", err)
		}
		compact = appendRecord(compact, rec)
	}
	if err := runstate.WriteFileAtomic(path, compact); err != nil {
		return nil, nil, fmt.Errorf("service: compact journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	return &journal{path: path, f: f, size: int64(len(compact))}, jobs, nil
}

// appendRecord appends rec, one job's compact JSON, to dst as a journal line.
func appendRecord(dst, rec []byte) []byte {
	dst = fmt.Appendf(dst, "%s%08x ", recordPrefix, crc32.ChecksumIEEE(rec))
	dst = append(dst, rec...)
	return append(dst, '\n')
}

// decodeJournal returns each job's newest valid record in data and the count
// of lines it skipped. Only newline-terminated lines count: a final line
// without one is a torn append.
func decodeJournal(data []byte) (jobs map[string]*Job, skipped int) {
	jobs = map[string]*Job{}
	for len(data) > 0 {
		n := bytes.IndexByte(data, '\n')
		if n < 0 {
			return jobs, skipped + 1
		}
		line := data[:n]
		data = data[n+1:]
		if len(line) == 0 {
			continue // ends the partial line of an append that failed
		}
		if job := decodeRecord(line); job != nil {
			jobs[job.ID] = job
		} else {
			skipped++
		}
	}
	return jobs, skipped
}

// decodeRecord decodes one journal line (without its newline), or returns
// nil when the frame, the CRC or the JSON does not check out.
func decodeRecord(line []byte) *Job {
	const head = len(recordPrefix) + 9 // prefix, 8 hex digits, one space
	if len(line) <= head || string(line[:len(recordPrefix)]) != recordPrefix || line[head-1] != ' ' {
		return nil
	}
	sum, err := strconv.ParseUint(string(line[len(recordPrefix):head-1]), 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE(line[head:]) {
		return nil
	}
	var job Job
	if err := json.Unmarshal(line[head:], &job); err != nil || job.ID == "" {
		return nil
	}
	return &job
}

// persist appends rec, a snapshot of job numbered gen, unless a newer
// snapshot of the same job already reached the journal (see
// Manager.persistLocked), and fsyncs it.
func (j *journal) persist(job *Job, gen uint64, rec []byte) error {
	// The frame adds the prefix, 8 hex digits, a space and the newline.
	line := appendRecord(make([]byte, 0, len(recordPrefix)+len(rec)+10), rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	if gen <= job.persistWrote {
		return nil
	}
	job.persistWrote = gen
	if j.f == nil {
		return errJournalClosed
	}
	if j.torn {
		// End the partial line a failed append left behind, so this record
		// starts a line of its own.
		line = append([]byte{'\n'}, line...)
	}
	if _, err := j.f.Write(line); err != nil {
		j.rollback()
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.rollback()
		return fmt.Errorf("service: journal sync: %w", err)
	}
	if !j.torn {
		j.size += int64(len(line))
		return nil
	}
	// The garbage before this record is of unknown length; only the file
	// knows where the record ends.
	if fi, err := j.f.Stat(); err == nil {
		j.size, j.torn = fi.Size(), false
	}
	return nil
}

// rollback truncates the journal back to its last durable record, so a
// failed append's partial line cannot swallow the next record. Callers hold
// j.mu.
func (j *journal) rollback() {
	j.torn = os.Truncate(j.path, j.size) != nil
}

// close closes the journal; every persist after it fails with
// errJournalClosed.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
