package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// record frames one job record as a journal line.
func record(t *testing.T, job *Job) []byte {
	t.Helper()
	rec, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	return appendRecord(nil, rec)
}

// canceled is a terminal record, so reopening a manager on it runs nothing;
// note tells one snapshot of a job from another.
func canceled(id, note string) *Job {
	return &Job{ID: id, Spec: JobSpec{Benchmark: "tpch-1"}, Status: StatusCanceled, Error: note}
}

// writeJournal replaces the journal under dir with the given lines.
func writeJournal(t *testing.T, dir string, lines ...[]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, journalName), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reopen opens a manager on cfg, returns every job it loaded, and closes it.
func reopen(t *testing.T, cfg Config) map[string]*Job {
	t.Helper()
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	jobs := map[string]*Job{}
	for _, job := range m.List() {
		jobs[job.ID] = job
	}
	return jobs
}

func wantNote(t *testing.T, jobs map[string]*Job, id, note string) {
	t.Helper()
	job, ok := jobs[id]
	switch {
	case !ok:
		t.Errorf("%s: not loaded", id)
	case job.Error != note:
		t.Errorf("%s: loaded snapshot %q, want %q", id, job.Error, note)
	}
}

// TestJournalTornTail cuts the journal at every byte offset inside its last
// record: Open succeeds, the earlier records are intact, and the torn
// record's job reverts to its previous snapshot.
func TestJournalTornTail(t *testing.T) {
	cfg := testConfig(t)
	head := append(record(t, canceled("job-000001", "a1")), record(t, canceled("job-000002", "b1"))...)
	last := record(t, canceled("job-000001", "a2"))
	full := append(append([]byte(nil), head...), last...)
	for cut := len(head); cut < len(full); cut++ {
		writeJournal(t, cfg.DataDir, full[:cut])
		jobs := reopen(t, cfg)
		wantNote(t, jobs, "job-000001", "a1")
		wantNote(t, jobs, "job-000002", "b1")
		if t.Failed() {
			t.Fatalf("cut at byte %d of %d", cut, len(full))
		}
		// Open compacted the torn tail away.
		data, err := os.ReadFile(filepath.Join(cfg.DataDir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		if _, skipped := decodeJournal(data); skipped != 0 {
			t.Fatalf("cut at byte %d: compacted journal still has %d unreadable lines", cut, skipped)
		}
	}
	writeJournal(t, cfg.DataDir, full)
	wantNote(t, reopen(t, cfg), "job-000001", "a2")
}

// TestJournalCorruptLine damages lines in the middle of the journal: each is
// skipped, and the records after it, including later records of the same
// job, still apply.
func TestJournalCorruptLine(t *testing.T) {
	cfg := testConfig(t)
	flipBody := record(t, canceled("job-000001", "a2"))
	flipBody[len(flipBody)-5] ^= 0x01
	badCRC := record(t, canceled("job-000002", "b2"))
	copy(badCRC[len(recordPrefix):], "00000000")
	writeJournal(t, cfg.DataDir,
		record(t, canceled("job-000001", "a1")),
		record(t, canceled("job-000002", "b1")),
		flipBody,
		badCRC,
		[]byte("not a record\n"),
		record(t, canceled("job-000001", "a3")),
		record(t, canceled("job-000003", "c1")),
	)
	jobs := reopen(t, cfg)
	wantNote(t, jobs, "job-000001", "a3")
	wantNote(t, jobs, "job-000002", "b1")
	wantNote(t, jobs, "job-000003", "c1")
	if len(jobs) != 3 {
		t.Errorf("loaded %d jobs, want 3", len(jobs))
	}
}

// TestJournalFailedAppend fails one append — the journal's file swapped for
// a read-only one, after a partial record reached the file — and checks
// that the next append is still readable. Without the truncation back to
// the last good record, the partial line would swallow the next record;
// when the truncation fails too, the next append must end that line first.
func TestJournalFailedAppend(t *testing.T) {
	for _, truncateFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("truncateFails=%v", truncateFails), func(t *testing.T) {
			cfg := testConfig(t)
			m := openManager(t, cfg)
			jl := m.journal
			persist := func(job *Job, note string) {
				m.mu.Lock()
				job.Error = note
				flush := m.persistLocked(job)
				m.mu.Unlock()
				flush()
			}
			a, b := canceled("job-000001", ""), canceled("job-000002", "")
			persist(a, "a1")
			persist(b, "b1")

			path := filepath.Join(cfg.DataDir, journalName)
			readOnly, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer readOnly.Close()
			partial := record(t, canceled("job-000002", "torn"))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(partial[:len(partial)/2]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			jl.mu.Lock()
			writable := jl.f
			jl.f = readOnly
			if truncateFails {
				jl.path = filepath.Join(cfg.DataDir, "missing", journalName)
			}
			jl.mu.Unlock()
			persist(a, "a2") // fails, logged

			jl.mu.Lock()
			jl.f, jl.path = writable, path
			torn := jl.torn
			jl.mu.Unlock()
			if torn != truncateFails {
				t.Fatalf("torn = %v after the failed append, want %v", torn, truncateFails)
			}
			persist(a, "a3")
			persist(b, "b2")

			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			jobs := reopen(t, cfg)
			wantNote(t, jobs, "job-000001", "a3")
			wantNote(t, jobs, "job-000002", "b2")
		})
	}
}

// TestJournalLegacyImport: a job directory holding only the job.json an
// older build wrote is adopted into the journal, the journal wins when both
// hold a record of a job, and the legacy files are never written.
func TestJournalLegacyImport(t *testing.T) {
	cfg := testConfig(t)
	legacy := func(job *Job) string {
		dir := filepath.Join(cfg.DataDir, job.ID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(job, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, legacyRecordName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	onlyLegacy := legacy(canceled("job-000001", "legacy"))
	legacy(canceled("job-000002", "legacy"))
	writeJournal(t, cfg.DataDir, record(t, canceled("job-000002", "journal")))
	before, err := os.ReadFile(onlyLegacy)
	if err != nil {
		t.Fatal(err)
	}

	jobs := reopen(t, cfg)
	wantNote(t, jobs, "job-000001", "legacy")
	wantNote(t, jobs, "job-000002", "journal")
	if after, err := os.ReadFile(onlyLegacy); err != nil || !bytes.Equal(after, before) {
		t.Errorf("legacy record changed by Open: %v", err)
	}

	// The import reached the journal: the job survives its legacy file.
	if err := os.Remove(onlyLegacy); err != nil {
		t.Fatal(err)
	}
	wantNote(t, reopen(t, cfg), "job-000001", "legacy")
}

// TestJournalConcurrentTransitions persists snapshots of many jobs from many
// goroutines at once; reopening must find each job's last snapshot.
func TestJournalConcurrentTransitions(t *testing.T) {
	const nJobs, writers, steps = 16, 4, 8
	cfg := testConfig(t)
	m := openManager(t, cfg)
	var ids []string
	m.mu.Lock()
	for i := 1; i <= nJobs; i++ {
		job := canceled(fmt.Sprintf("job-%06d", i), "")
		job.done = make(chan struct{})
		close(job.done)
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		ids = append(ids, job.ID)
	}
	m.mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				for _, id := range ids {
					m.mu.Lock()
					job := m.jobs[id]
					job.Resumes++
					flush := m.persistLocked(job)
					m.mu.Unlock()
					flush()
				}
			}
		}()
	}
	wg.Wait()
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobs := reopen(t, cfg)
	if len(jobs) != nJobs {
		t.Fatalf("reopened %d jobs, want %d", len(jobs), nJobs)
	}
	for id, job := range jobs {
		if job.Resumes != writers*steps {
			t.Errorf("%s: reopened at snapshot %d, want the last, %d", id, job.Resumes, writers*steps)
		}
	}
}

// BenchmarkJobRecordPersist measures one job transition's durable write:
// marshal a finished JOB job's record, append it to the journal and fsync.
func BenchmarkJobRecordPersist(b *testing.B) {
	m := jsonLogManager(b)
	job, err := m.Enqueue(JobSpec{Benchmark: "job", Tenant: "acme", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if job, err = m.Wait(context.Background(), job.ID); err != nil {
		b.Fatal(err)
	}
	if job.Status != StatusSucceeded {
		b.Fatalf("JOB job ended %s (error %q)", job.Status, job.Error)
	}
	m.mu.Lock()
	job = m.jobs[job.ID]
	m.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.mu.Lock()
		flush := m.persistLocked(job)
		m.mu.Unlock()
		flush()
	}
}
