package runstate

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, "run-1")
	st := sampleState()
	n, err := s.Save(st)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("bytes written: %d", n)
	}
	if s.Saves() != 1 {
		t.Fatalf("saves: %d", s.Saves())
	}
	got, fellBack, err := s.Load()
	if err != nil || fellBack {
		t.Fatalf("load: %v fellBack=%v", err, fellBack)
	}
	if got.RunID != st.RunID || got.ClockSeconds != st.ClockSeconds {
		t.Errorf("loaded state differs: %+v", got)
	}
	// No temp file left behind.
	if _, err := os.Stat(s.Path() + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind after save")
	}
}

func TestStoreRotation(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, "run")
	st := sampleState()
	st.ClockSeconds = 1
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	st.ClockSeconds = 2
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	live, err := LoadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	prev, err := LoadFile(s.PrevPath())
	if err != nil {
		t.Fatal(err)
	}
	if live.ClockSeconds != 2 || prev.ClockSeconds != 1 {
		t.Errorf("rotation: live=%v prev=%v", live.ClockSeconds, prev.ClockSeconds)
	}
}

// TestStoreTornWriteFallback truncates the live checkpoint at every possible
// length and verifies Load either returns the live state (only at full
// length) or falls back to the previous generation — never garbage.
func TestStoreTornWriteFallback(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, "run")
	st := sampleState()
	st.ClockSeconds = 1
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	st.ClockSeconds = 2
	if _, err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Sample truncation points across the file (all of them at small sizes
	// would be slow for nothing — corruption detection is length+CRC based).
	for cut := 0; cut < len(full); cut += 37 {
		if err := os.WriteFile(s.Path(), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, fellBack, err := s.Load()
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !fellBack {
			t.Fatalf("cut=%d: expected fallback", cut)
		}
		if got.ClockSeconds != 1 {
			t.Fatalf("cut=%d: fallback returned clock %v", cut, got.ClockSeconds)
		}
	}
	// Full-length file loads without fallback.
	if err := os.WriteFile(s.Path(), full, 0o644); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err := s.Load()
	if err != nil || fellBack || got.ClockSeconds != 2 {
		t.Fatalf("restored full file: %v fellBack=%v clock=%v", err, fellBack, got.ClockSeconds)
	}
}

func TestStoreCorruptLiveNoPrev(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, "run")
	if _, err := s.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.Path())
	if err := os.WriteFile(s.Path(), data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("corrupt live, no prev: got %v, want ErrCheckpointCorrupt", err)
	}
}

// TestStoreVersionMismatchNoFallback: an unknown schema version on the live
// file means the directory is suspect — no silent fallback.
func TestStoreVersionMismatchNoFallback(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, "run")
	if _, err := s.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.Path())
	bumped := strings.Replace(string(data), " v2 ", " v9 ", 1)
	if err := os.WriteFile(s.Path(), []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("version mismatch: got %v, want ErrCheckpointVersion (no fallback)", err)
	}
}

func TestStoreAfterSaveError(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, "run")
	boom := errors.New("boom")
	s.AfterSave = func(*State) error { return boom }
	n, err := s.Save(sampleState())
	if !errors.Is(err, boom) {
		t.Fatalf("hook error not propagated: %v", err)
	}
	if n <= 0 {
		t.Error("bytes should be reported — the checkpoint is durable before the hook runs")
	}
	// The checkpoint itself must be on disk and loadable.
	if _, _, err := s.Load(); err != nil {
		t.Errorf("checkpoint not durable despite hook error: %v", err)
	}
}

func TestSanitizeRunID(t *testing.T) {
	cases := map[string]string{
		"":                "run",
		"tpch-1_seed1":    "tpch-1_seed1",
		"../../etc/pass":  "..-..-etc-pass",
		"a b\tc":          "a-b-c",
		"job:42/shard#1":  "job-42-shard-1",
		"UPPER.lower-123": "UPPER.lower-123",
	}
	for in, want := range cases {
		got := SanitizeRunID(in)
		if got != want {
			t.Errorf("SanitizeRunID(%q) = %q, want %q", in, got, want)
		}
		if again := SanitizeRunID(got); again != got {
			t.Errorf("SanitizeRunID not idempotent: %q -> %q", got, again)
		}
	}
	s := NewStore(t.TempDir(), "../../escape")
	if strings.Contains(filepath.Base(s.Path()), "/") || !strings.HasPrefix(s.Path(), s.Dir) {
		t.Errorf("store path escapes dir: %s", s.Path())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := WriteFileAtomic(path, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"a":2}` {
		t.Errorf("content: %s", data)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind")
	}
}
