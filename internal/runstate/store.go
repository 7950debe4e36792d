package runstate

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// CheckpointExt is the checkpoint filename extension; the previous
// generation keeps PrevExt appended.
const (
	CheckpointExt = ".ckpt"
	PrevExt       = ".prev"
)

// Store persists a run's checkpoints durably. Save is crash-safe: the new
// checkpoint is written to a temp file, fsync'd, and atomically renamed over
// the live one, after the live one was rotated to the previous-generation
// file. Load therefore always finds either the new checkpoint or the
// complete old one — never a half-written file under the live name — and
// even external corruption of the live file (the chaos harness simulates
// torn writes by truncating it) degrades to the previous generation, which
// costs at most one re-run selector round.
type Store struct {
	// Dir is the checkpoint directory (created on first Save).
	Dir string
	// RunID names the run; the live checkpoint lives at <Dir>/<RunID>.ckpt.
	RunID string
	// AfterSave, when set, runs after every durable save — the chaos
	// harness's kill points hook in here. A non-nil error aborts the run
	// (the checkpoint itself is already on disk).
	AfterSave func(st *State) error

	saves int
}

// NewStore creates a store for one run's checkpoints.
func NewStore(dir, runID string) *Store {
	return &Store{Dir: dir, RunID: SanitizeRunID(runID)}
}

// SanitizeRunID makes a run identifier filesystem-safe: the stem NewStore
// names the checkpoint file with. It is idempotent.
func SanitizeRunID(id string) string {
	if id == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, id)
}

// Path returns the live checkpoint's path.
func (s *Store) Path() string { return filepath.Join(s.Dir, s.RunID+CheckpointExt) }

// PrevPath returns the previous generation's path.
func (s *Store) PrevPath() string { return s.Path() + PrevExt }

// Saves counts the durable saves this store performed.
func (s *Store) Saves() int { return s.saves }

// Save durably persists the state and returns the number of bytes written.
func (s *Store) Save(st *State) (int, error) {
	if st.RunID == "" {
		st.RunID = s.RunID
	}
	data, err := Encode(st)
	if err != nil {
		return 0, fmt.Errorf("runstate: encode: %w", err)
	}
	if _, err := os.Stat(s.Dir); err != nil {
		if err := os.MkdirAll(s.Dir, 0o755); err != nil {
			return 0, fmt.Errorf("runstate: %w", err)
		}
		// The new directory's entry lives in its parent, which must be
		// fsync'd for the entry to survive a power loss.
		syncDir(filepath.Dir(s.Dir))
	}
	path := s.Path()
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return 0, fmt.Errorf("runstate: %w", err)
	}
	// Rotate the live checkpoint to the previous generation before renaming
	// the new one in. A process killed between the two renames leaves no
	// live file, only the complete .prev (and the new .tmp); Load falls back
	// to .prev.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, s.PrevPath()); err != nil {
			return 0, fmt.Errorf("runstate: rotate: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("runstate: publish: %w", err)
	}
	syncDir(s.Dir)
	s.saves++
	if s.AfterSave != nil {
		if err := s.AfterSave(st); err != nil {
			return len(data), err
		}
	}
	return len(data), nil
}

// Exists reports whether Load has a generation to read: the live
// checkpoint or the previous one.
func (s *Store) Exists() bool {
	for _, p := range []string{s.Path(), s.PrevPath()} {
		if _, err := os.Stat(p); err == nil {
			return true
		}
	}
	return false
}

// Load reads the latest usable checkpoint: the live file, or — when the live
// file is corrupt (torn write, truncation, bit flips) or missing (a Save
// killed between its two renames) — the previous generation. fellBack
// reports that the fallback was taken. A version mismatch is not fallen back
// from: an incompatible schema on the live file means the whole directory is
// suspect.
func (s *Store) Load() (st *State, fellBack bool, err error) {
	st, err = LoadFile(s.Path())
	if err == nil {
		return st, false, nil
	}
	if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, fs.ErrNotExist) {
		return nil, false, err
	}
	prev, perr := LoadFile(s.PrevPath())
	if perr != nil {
		// Surface the live file's corruption or absence, not the fallback's.
		return nil, false, err
	}
	return prev, true, nil
}

// LoadFile reads and verifies one checkpoint file.
func LoadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return st, nil
}

// writeFileSync writes data and fsyncs before closing, so a crash after
// Save's rename never exposes a half-written checkpoint.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames inside it are durable. Errors are
// ignored: some filesystems refuse directory fsync, and the rename itself
// is still atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// WriteFileAtomic durably writes data to path via a temp file and rename —
// the same discipline Save uses, for sidecar files such as the job
// service's compacted journal.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}
