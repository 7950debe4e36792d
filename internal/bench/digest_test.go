package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperDigestGolden pins every number of the paper's evaluation bit for
// bit: each entry of Experiments runs at seed 1 with one trial on one shared
// Runner, and its result's %+v text (shortest round-trip floats, sorted map
// keys, +Inf for a failed system) is hashed with SHA-256. A refactor must
// leave the digest unchanged; a deliberate change to a number regenerates
// the fixture with UPDATE_GOLDEN=1. The scaling study is left out: its rows
// carry host wall time, and TestScalingInvariance covers it.
func TestPaperDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every table and figure (~15 s)")
	}
	r := NewRunner()
	var sb strings.Builder
	for _, e := range Experiments {
		if e.Name == "scaling" {
			continue
		}
		res, _, err := e.Run(r, Params{Seed: 1, Trials: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&sb, "%s %x\n", e.Name, sha256.Sum256([]byte(fmt.Sprintf("%+v", res))))
	}
	got := sb.String()
	path := filepath.Join("testdata", "paper_digest.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("paper digest changed; if a number changed on purpose, regenerate with UPDATE_GOLDEN=1\ngot:\n%swant:\n%s", got, want)
	}
}
