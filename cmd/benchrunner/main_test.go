package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lambdatune/internal/bench"
)

// TestRunUnknownExperiment: an unknown -exp exits 2, names every valid
// experiment, and creates no profile file or trace directory.
func TestRunUnknownExperiment(t *testing.T) {
	dir := t.TempDir()
	cpu, traces := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "traces")
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "bogus", "-cpuprofile", cpu, "-trace-dir", traces}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), `unknown experiment "bogus"`) {
		t.Errorf("stderr: %s", errb.String())
	}
	for _, e := range bench.Experiments {
		if !strings.Contains(errb.String(), e.Name) {
			t.Errorf("stderr does not name %q: %s", e.Name, errb.String())
		}
	}
	for _, p := range []string{cpu, traces} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s exists after an unknown experiment (stat: %v)", p, err)
		}
	}
}

// TestRunOneExperiment runs one table entry with -csv: its section prints
// under the entry's title and its CSV lands in the directory.
func TestRunOneExperiment(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig5", "-csv", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "### Figure 5 — per-query times") || strings.Count(out.String(), "### ") != 1 {
		t.Errorf("stdout:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "figure5.csv")); err != nil {
		t.Error(err)
	}
}
