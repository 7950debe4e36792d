package lambdatune_test

import (
	"errors"
	"os"
	"testing"

	"lambdatune"
)

// TestCheckpointCrashResumeAPI drives the public API through a chaos crash
// and resume, with engine faults injected. Each fault is keyed by what it
// hits and the candidate's fault counts, which the checkpoint's metas carry,
// so the resumed run meets the faults the uninterrupted run met after the
// crash point, and reports the same FaultReport.
func TestCheckpointCrashResumeAPI(t *testing.T) {
	newRun := func() (*lambdatune.Database, *lambdatune.Workload) {
		db, w, err := lambdatune.Benchmark("tpch-1", lambdatune.Postgres)
		if err != nil {
			t.Fatal(err)
		}
		return db, w
	}
	baseOpts := func() lambdatune.Options {
		opts := lambdatune.DefaultOptions()
		opts.Faults = &lambdatune.FaultPlan{EngineRate: 0.05, Seed: 1}
		return opts
	}

	// Uninterrupted reference.
	db, w := newRun()
	want, err := db.Tune(w, lambdatune.NewSimulatedLLM(1), baseOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Crash after round 2's checkpoint.
	dir := t.TempDir()
	db, w = newRun()
	opts := baseOpts()
	opts.Durability.CheckpointDir = dir
	opts.Faults.CrashAfterRound = 2
	if _, err := db.Tune(w, lambdatune.NewSimulatedLLM(1), opts); !errors.Is(err, lambdatune.ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint on disk after kill: %v (%d entries)", err, len(entries))
	}

	// Resume on a fresh database.
	db, w = newRun()
	opts = baseOpts()
	opts.Durability.CheckpointDir = dir
	opts.Durability.Resume = true
	got, err := db.Tune(w, lambdatune.NewSimulatedLLM(1), opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !got.Resumed {
		t.Error("Resumed not reported")
	}
	if got.BestScript != want.BestScript {
		t.Errorf("resumed best script differs:\n--- want\n%s\n--- got\n%s", want.BestScript, got.BestScript)
	}
	if got.BestSeconds != want.BestSeconds {
		t.Errorf("best seconds %v != %v", got.BestSeconds, want.BestSeconds)
	}
	if got.TuningSeconds != want.TuningSeconds {
		t.Errorf("tuning seconds %v != %v", got.TuningSeconds, want.TuningSeconds)
	}
	if got.Faults != want.Faults || want.Faults.QueryAborts+want.Faults.IndexFailures == 0 {
		t.Errorf("resumed fault report %+v, uninterrupted %+v", got.Faults, want.Faults)
	}
}

// TestCheckpointValidation: the API rejects misuse with typed errors.
func TestCheckpointValidation(t *testing.T) {
	db, w, err := lambdatune.Benchmark("tpch-1", lambdatune.Postgres)
	if err != nil {
		t.Fatal(err)
	}
	client := lambdatune.NewSimulatedLLM(1)

	opts := lambdatune.DefaultOptions()
	opts.Durability.Resume = true
	if _, err := db.Tune(w, client, opts); !errors.Is(err, lambdatune.ErrInvalidOptions) {
		t.Errorf("Resume without CheckpointDir: %v", err)
	}

	opts = lambdatune.DefaultOptions()
	opts.Faults = &lambdatune.FaultPlan{CrashAfterRound: 1}
	if _, err := db.Tune(w, client, opts); !errors.Is(err, lambdatune.ErrInvalidOptions) {
		t.Errorf("kill point without CheckpointDir: %v", err)
	}

	// Resuming from an empty directory fails with a clear error.
	opts = lambdatune.DefaultOptions()
	opts.Durability.CheckpointDir = t.TempDir()
	opts.Durability.Resume = true
	if _, err := db.Tune(w, client, opts); err == nil {
		t.Error("resume from empty dir succeeded")
	}

	// A checkpoint from seed 1 refuses to resume a seed-2 run. The run ID
	// embeds the seed, so the missing-file error is the natural refusal; a
	// hand-moved file is caught by the digest check (covered in the tuner
	// tests).
	dir := t.TempDir()
	opts = lambdatune.DefaultOptions()
	opts.Durability.CheckpointDir = dir
	opts.Faults = &lambdatune.FaultPlan{CrashAfterSaves: 1}
	if _, err := db.Tune(w, client, opts); !errors.Is(err, lambdatune.ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}
	opts = lambdatune.DefaultOptions()
	opts.Seed = 2
	opts.Durability.CheckpointDir = dir
	opts.Durability.Resume = true
	if _, err := db.Tune(w, client, opts); err == nil {
		t.Error("seed-2 resume from seed-1 checkpoint succeeded")
	}
}

// TestResumeRefusesAnotherEngineFaultPlan: the engine fault plan is part of
// a checkpoint's options digest. Resuming under another rate or seed, with
// the faults dropped or with faults added fails with ErrCheckpointMismatch.
// A plan of kill points alone is no plan, a zero fault seed is Options.Seed,
// and LLM rates act only in sampling, which a resume skips.
func TestResumeRefusesAnotherEngineFaultPlan(t *testing.T) {
	client := lambdatune.NewSimulatedLLM(1)
	engine := &lambdatune.FaultPlan{EngineRate: 0.1, Seed: 3}
	cases := []struct {
		name           string
		saved, resumed *lambdatune.FaultPlan
		wantMismatch   bool
	}{
		{"same plan", engine, engine, false},
		{"another rate", engine, &lambdatune.FaultPlan{EngineRate: 0.2, Seed: 3}, true},
		{"another seed", engine, &lambdatune.FaultPlan{EngineRate: 0.1, Seed: 4}, true},
		{"faults dropped", engine, nil, true},
		{"faults dropped, LLM rate kept", &lambdatune.FaultPlan{LLMRate: 0.3, EngineRate: 0.1, Seed: 3},
			&lambdatune.FaultPlan{LLMRate: 0.3, Seed: 3}, true},
		{"faults added", nil, engine, true},
		{"kill points only", nil, &lambdatune.FaultPlan{CrashAfterRound: 99}, false},
		{"another LLM rate", &lambdatune.FaultPlan{LLMRate: 0.3, EngineRate: 0.1, Seed: 3}, engine, false},
		{"zero seed is Options.Seed", &lambdatune.FaultPlan{EngineRate: 0.1, Seed: 1},
			&lambdatune.FaultPlan{EngineRate: 0.1}, false},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		db, w, err := lambdatune.Benchmark("tpch-1", lambdatune.Postgres)
		if err != nil {
			t.Fatal(err)
		}
		opts := lambdatune.DefaultOptions()
		opts.Durability.CheckpointDir = dir
		opts.Faults = &lambdatune.FaultPlan{CrashAfterSaves: 2}
		if tc.saved != nil {
			saved := *tc.saved
			saved.CrashAfterSaves = 2
			opts.Faults = &saved
		}
		if _, err := db.Tune(w, client, opts); !errors.Is(err, lambdatune.ErrKilled) {
			t.Fatalf("%s: expected ErrKilled, got %v", tc.name, err)
		}
		db, w, _ = lambdatune.Benchmark("tpch-1", lambdatune.Postgres)
		opts = lambdatune.DefaultOptions()
		opts.Durability.CheckpointDir = dir
		opts.Durability.Resume = true
		opts.Faults = tc.resumed
		_, err = db.Tune(w, client, opts)
		if got := errors.Is(err, lambdatune.ErrCheckpointMismatch); got != tc.wantMismatch {
			t.Errorf("%s: resume error %v, want mismatch %v", tc.name, err, tc.wantMismatch)
		}
		if !tc.wantMismatch && err != nil {
			t.Errorf("%s: resume failed: %v", tc.name, err)
		}
	}
}
