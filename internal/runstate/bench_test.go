package runstate_test

import (
	"path/filepath"
	"testing"

	"lambdatune"
	"lambdatune/internal/runstate"
)

// BenchmarkStoreSave measures one durable checkpoint save — Encode plus the
// temp write, fsync, rotation, rename and directory fsync — of the final
// checkpoint of a JOB run, so the state carries JOB's whole candidate pool
// and round bookkeeping.
func BenchmarkStoreSave(b *testing.B) {
	db, w, err := lambdatune.Benchmark("job", lambdatune.Postgres)
	if err != nil {
		b.Fatal(err)
	}
	opts := lambdatune.DefaultOptions()
	opts.Durability.CheckpointDir = b.TempDir()
	if _, err := db.Tune(w, lambdatune.NewSimulatedLLM(opts.Seed), opts); err != nil {
		b.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(opts.Durability.CheckpointDir, "*"+runstate.CheckpointExt))
	if err != nil || len(paths) != 1 {
		b.Fatalf("want one checkpoint, got %v (%v)", paths, err)
	}
	st, err := runstate.LoadFile(paths[0])
	if err != nil {
		b.Fatal(err)
	}
	s := runstate.NewStore(b.TempDir(), st.RunID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := s.Save(st)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n))
	}
}
