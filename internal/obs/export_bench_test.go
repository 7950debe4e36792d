package obs_test

import (
	"io"
	"testing"

	"lambdatune"
	"lambdatune/internal/obs"
)

// BenchmarkTraceExport times one JSONL export of a JOB Tune trace (seed 1,
// Postgres, about 440 spans): by the tracer's writer, and by the
// record-form reference, Records encoded through encoding/json.
func BenchmarkTraceExport(b *testing.B) {
	db, w, err := lambdatune.Benchmark("job", lambdatune.Postgres)
	if err != nil {
		b.Fatal(err)
	}
	trace := lambdatune.NewTrace()
	opts := lambdatune.DefaultOptions()
	opts.Observability.Trace = trace
	if _, err := db.Tune(w, lambdatune.NewSimulatedLLM(1), opts); err != nil {
		b.Fatal(err)
	}
	tr := trace.Tracer()
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tr.WriteJSONL(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := obs.WriteJSONL(io.Discard, tr.Records()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
