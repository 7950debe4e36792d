package backend_test

import (
	"math"
	"testing"

	"lambdatune/internal/backend"
	"lambdatune/internal/backend/backendtest"
	"lambdatune/internal/backend/instrumented"
	"lambdatune/internal/engine"
	"lambdatune/internal/workload"
)

// TestRegisteredBackendsConformance runs the behavioral contract against
// both backends this repo ships — the simulator Open("sim") builds and the
// instrumented decorator wrapping it — and (inside the suite) snapshots of
// both.
func TestRegisteredBackendsConformance(t *testing.T) {
	t.Run("sim", func(t *testing.T) { backendtest.Run(t, openSim) })
	t.Run("instrumented", func(t *testing.T) {
		backendtest.Run(t, func(spec backend.Spec) (backend.Backend, error) {
			b, err := openSim(spec)
			if err != nil {
				return nil, err
			}
			return instrumented.Wrap(b), nil
		})
	})
}

func openSim(spec backend.Spec) (backend.Backend, error) { return backend.Open("sim", spec) }

// TestOpenUnknownBackend pins Open's error behavior.
func TestOpenUnknownBackend(t *testing.T) {
	if _, err := backend.Open("no-such-backend", backendtest.Spec()); err == nil {
		t.Fatal("Open of an unknown backend succeeded")
	}
	spec := backendtest.Spec()
	spec.Catalog = nil
	if _, err := backend.Open("sim", spec); err == nil {
		t.Fatal("Open with a nil catalog succeeded")
	}
}

// BenchmarkBackendDispatch guards the hot query path against
// interface-dispatch regressions: RunQuery through the Backend interface
// must stay within noise of calling the simulator directly.
func BenchmarkBackendDispatch(b *testing.B) {
	w := workload.TPCH(1)
	q := w.Queries[0]

	b.Run("direct", func(b *testing.B) {
		db := engine.NewDB(engine.Postgres, w.Catalog, engine.DefaultHardware)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.RunQuery(q, math.Inf(1))
		}
	})
	b.Run("interface", func(b *testing.B) {
		var be backend.Backend = backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be.RunQuery(q, math.Inf(1))
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		var be backend.Backend = instrumented.Wrap(backend.NewSim(engine.Postgres, w.Catalog, engine.DefaultHardware))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be.RunQuery(q, math.Inf(1))
		}
	})
}
