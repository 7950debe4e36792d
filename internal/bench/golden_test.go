package bench

import (
	"fmt"
	"testing"

	"lambdatune/internal/core/tuner"
	"lambdatune/internal/engine"
)

// TestGoldenSelectionE1 pins the E1 (TPC-H SF1, Postgres, seed 1) selection
// outcome to the values captured on the concrete-simulator implementation,
// before the backend interface layer existed. Selection decisions — winning
// candidate, its runtime, the default runtime, and the tuning-time accounting
// — must stay byte-identical across refactors of the backend seam, at
// Parallelism 1 and 4 alike, and with the plan-memoization caches on or off
// (memoization may only change host CPU time, never simulated seconds). Any
// drift here means observable behavior changed, not just structure.
func TestGoldenSelectionE1(t *testing.T) {
	golden := map[int]string{
		1: "p=1 best=llm-1 bestTime=10.136116263704787 default=80.00490240754776 speedup=7.8930529530356512 tuning=272.15842967122728",
		4: "p=4 best=llm-1 bestTime=10.136116263704787 default=80.00490240754776 speedup=7.8930529530356512 tuning=216.78565701897892",
	}
	for _, p := range []int{1, 4} {
		for _, cache := range []bool{true, false} {
			name := fmt.Sprintf("parallelism-%d/cache=%v", p, cache)
			t.Run(name, func(t *testing.T) {
				sc := Scenario{Benchmark: "tpch-1", Flavor: engine.Postgres, Seed: 1}
				db, w, err := sc.NewDB()
				if err != nil {
					t.Fatal(err)
				}
				db.SetPlanCache(cache)
				def := db.WorkloadSeconds(w.Queries)
				opts := tuner.DefaultOptions()
				opts.Seed = 1
				opts.Selector.Parallelism = p
				lt := &LambdaTune{Seed: 1, Opts: &opts}
				res, err := lt.RunLambdaTune(db, w.Queries)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("p=%d best=%s bestTime=%.17g default=%.17g speedup=%.17g tuning=%.17g",
					p, res.Best.ID, res.BestTime, def, def/res.BestTime, res.TuningSeconds)
				if got != golden[p] {
					t.Errorf("selection drifted from pre-refactor golden:\n got  %s\n want %s", got, golden[p])
				}
			})
		}
	}
}
