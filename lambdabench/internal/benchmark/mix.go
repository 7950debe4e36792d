package benchmark

import (
	"fmt"
	"math/rand"

	"lambdatune/internal/service"
)

// Mix yields the i-th job of a workload's stream. It is a pure function of
// the benchmark seed and i, so every run with the same seed offers the
// program the same jobs in the same order, however many of them a run gets
// through in its measured window.
type Mix func(i int) service.JobSpec

// scenario is the identity the correctness gate keys results by: one
// standalone Tune with these inputs is the reference for every job sharing
// it.
type scenario struct {
	Benchmark   string
	DBMS        string
	Seed        int64
	Parallelism int
}

func scenarioOf(s service.JobSpec) scenario {
	dbms := s.DBMS
	if dbms == "" {
		dbms = "postgres"
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	return scenario{Benchmark: s.Benchmark, DBMS: dbms, Seed: seed, Parallelism: s.Parallelism}
}

func (s scenario) String() string {
	return fmt.Sprintf("%s/%s/seed%d/p%d", s.Benchmark, s.DBMS, s.Seed, s.Parallelism)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash that
// derives independent per-job randomness from (seed, i) without state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps (seed, i, salt) to a uniform float in [0, 1).
func unit(seed int64, i int, salt uint64) float64 {
	h := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(i)<<8 ^ salt)
	return float64(h>>11) / (1 << 53)
}

// tenantSeed draws the scenario seed of one named tenant from the benchmark
// seed; distinct salts give distinct tenants independent seeds.
func tenantSeed(seed int64, salt int) int64 {
	return 1 + int64(splitmix64(uint64(seed)<<16^uint64(salt))%1_000_000)
}

// hotTenants is the daemon-hot tenant count: few enough that every cache
// holds the whole working set.
const hotTenants = 4

// HotMix is the daemon-hot stream: JOB on Postgres, round-robin over four
// tenants, each tenant always submitting its own seed with the default spec.
func HotMix(seed int64) Mix {
	seeds := make([]int64, hotTenants)
	for t := range seeds {
		seeds[t] = tenantSeed(seed, t)
	}
	return func(i int) service.JobSpec {
		t := i % hotTenants
		return service.JobSpec{Benchmark: "job", DBMS: "postgres", Seed: seeds[t], Tenant: fmt.Sprintf("tenant-%d", t)}
	}
}

// The daemon-churn stream follows the E16 mix: half the jobs come from one
// hot tenant (weighted 4 on the evaluation slots), 30% from eight warm
// tenants each repeating its own seed, and 20% are cold jobs whose seeds are
// all distinct, so the working set outgrows the memo.
const (
	churnHotTenant   = "hot"
	churnHotWeight   = 4
	churnWarmTenants = 8
	churnHotShare    = 0.5
	churnWarmShare   = 0.3
	churnParallelism = 2
	churnMemoCap     = 256
)

// ChurnMix is the daemon-churn stream.
func ChurnMix(seed int64) Mix {
	hot := tenantSeed(seed, 100)
	warm := make([]int64, churnWarmTenants)
	for t := range warm {
		warm[t] = tenantSeed(seed, 101+t)
	}
	// Cold seeds live above every tenant seed, one per stream position, so
	// no two cold jobs (and no cold and warm job) share a scenario.
	coldBase := int64(2_000_000) + (seed%1000)*10_000_000
	return func(i int) service.JobSpec {
		spec := service.JobSpec{Benchmark: "job", DBMS: "postgres", Parallelism: churnParallelism}
		switch u := unit(seed, i, 1); {
		case u < churnHotShare:
			spec.Tenant, spec.Seed = churnHotTenant, hot
		case u < churnHotShare+churnWarmShare:
			t := int(unit(seed, i, 2) * churnWarmTenants)
			spec.Tenant, spec.Seed = fmt.Sprintf("warm-%d", t), warm[t]
		default:
			spec.Tenant, spec.Seed = fmt.Sprintf("cold-%d", i), coldBase+int64(i)
		}
		return spec
	}
}

// The standalone-paper stream covers the paper's benchmark × DBMS grid with
// paperSeeds seeds each. Every scenario runs twice, and the two runs must
// agree. The stream is a sequence of blocks of paperBlock runs; each block
// holds two scenarios of every grid cell, both runs of each, in shuffled
// order. Every block therefore costs about the same whatever the seed, and
// a run's twin is never more than one block away, so a run that stops
// mid-stream leaves at most one block of unfinished pairs for the gate.
var (
	paperBenchmarks = []string{"tpch-1", "tpch-10", "tpcds-1", "job"}
	paperDBMS       = []string{"postgres", "mysql"}
)

const (
	paperSeeds = 150
	paperBlock = 32
)

// PaperMix is the standalone-paper stream. Past its 2400 runs it repeats.
func PaperMix(seed int64) Mix {
	type run struct{ cell, seed int }
	cells := len(paperBenchmarks) * len(paperDBMS)
	perCell := paperBlock / 2 / cells // scenarios of each cell per block
	rng := rand.New(rand.NewSource(seed))
	order := make([][]int, cells) // each cell's seeds in stream order
	for c := range order {
		order[c] = rng.Perm(paperSeeds)
	}
	runs := make([]run, 0, 2*cells*paperSeeds)
	for b := 0; b < paperSeeds/perCell; b++ {
		block := make([]run, 0, paperBlock)
		for c := 0; c < cells; c++ {
			for k := 0; k < perCell; k++ {
				r := run{cell: c, seed: order[c][b*perCell+k]}
				block = append(block, r, r)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		runs = append(runs, block...)
	}
	seedBase := 1 + (seed%1000)*paperSeeds
	return func(i int) service.JobSpec {
		r := runs[i%len(runs)]
		return service.JobSpec{
			Benchmark: paperBenchmarks[r.cell/len(paperDBMS)],
			DBMS:      paperDBMS[r.cell%len(paperDBMS)],
			Seed:      seedBase + int64(r.seed),
		}
	}
}
