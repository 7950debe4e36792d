package benchmark

import "fmt"

// Workload is one traffic mix the benchmark runs. Every workload is a closed
// loop of Clients clients: the daemon's callers (the CLI, CI jobs) submit a
// job and wait for it before sending the next.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Daemon workloads drive an in-process lambdatuned over loopback HTTP;
	// the others call Database.Tune directly.
	Daemon bool
	// Readers makes the second client read the API instead of submitting.
	Readers bool
	// Warmup jobs run before the measured window and count in setup_s.
	Warmup int
	// Rate is the workload's throughput, in jobs/s, on the host the
	// benchmark was calibrated on (2 cores, ext4 data dir). It only sizes
	// runs: a window is a fixed job count, the same on every commit.
	Rate float64
	// MemoCapacity and Weights configure the daemon's shared Runtime.
	MemoCapacity int
	Weights      map[string]int
	Mix          func(seed int64) Mix
}

// Clients is the closed-loop client count of every workload.
const Clients = 2

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
var Workloads = []Workload{
	{
		Name:   "daemon-hot",
		Why:    "4 JOB tenants with fixed seeds: every cache hits, so job cost is HTTP, admission, job records, checkpoints and tracing",
		Daemon: true, Warmup: 32, Rate: 80, Mix: HotMix,
	},
	{
		Name:   "daemon-churn",
		Why:    "E16 mix (hot, warm, 20% cold seeds) over a 256-entry memo: evictions and weighted slot contention make tuning work real",
		Daemon: true, Warmup: 32, Rate: 60, MemoCapacity: churnMemoCap,
		Weights: map[string]int{churnHotTenant: churnHotWeight}, Mix: ChurnMix,
	},
	{
		Name:   "daemon-readers",
		Why:    "one client submits the daemon-hot mix while the other reads job lists, summaries, traces and metrics next to the writes",
		Daemon: true, Readers: true, Warmup: 32, Rate: 45, Mix: HotMix,
	},
	{
		Name:   "standalone-paper",
		Why:    "one-shot Benchmark+Tune over the paper grid with cold caches: parse, prompt, ILP, planner and schedule DP, no service",
		Warmup: paperBlock, Rate: 120, Mix: PaperMix,
	},
}

// Jobs is the measured window's job count for a run of about seconds on
// the calibration host.
func (w *Workload) Jobs(seconds float64) int {
	return max(1, int(w.Rate*seconds+0.5))
}

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
