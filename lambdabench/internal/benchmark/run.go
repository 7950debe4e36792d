// Package benchmark is lambdabench: one end-to-end benchmark of the λ-Tune
// reproduction as its users meet it. Three workloads drive an in-process
// lambdatuned over loopback HTTP and one calls Database.Tune directly, the
// path of the lambdatune CLI and the paper tables. Every run checks each
// job's result against an isolated reference. A traced run also times each
// layer of the stack from outside, through its public functions.
package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lambdatune/internal/obs"
	"lambdatune/internal/service"
)

// setupReps is how many times a run sets up (boot, /readyz, warm-up);
// setup_s is their median and the last set-up serves the measurement.
const setupReps = 5

// parts splits an untraced measured window into consecutive parts. Each
// per-job metric is the median of its per-part values, so a burst of host
// noise inside one part moves the result less than a whole-window figure.
// Four parts keep at least ten samples beyond every part's p90.
const parts = 4

// refEvery is the nominal length, in seconds, of the slices a part is cut
// into; the reference task is timed before each slice (see hostref.go).
const refEvery = 0.5

// virtualEntries is the stream prefix the virtual-clock metrics cover. Every
// run completes it, so those metrics depend on the seed alone.
const virtualEntries = 64

// componentScenarios caps the distinct scenarios the component pass covers.
const componentScenarios = 8

// Options configures one benchmark run.
type Options struct {
	Workload *Workload
	Seed     int64
	// Seconds sizes each measured window: Workload.Jobs(Seconds) jobs.
	Seconds float64
	// Trace runs the traced pass and reports per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// DataDir holds the run's working directory, removed at exit.
	DataDir string
	// TraceOut is where the traced run's JSONL goes (default: DataDir).
	TraceOut string
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Counts records how much work a run did.
type Counts struct {
	SetupReps     int     `json:"setup_reps"`
	WarmupJobs    int     `json:"warmup_jobs"`
	MeasuredJobs  int     `json:"measured_jobs"`
	WindowSeconds float64 `json:"window_seconds"`
	Reads         int     `json:"reads,omitempty"`
	RefSamples    int     `json:"reference_samples,omitempty"`
	TracedJobs    int     `json:"traced_jobs,omitempty"`
	Components    int     `json:"component_scenarios,omitempty"`
	Scenarios     int     `json:"scenarios_checked"`
}

// Report is a run's full record: its result plus how it was obtained.
type Report struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	TraceFile  string     `json:"trace_file,omitempty"`
	Provenance Provenance `json:"provenance"`
	Counts     Counts     `json:"counts"`
	// HostSpeed is the host's speed on the reference task relative to the
	// calibration host, and Raw the end-to-end metrics of an untraced run
	// before they were scaled by it.
	HostSpeed float64            `json:"host_speed,omitempty"`
	Raw       map[string]float64 `json:"raw_metrics,omitempty"`
	Result    Result             `json:"result"`
}

// stream feeds a workload's mix to its clients.
type stream struct {
	w    *Workload
	d    *daemon // nil for standalone workloads
	mix  Mix
	next atomic.Int64 // next stream index to hand out
	// lastDone is the ID of the newest finished daemon job, which the
	// daemon-readers client reads about.
	lastDone atomic.Pointer[string]
}

// window is what one closed-loop pass produced.
type window struct {
	outcomes []jobOutcome
	reads    int
	elapsed  time.Duration
}

func (s *stream) job(tr *obs.Tracer, parent *obs.Span, spec service.JobSpec) jobOutcome {
	if s.d != nil {
		return s.d.runJob(tr, parent, spec)
	}
	return standaloneRun{Trace: tr, Parent: parent, LLMCalls: new(atomic.Int64)}.run(spec)
}

// slowHost bounds a measured window at this multiple of its nominal length
// (n jobs at the workload's calibrated rate). A host that much slower than
// the calibration host yields numbers that say little, and the cap keeps
// such a run's wall time bounded.
const slowHost = 2

// deadline is when a measured window of n jobs stops at the latest.
func (s *stream) deadline(n int) time.Time {
	return time.Now().Add(time.Duration(slowHost * float64(n) / s.w.Rate * float64(time.Second)))
}

// readsPerJob is how many reads the daemon-readers reader makes per finished
// job: two passes over the read routes. The reader waits when it is that far
// ahead, so the mix of reads and writes stays the same however the host
// splits its cores between the two clients, and a cheaper read shows as
// cheaper jobs rather than as more reads.
const readsPerJob = 8

// run drives the closed loop over the next n jobs of the stream, or until
// the deadline if one is set: each client takes the next job and waits for
// it. On daemon-readers one client reads instead, readsPerJob reads per
// finished job, until the writer is done.
func (s *stream) run(tr *obs.Tracer, root *obs.Span, n int, deadline time.Time) (window, error) {
	var (
		mu      sync.Mutex
		win     window
		readErr error
		wg      sync.WaitGroup
	)
	writers := Clients
	var tokens chan struct{} // one per read the reader may make
	if s.w.Readers {
		writers = 1
		tokens = make(chan struct{}, readsPerJob*n)
	}
	limit := int(s.next.Load()) + n
	start := time.Now()
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := int(s.next.Add(1)) - 1
				if i >= limit {
					return
				}
				o := s.job(tr, root, s.mix(i))
				if o.ok() && o.id != "" {
					id := o.id
					s.lastDone.Store(&id)
					for r := 0; tokens != nil && r < readsPerJob; r++ {
						tokens <- struct{}{}
					}
				}
				mu.Lock()
				win.outcomes = append(win.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	if s.w.Readers {
		done := make(chan struct{})
		var rg sync.WaitGroup
		rg.Add(1)
		go func() {
			defer rg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				case <-tokens:
				}
				if err := s.d.read(tr, root, k%len(readRoutes), *s.lastDone.Load()); err != nil {
					readErr = err
					return
				}
				win.reads++
			}
		}()
		wg.Wait()
		close(done)
		rg.Wait()
	} else {
		wg.Wait()
	}
	win.elapsed = time.Since(start)
	s.next.Store(int64(limit))
	return win, readErr
}

// Run executes one benchmark run.
func Run(o Options) (*Report, error) {
	w := o.Workload
	runDir, err := os.MkdirTemp(o.DataDir, "lambdabench-")
	if err != nil {
		return nil, err
	}
	defer removeAll(runDir)
	rep := &Report{Workload: w.Name, Seed: o.Seed, Trace: o.Trace, Provenance: provenance(runDir)}
	mix := w.Mix(o.Seed)

	// Set-up: boot, /readyz and warm-up, several times. Each set-up starts
	// from an empty data dir; the last one stays up for the measurement.
	var (
		setups []float64
		s      *stream
		warm   window
	)
	closeDaemon := func() {
		if s != nil && s.d != nil {
			s.d.close()
		}
	}
	defer closeDaemon()
	ref, err := newHostRef()
	if err != nil {
		return nil, fmt.Errorf("reference task: %w", err)
	}
	defer ref.close()
	for r := 0; r < setupReps; r++ {
		closeDaemon()
		if r > 0 {
			removeAll(filepath.Join(runDir, fmt.Sprintf("setup-%d", r-1)))
		}
		ref.sample()
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		s = &stream{w: w, mix: mix}
		if w.Daemon {
			if s.d, err = startDaemon(dir, w); err != nil {
				return nil, err
			}
		}
		if warm, err = s.run(nil, nil, w.Warmup, time.Time{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, o := range warm.outcomes {
			if !o.ok() {
				return nil, fmt.Errorf("set-up %d: warm-up job (%s) failed: %v", r+1, scenarioOf(o.spec), o.err)
			}
		}
	}
	rep.Counts = Counts{SetupReps: setupReps, WarmupJobs: w.Warmup}

	jobs := w.Jobs(o.Seconds)
	checked := append([]jobOutcome(nil), warm.outcomes...)
	var (
		attempted []jobOutcome
		values    map[string]float64
	)
	if !o.Trace {
		runtime.GC()
		perPart := map[string][]float64{}
		slices := max(1, int(o.Seconds/(parts*refEvery)+0.5))
		n := max(1, jobs/(parts*slices))
		for p := 0; p < parts; p++ {
			var (
				part window
				cpu  float64
			)
			for k := 0; k < slices; k++ {
				ref.sample()
				cpu0 := cpuSeconds()
				slice, err := s.run(nil, nil, n, s.deadline(n))
				cpu += cpuSeconds() - cpu0
				if err != nil {
					return nil, err
				}
				part.add(slice)
			}
			for name, v := range partMetrics(part, cpu) {
				perPart[name] = append(perPart[name], v)
			}
			attempted = append(attempted, part.outcomes...)
			rep.Counts.WindowSeconds += part.elapsed.Seconds()
			rep.Counts.Reads += part.reads
		}
		ref.sample()
		// One speed for the whole run: scaling each part by the samples
		// around it alone tracked the host no better and added noise.
		rep.HostSpeed = ref.speed()
		rep.Counts.RefSamples = len(ref.samples)
		ref.close()
		rep.Raw = map[string]float64{"setup_s": Median(setups), "heap_live_mb": heapLiveMB()}
		for name, vs := range perPart {
			rep.Raw[name] = Median(vs)
		}
		values = atReferenceSpeed(rep.Raw, rep.HostSpeed)
	} else {
		traceOut := o.TraceOut
		if traceOut == "" {
			traceOut = filepath.Join(o.DataDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.Name, o.Seed))
		}
		lt := &layerRun{w: w, s: s, runDir: runDir, traceOut: traceOut, jobs: jobs}
		if values, err = lt.run(); err != nil {
			return nil, err
		}
		rep.TraceFile = traceOut
		rep.HostSpeed = ref.speed() // from the set-ups; per-layer metrics stay unscaled
		attempted = append(lt.untraced.outcomes, lt.traced.outcomes...)
		rep.Counts.WindowSeconds = (lt.untraced.elapsed + lt.traced.elapsed).Seconds()
		rep.Counts.Reads = lt.untraced.reads + lt.traced.reads
		rep.Counts.TracedJobs = len(lt.traced.outcomes)
		rep.Counts.Components = lt.scenarios
		checked = append(checked, lt.comp.outcomes...)
	}
	rep.Counts.MeasuredJobs = len(attempted)
	checked = append(checked, attempted...)

	refs, err := gate(checked, w.Daemon)
	if err != nil {
		return nil, err
	}
	rep.Counts.Scenarios = len(refs)
	if o.Trace {
		virtualClock(values, mix, refs)
	}

	rep.Result = Result{Correct: true, Attempted: len(attempted)}
	for _, o := range attempted {
		if !o.ok() {
			rep.Result.Failed++
		}
	}
	defs := EndToEnd
	if o.Trace {
		defs = PerLayer
	}
	if rep.Result.Metrics, err = metricSet(defs, values); err != nil {
		return nil, err
	}
	return rep, nil
}

// add appends another pass's work to w.
func (w *window) add(o window) {
	w.outcomes = append(w.outcomes, o.outcomes...)
	w.reads += o.reads
	w.elapsed += o.elapsed
}

// atReferenceSpeed scales raw end-to-end metrics to the calibration host's
// speed: times are multiplied by the host's relative speed and the rate is
// divided by it. heap_live_mb is not a time and stays as measured.
func atReferenceSpeed(raw map[string]float64, speed float64) map[string]float64 {
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		switch name {
		case "jobs_per_s":
			v /= speed
		case "heap_live_mb":
		default:
			v *= speed
		}
		out[name] = v
	}
	return out
}

// partMetrics computes the per-job end-to-end metrics of one part.
func partMetrics(win window, cpuSec float64) map[string]float64 {
	var lat []float64
	for _, o := range win.outcomes {
		if o.ok() {
			lat = append(lat, o.ms)
		}
	}
	return map[string]float64{
		"jobs_per_s":     float64(len(lat)) / win.elapsed.Seconds(),
		"job_p50_ms":     Percentile(lat, 0.50),
		"job_p90_ms":     Percentile(lat, 0.90),
		"cpu_ms_per_job": 1e3 * cpuSec / float64(max(len(win.outcomes), 1)),
	}
}

// heapLiveMB is the live heap after collection. Two collections: the
// first moves sync.Pool contents to the victim cache, the second frees them.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// virtualClock adds the paper's virtual-clock metrics, over the scenarios
// of the stream's first virtualEntries jobs.
func virtualClock(values map[string]float64, mix Mix, refs map[scenario]*service.JobResult) {
	var speedups, tuning []float64
	for i := 0; i < virtualEntries; i++ {
		if r := refs[scenarioOf(mix(i))]; r != nil {
			speedups = append(speedups, r.DefaultSeconds/r.BestSeconds)
			tuning = append(tuning, r.TuningSeconds)
		}
	}
	values["tuner.best_speedup_gm"] = GeoMean(speedups)
	values["tuner.tuning_virtual_s"] = Median(tuning)
}
