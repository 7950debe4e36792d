package benchmark

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"lambdatune"
	"lambdatune/internal/backend"
	"lambdatune/internal/core/evaluator"
	"lambdatune/internal/core/prompt"
	"lambdatune/internal/core/schedule"
	"lambdatune/internal/engine"
	"lambdatune/internal/obs"
	"lambdatune/internal/runstate"
	"lambdatune/internal/service"
	"lambdatune/internal/workload"
)

// componentReps is how many times the component pass calls each layer
// function per scenario.
const componentReps = 10

// componentPass times each layer's public functions on copies of a
// workload's inputs, after the stream and outside every timed window. Its
// spans hang under their own root, so the stream's span tree shows only what
// the workload itself called.
type componentPass struct {
	tr   *obs.Tracer
	root *obs.Span
	dir  string
	// d serves the service calls: the workload's own daemon, or for
	// standalone-paper a probe daemon fed the workload's scenarios.
	d *daemon

	llmCalls atomic.Int64
	tunes    int
	outcomes []jobOutcome // tuning runs and daemon jobs, for the gate
}

func (c *componentPass) run(specs []service.JobSpec) error {
	for i, spec := range specs {
		if err := c.scenario(i, spec); err != nil {
			return fmt.Errorf("component pass, %s: %w", scenarioOf(spec), err)
		}
	}
	return nil
}

func (c *componentPass) scenario(idx int, spec service.JobSpec) error {
	sc := scenarioOf(spec)
	flavor := engine.Flavor(dbmsOf(spec))
	wl, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return err
	}
	fresh := func() (backend.Backend, error) {
		return backend.Open("sim", backend.Spec{Flavor: flavor, Catalog: wl.Catalog, Hardware: engine.DefaultHardware})
	}
	tr, root := c.tr, c.root
	var silent atomic.Int64 // direct LLM calls are timed, not counted per job
	for r := 0; r < componentReps; r++ {
		var (
			db *lambdatune.Database
			w  *lambdatune.Workload
		)
		if err := span(tr, root, "workload.build", func() (err error) {
			db, w, err = lambdatune.Benchmark(spec.Benchmark, dbmsOf(spec))
			return err
		}); err != nil {
			return err
		}
		_ = span(tr, root, "engine.plan_cold", func() error { db.WorkloadSeconds(w); return nil })
		_ = span(tr, root, "engine.plan_warm", func() error { db.WorkloadSeconds(w); return nil })

		be, err := fresh()
		if err != nil {
			return err
		}
		var pr prompt.Result
		if err := span(tr, root, "prompt.generate", func() (err error) {
			pr, err = prompt.Generate(be, wl.Queries, be.Hardware(), prompt.DefaultOptions())
			return err
		}); err != nil {
			return err
		}
		if be, err = fresh(); err != nil {
			return err
		}
		snippets := prompt.CollectSnippets(be, wl.Queries)
		if err := span(tr, root, "ilp.select", func() error {
			_, err := prompt.SelectILP(snippets, prompt.DefaultOptions().ModelLimit)
			return err
		}); err != nil {
			return err
		}
		client := newTimedClient(sc.Seed, tr, root, &silent)
		if _, err := client.CompleteT(context.Background(), pr.Text, lambdatune.DefaultOptions().Temperature); err != nil {
			return err
		}
	}

	// Full tuning runs through the timing LLM wrapper, checkpointing, so the
	// runstate calls below work on a finished run's checkpoint.
	ckptDir := filepath.Join(c.dir, fmt.Sprintf("ckpt-%d", idx))
	var best string
	for r := 0; r < componentReps; r++ {
		o := standaloneRun{Trace: tr, Parent: root, CheckpointDir: ckptDir, LLMCalls: &c.llmCalls}.run(spec)
		if o.err != nil {
			return o.err
		}
		c.tunes++
		c.outcomes = append(c.outcomes, o)
		best = o.result.BestScript
	}
	cfg, _, err := engine.ParseScript(flavor, "best", best)
	if err != nil {
		return fmt.Errorf("parsing the best configuration: %w", err)
	}
	be, err := fresh()
	if err != nil {
		return err
	}
	indexMap := evaluator.QueryIndexMap(wl.Queries, cfg)
	for r := 0; r < componentReps; r++ {
		_ = span(tr, root, "schedule.order", func() error {
			schedule.Order(wl.Queries, indexMap, be.IndexCreationSeconds, sc.Seed)
			return nil
		})
	}

	st, err := runstate.LoadFile(runstate.NewStore(ckptDir, lambdatune.RunID(wl.Name, sc.Seed)).Path())
	if err != nil {
		return err
	}
	store := runstate.NewStore(filepath.Join(c.dir, "save"), "bench")
	for r := 0; r < componentReps; r++ {
		if err := span(tr, root, "runstate.encode", func() error { _, err := runstate.Encode(st); return err }); err != nil {
			return err
		}
		if err := span(tr, root, "runstate.save", func() error { _, err := store.Save(st); return err }); err != nil {
			return err
		}
	}

	var last string
	for r := 0; r < componentReps; r++ {
		o := c.d.runJob(tr, root, spec)
		c.outcomes = append(c.outcomes, o)
		if !o.ok() {
			return fmt.Errorf("probe job: %v", o.err)
		}
		last = o.id
	}
	for route := range readRoutes {
		for r := 0; r < componentReps; r++ {
			if err := c.d.read(tr, root, route, last); err != nil {
				return err
			}
		}
	}
	return nil
}
