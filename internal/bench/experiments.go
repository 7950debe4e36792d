package bench

import "time"

// Params are the settings an experiment run reads.
type Params struct {
	Seed int64
	// Trials is the repetition count per scenario of Tables 3–4 and
	// Figures 3–4 (the paper uses 3).
	Trials int
	// Burn is the real CPU burned per simulated query execution in the
	// scaling study.
	Burn time.Duration
	// CSVDir, when set, also receives the experiment's CSV, for the entries
	// that export one.
	CSVDir string
	// Charts renders Figures 3 and 4 as ASCII charts.
	Charts bool
}

// Experiment is one entry of the evaluation: its `benchrunner -exp` name,
// the heading its output prints under, and a run returning the typed result
// and its rendered text.
type Experiment struct {
	Name  string
	Title string
	Run   func(r *Runner, p Params) (result any, text string, err error)
}

// Experiments is every experiment in `benchrunner -exp all` order: the one
// list that benchrunner, the root BenchmarkPaper and TestPaperDigestGolden
// read. DESIGN.md's experiment index describes each entry.
var Experiments = []Experiment{
	entry("table3", "Table 3 — scaled cost of best configuration per system",
		seedTrials(Table3), plain(RenderTable3), ExportTable3CSV),
	entry("table4", "Table 4 — configurations evaluated per baseline (Postgres)",
		seedTrials(Table4), plain(RenderTable4), ExportTable4CSV),
	entry("table5", "Table 5 — best λ-Tune configuration for TPC-H 1GB (Postgres)",
		seedOnly(BuildTable5), plain(RenderTable5), nil),
	entry("fig3", "Figure 3 — convergence, pure parameter tuning (initial indexes)",
		convergence(true), renderConvergence, convergenceCSV("figure3")),
	entry("fig4", "Figure 4 — convergence, index creation allowed (no initial indexes)",
		convergence(false), renderConvergence, convergenceCSV("figure4")),
	entry("fig5", "Figure 5 — per-query times, λ-Tune vs default (TPC-H 1GB, Postgres)",
		seedOnly(Figure5), plain(RenderFigure5), ExportFigure5CSV),
	entry("fig6", "Figure 6 — component ablation (JOB, Postgres, no indexes)",
		seedOnly(Figure6), plain(RenderFigure6), nil),
	entry("fig7", "Figure 7 — compressor token-budget study (JOB, Postgres)",
		seedOnly(Figure7), plain(RenderFigure7), ExportFigure7CSV),
	entry("fig8", "Figure 8 — index recommendation tools (Postgres)",
		seedOnly(Figure8), plain(RenderFigure8), nil),
	entry("transfer", "Parameter transfer study (§6.3) — winning configs across benchmarks",
		seedOnly(Transfer), plain(RenderTransfer), nil),
	entry("outliers", "LLM outlier study (§6.3) — 15 samples, TPC-H 1GB (Postgres)",
		seedOnly(Outliers), plain(RenderOutliers), nil),
	entry("robustness", "Robustness study (E12) — injected LLM/engine faults, resilient pipeline",
		seedOnly(Robustness), plain(RenderRobustness), nil),
	entry("scaling", "Scaling study (E13) — parallel candidate evaluation, 1..8 workers",
		func(_ *Runner, p Params) ([]ScalingRow, error) { return Scaling(p.Seed, p.Burn) },
		plain(RenderScaling), nil),
	entry("race", "Racing study (E14) — full vs successive-halving candidate evaluation",
		seedOnly(Race), plain(RenderRace), nil),
}

// entry adapts a typed run, its renderer and an optional CSV export (written
// when Params.CSVDir is set) to the table's untyped Run.
func entry[T any](name, title string, run func(*Runner, Params) (T, error),
	render func(T, Params) string, export func(dir string, v T) error) Experiment {
	return Experiment{Name: name, Title: title, Run: func(r *Runner, p Params) (any, string, error) {
		v, err := run(r, p)
		if err == nil && export != nil && p.CSVDir != "" {
			err = export(p.CSVDir, v)
		}
		if err != nil {
			return nil, "", err
		}
		return v, render(v, p), nil
	}}
}

// seedOnly adapts an experiment that reads only the seed.
func seedOnly[T any](f func(seed int64) (T, error)) func(*Runner, Params) (T, error) {
	return func(_ *Runner, p Params) (T, error) { return f(p.Seed) }
}

// seedTrials adapts an experiment over the Runner's scenarios.
func seedTrials[T any](f func(r *Runner, seed int64, trials int) (T, error)) func(*Runner, Params) (T, error) {
	return func(r *Runner, p Params) (T, error) { return f(r, p.Seed, p.Trials) }
}

// plain adapts a renderer that reads no Params.
func plain[T any](f func(T) string) func(T, Params) string {
	return func(v T, _ Params) string { return f(v) }
}

// convergence runs Figure 3 (initialIndexes) or Figure 4.
func convergence(initialIndexes bool) func(*Runner, Params) ([]FigureConvergence, error) {
	return func(r *Runner, p Params) ([]FigureConvergence, error) {
		return Convergence(r, p.Seed, p.Trials, initialIndexes)
	}
}

// convergenceCSV exports a convergence figure as dir/name.csv.
func convergenceCSV(name string) func(string, []FigureConvergence) error {
	return func(dir string, figs []FigureConvergence) error { return ExportConvergenceCSV(dir, name, figs) }
}

// renderConvergence prints a convergence figure as staircases, or as one
// 72-column ASCII chart per scenario under Params.Charts.
func renderConvergence(figs []FigureConvergence, p Params) string {
	if !p.Charts {
		return RenderConvergence(figs)
	}
	var out string
	for _, fc := range figs {
		out += AsciiChart(fc, 72)
	}
	return out
}
