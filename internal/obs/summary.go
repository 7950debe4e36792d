package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Phase names the cost buckets a tuning run's spans are classified into.
// Leaf spans map to exactly one phase so phase totals never double-count;
// structural spans (run, selection, round, candidate) are containers and
// contribute nothing themselves.
const (
	PhaseLLM      = "llm"         // llm.sample spans: model latency, retries, backoff
	PhasePrompt   = "prompt"      // prompt compression / document selection
	PhaseEval     = "eval"        // query execution inside candidate evaluation
	PhaseIndex    = "index-build" // index creation charged by the engine
	PhaseSchedule = "schedule"    // DP query ordering (host CPU, wall only)
)

// spanPhase classifies a leaf span name into a phase ("" = structural).
func spanPhase(name string) string {
	switch name {
	case "llm.sample":
		return PhaseLLM
	case "prompt":
		return PhasePrompt
	case "query":
		return PhaseEval
	case "index.build":
		return PhaseIndex
	case "schedule":
		return PhaseSchedule
	}
	return ""
}

// PhaseCost aggregates one phase's spend across a trace.
type PhaseCost struct {
	Phase       string  `json:"phase"`
	Spans       int     `json:"spans"`
	VirtSeconds float64 `json:"virt_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Summary condenses a trace into the per-phase cost breakdown that
// Result.Telemetry carries: span/event totals, phase costs sorted by
// descending virtual spend, and (when a registry was attached) a scalar
// metrics snapshot.
type Summary struct {
	Spans   int
	Events  int
	Phases  []PhaseCost
	Metrics map[string]float64
}

// phaseTotals accumulates leaf spans into per-phase costs.
type phaseTotals map[string]*PhaseCost

// add classifies one span and adds its cost to its phase. A span that ends
// before it starts adds no virtual time (the clamp Records applies on
// export); a wall interval counts only when it is well-ordered.
func (pt phaseTotals) add(name string, virtStart, virtEnd float64, wallStartNS, wallEndNS int64) {
	phase := spanPhase(name)
	if phase == "" {
		return
	}
	pc := pt[phase]
	if pc == nil {
		pc = &PhaseCost{Phase: phase}
		pt[phase] = pc
	}
	pc.Spans++
	if virtEnd < virtStart {
		virtEnd = virtStart
	}
	pc.VirtSeconds += virtEnd - virtStart
	if wallEndNS > wallStartNS {
		// The unsigned difference is exact even where the signed one would
		// overflow.
		pc.WallSeconds += float64(uint64(wallEndNS-wallStartNS)) / 1e9
	}
}

// sorted returns the phases by descending virtual spend, ties by name.
func (pt phaseTotals) sorted() []PhaseCost {
	var out []PhaseCost
	for _, pc := range pt {
		out = append(out, *pc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VirtSeconds != out[j].VirtSeconds {
			return out[i].VirtSeconds > out[j].VirtSeconds
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Summarize builds a phase breakdown from exported records.
func Summarize(recs []SpanRecord) Summary {
	pt := phaseTotals{}
	s := Summary{Spans: len(recs)}
	for _, r := range recs {
		s.Events += len(r.Events)
		pt.add(r.Name, r.VirtStart, r.VirtEnd, r.WallStartNS, r.WallEndNS)
	}
	s.Phases = pt.sorted()
	return s
}

// Summarize condenses the tracer's current spans. It walks the spans
// directly rather than going through Records: the summary needs no IDs and
// no attribute maps, and every finished daemon job summarizes its trace for
// Result.Telemetry. It visits them in the export's depth-first order, not in
// creation order, which parallel evaluation workers interleave: float sums
// in creation order differ in their last bits between identical runs, and
// in export order they equal Summarize(t.Records())'s bit for bit.
func (t *Tracer) Summarize() Summary {
	if t == nil {
		return Summary{}
	}
	views, extras := t.snapshot()
	x := getExporter()
	defer putExporter(x)
	ord, _ := x.walk(t, views)
	pt := phaseTotals{}
	s := Summary{Spans: len(ord)}
	for _, i := range ord {
		sp := spanAt(views, i)
		if len(extras) > 0 {
			s.Events += len(extras[sp].events)
		}
		sp.mu.Lock()
		name := sp.name
		virtStart, virtEnd := sp.virtStart, sp.virtEnd
		wallStartNS, wallEndNS := sp.wallStartNS, sp.wallEndNS
		sp.mu.Unlock()
		pt.add(name, virtStart, virtEnd, wallStartNS, wallEndNS)
	}
	s.Phases = pt.sorted()
	return s
}

// SummaryTable renders the breakdown as the table trace-summary prints:
//
//	phase        spans   virtual-s      share   wall-ms
//	llm              5   240.00000      63.2%     12.40
//	...
func SummaryTable(s Summary) string {
	var total float64
	for _, p := range s.Phases {
		total += p.VirtSeconds
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %12s %8s %10s\n", "phase", "spans", "virtual-s", "share", "wall-ms")
	for _, p := range s.Phases {
		share := 0.0
		if total > 0 {
			share = 100 * p.VirtSeconds / total
		}
		fmt.Fprintf(&b, "%-12s %6d %12.5f %7.1f%% %10.2f\n",
			p.Phase, p.Spans, p.VirtSeconds, share, p.WallSeconds*1e3)
	}
	fmt.Fprintf(&b, "%-12s %6d %12.5f %7.1f%%\n", "total", s.Spans, total, 100.0)
	fmt.Fprintf(&b, "spans=%d events=%d\n", s.Spans, s.Events)
	return b.String()
}
