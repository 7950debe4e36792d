package benchmark

import (
	"fmt"

	"lambdatune/internal/obs"
)

// The benchmark records its own spans with obs.Tracer, around each call it
// makes into a layer's public API. Spans sit at virtual time 0 and carry the
// host wall clock; a nil tracer (the untraced runs) makes every call free.

// span runs fn inside a span named name under parent.
func span(tr *obs.Tracer, parent *obs.Span, name string, fn func() error) error {
	sp := tr.Start(parent, name, 0)
	err := fn()
	sp.End(0)
	return err
}

// selfTimesMS groups span self times, in ms, by root span name and then by
// span name. A span's self time is its wall duration minus the wall time of
// its direct children; the benchmark's spans nest sequentially, so children
// never overlap. Records are in export order: parents precede children.
func selfTimesMS(recs []obs.SpanRecord) map[string]map[string][]float64 {
	dur := func(r obs.SpanRecord) float64 {
		if r.WallEndNS <= r.WallStartNS {
			return 0
		}
		return float64(r.WallEndNS-r.WallStartNS) / 1e6
	}
	self := make([]float64, len(recs))
	root := make([]string, len(recs))
	for i, r := range recs {
		self[i] += dur(r)
		root[i] = r.Name
		if r.Parent > 0 {
			self[r.Parent-1] -= dur(r)
			root[i] = root[r.Parent-1]
		}
	}
	out := map[string]map[string][]float64{}
	for i, r := range recs {
		if out[root[i]] == nil {
			out[root[i]] = map[string][]float64{}
		}
		out[root[i]][r.Name] = append(out[root[i]][r.Name], max(self[i], 0))
	}
	return out
}

// writeTrace exports the tracer to path and reads it back through the same
// checks `lambdatune trace-summary -check` applies.
func writeTrace(tr *obs.Tracer, path string) ([]obs.SpanRecord, error) {
	if err := tr.WriteFile(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	recs, err := obs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading trace back: %w", err)
	}
	if err := obs.ValidateRecords(recs); err != nil {
		return nil, fmt.Errorf("trace %s fails the span schema: %w", path, err)
	}
	return recs, nil
}
