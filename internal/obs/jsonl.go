package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SpanRecord is the JSONL export form of a span. IDs are assigned in
// depth-first traversal order (parent 0 = root), so a trace file is fully
// deterministic except for the wall_* and annots annotation fields. Map keys
// are written sorted, which keeps Attrs byte-stable too. Tracer.WriteJSONL
// writes these lines straight from the spans (encode.go); the struct is the
// form ReadJSONL parses them back into.
type SpanRecord struct {
	ID          int            `json:"id"`
	Parent      int            `json:"parent"`
	Name        string         `json:"name"`
	VirtStart   float64        `json:"virt_start"`
	VirtEnd     float64        `json:"virt_end"`
	WallStartNS int64          `json:"wall_start_ns,omitempty"`
	WallEndNS   int64          `json:"wall_end_ns,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
	Annots      map[string]any `json:"annots,omitempty"`
	Events      []EventRecord  `json:"events,omitempty"`
}

// EventRecord is the export form of a point event.
type EventRecord struct {
	Name   string         `json:"name"`
	Virt   float64        `json:"virt"`
	WallNS int64          `json:"wall_ns,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	Annots map[string]any `json:"annots,omitempty"`
}

// WriteFile drains the tracer to a JSONL trace file at path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	werr := t.WriteJSONL(bw)
	if e := bw.Flush(); werr == nil {
		werr = e
	}
	if e := f.Close(); werr == nil {
		werr = e
	}
	return werr
}

// ReadJSONL parses a JSONL trace stream back into records. Blank lines are
// skipped; any malformed line is an error.
func ReadJSONL(r io.Reader) ([]SpanRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []SpanRecord
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// ReadFile parses the JSONL trace file at path.
func ReadFile(path string) ([]SpanRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// ValidateRecords checks the span-schema invariants a well-formed trace
// export satisfies: ids strictly increase from 1 (which also rules out
// duplicates), every parent id refers to an earlier span (parents precede
// children in DFS order), virtual intervals are non-negative and well-ordered,
// virtual clocks are monotone down the tree (a child cannot start before its
// parent) and within a span (events at non-decreasing virtual times, never
// before the span opened), at least one root exists, and event names are
// non-empty. CI runs this over freshly produced traces, and the job trace
// endpoint runs it over every completed job's export.
func ValidateRecords(recs []SpanRecord) error {
	if len(recs) == 0 {
		return fmt.Errorf("trace is empty")
	}
	roots := 0
	for i, r := range recs {
		if r.ID != i+1 {
			return fmt.Errorf("span %d: id %d out of sequence (want %d)", i, r.ID, i+1)
		}
		if r.Name == "" {
			return fmt.Errorf("span %d: empty name", r.ID)
		}
		if r.Parent == 0 {
			roots++
		} else if r.Parent < 0 || r.Parent >= r.ID {
			return fmt.Errorf("span %d (%s): parent %d does not precede it", r.ID, r.Name, r.Parent)
		} else if ps := recs[r.Parent-1]; r.VirtStart < ps.VirtStart {
			return fmt.Errorf("span %d (%s): virt_start %g before parent %d (%s) start %g", r.ID, r.Name, r.VirtStart, ps.ID, ps.Name, ps.VirtStart)
		}
		if r.VirtStart < 0 {
			return fmt.Errorf("span %d (%s): negative virt_start %g", r.ID, r.Name, r.VirtStart)
		}
		if r.VirtEnd < r.VirtStart {
			return fmt.Errorf("span %d (%s): virt_end %g < virt_start %g", r.ID, r.Name, r.VirtEnd, r.VirtStart)
		}
		prev := r.VirtStart
		for _, ev := range r.Events {
			if ev.Name == "" {
				return fmt.Errorf("span %d (%s): event with empty name", r.ID, r.Name)
			}
			if ev.Virt < 0 {
				return fmt.Errorf("span %d (%s): event %s at negative virtual time %g", r.ID, r.Name, ev.Name, ev.Virt)
			}
			if ev.Virt < prev {
				return fmt.Errorf("span %d (%s): event %s at virtual time %g is non-monotonic (previous mark %g)", r.ID, r.Name, ev.Name, ev.Virt, prev)
			}
			prev = ev.Virt
		}
	}
	if roots == 0 {
		return fmt.Errorf("trace has no root span")
	}
	return nil
}
