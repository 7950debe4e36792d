package obs

import (
	"encoding/json"
	"io"
)

// The record-form export the span encoder (encode.go) replaced, kept
// verbatim as the reference its tests compare against: WriteJSONL over
// Records is what Tracer.WriteJSONL wrote, and WriteJSONL over
// CreationRecords what the live trace stream wrote.

// WriteJSONL writes records to w, one JSON object per line.
func WriteJSONL(w io.Writer, recs []SpanRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// CreationRecords flattens the trace in span-creation order — the order the
// run emitted spans — with IDs that are stable as the trace grows: a span's ID
// is its creation index + 1 and never changes when later spans arrive, unlike
// Records' DFS renumbering. Parents always precede their children (a child is
// started under an already-created parent), so any prefix of the creation
// order is itself a well-formed trace, which is what lets a live stream emit
// records incrementally: callers poll with since = number of records already
// emitted and get only the new tail. Each record snapshots the span's state at
// call time; spans still open report virt_end == virt_start. The DFS export
// from Records remains the canonical completed-trace form.
func (t *Tracer) CreationRecords(since int) []SpanRecord {
	if t == nil {
		return nil
	}
	views, extras := t.snapshot()
	var total int
	for _, v := range views {
		total += len(v)
	}
	if since < 0 {
		since = 0
	}
	if since >= total {
		return nil
	}
	out := make([]SpanRecord, 0, total-since)
	idx := 0
	for _, v := range views {
		if idx+len(v) <= since {
			idx += len(v)
			continue
		}
		for i := range v {
			if idx++; idx <= since {
				continue
			}
			s := &v[i]
			parent := 0
			if s.parent != nil {
				parent = int(s.parent.id)
			}
			out = append(out, s.record(int(s.id), parent, extras[s]))
		}
	}
	return out
}
