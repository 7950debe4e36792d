package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// The span encoder writes the JSONL export straight from the tracer's spans.
// Each line is byte for byte what json.Encoder.Encode writes for the span's
// SpanRecord — field order and omitempty rules, attribute maps with sorted
// keys, encoding/json's float and string spellings — without building the
// record, its maps or a reflective encoder state. TestWriteJSONLMatchesReference
// and FuzzTraceExport hold it to the record-form encoder.

// exportChunk is the least the encoder hands to the writer at once: lines
// collect in one buffer that goes out whenever it reaches this size, so a
// trace of hundreds of spans takes a few writes, not one per line.
const exportChunk = 32 << 10

// maxPooledExport caps the buffer an exporter keeps between exports, so one
// export with a giant line does not pin its buffer for good.
const maxPooledExport = 256 << 10

// exporter is one export's reusable scratch: the output buffer, the walk's
// index arrays and the attribute lists of the line being encoded.
type exporter struct {
	buf   []byte
	lines int // complete lines in buf
	sent  int // lines handed to the writer
	idx   []int32
	kv    []Attr
	kind  []Attr
}

var exporterPool = sync.Pool{New: func() any { return new(exporter) }}

func getExporter() *exporter { return exporterPool.Get().(*exporter) }

// startWrite readies the output buffer for one export; Summarize borrows an
// exporter for its walk alone and never sizes one.
func (x *exporter) startWrite() {
	if cap(x.buf) < 2*exportChunk {
		x.buf = make([]byte, 0, 2*exportChunk)
	}
	x.buf, x.lines, x.sent = x.buf[:0], 0, 0
}

func putExporter(x *exporter) {
	if cap(x.buf) > maxPooledExport {
		return
	}
	clear(x.kv[:cap(x.kv)])
	clear(x.kind[:cap(x.kind)])
	exporterPool.Put(x)
}

// spanAt returns the span at creation index i. Every arena chunk but the
// last holds exactly spanArena spans (see Tracer.Start).
func spanAt(views [][]Span, i int32) *Span {
	return &views[uint32(i)/spanArena][uint32(i)%spanArena]
}

// walk returns the creation indexes of the spans in views in export order —
// depth-first from each root in creation order, children in creation order,
// the order Records numbers them — and each one's parent export id (0 for a
// root). A span's parent sits at creation index parent.id−1, before the span
// itself, so three passes over the creation order place every span without a
// child map: subtree sizes back to front, then each span at its parent's
// next free slot, front to back. A span whose parent belongs to another
// tracer hangs under no root here, nor do its descendants; Records drops
// them alike.
func (x *exporter) walk(t *Tracer, views [][]Span) (ord, par []int32) {
	n := 0
	for _, v := range views {
		n += len(v)
	}
	need := 5*n + 1
	if cap(x.idx) < need {
		x.idx = make([]int32, need)
	}
	s := x.idx[:need]
	// up[i] is span i's parent index, n for a root, -1 for a foreign
	// parent; size[i] its subtree size, then the next free export slot
	// among its children; size[n] counts the roots' slots.
	up, size, id := s[:n], s[n:2*n+1], s[2*n+1:3*n+1]
	ord, par = s[3*n+1:4*n+1], s[4*n+1:5*n+1]
	root := int32(n)
	c := 0
	for _, v := range views {
		for k := range v {
			up[c] = root
			if p := v[k].parent; p != nil {
				up[c] = p.id - 1
				if p.tr != t {
					up[c] = -1
				}
			}
			c++
		}
	}
	clear(size)
	for i := n - 1; i >= 0; i-- {
		size[i]++
		if p := up[i]; p >= 0 {
			size[p] += size[i]
		}
	}
	size[root] = 0
	placed := 0
	for i := range up {
		p := up[i]
		if p < 0 || p != root && id[p] == 0 {
			id[i] = 0 // a foreign parent at or above it: not exported
			continue
		}
		slot := size[p]
		size[p] += size[i]
		size[i] = slot + 1
		id[i] = slot + 1
		ord[slot] = int32(i)
		par[slot] = 0
		if p != root {
			par[slot] = id[p]
		}
		placed++
	}
	return ord[:placed], par[:placed]
}

// WriteJSONL writes the tracer's spans to w as JSONL, one SpanRecord per
// line in Records' depth-first order and numbering. A value encoding/json
// cannot encode (a NaN or infinite float) stops the export with
// json.Marshal's error for it, after every complete line before it.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	views, extras := t.snapshot()
	x := getExporter()
	defer putExporter(x)
	x.startWrite()
	ord, par := x.walk(t, views)
	for k, i := range ord {
		s := spanAt(views, i)
		if err := x.line(w, s, k+1, int(par[k]), extras[s]); err != nil {
			return err
		}
	}
	return x.flush(w)
}

// WriteCreationJSONL writes the spans created after the first since in
// creation order — the order the run emitted them — with stable ids: a span's
// id is its creation index + 1, and its parent's id the same way. Parents
// precede children, so every prefix of the output is a well-formed trace, and
// a live stream polls with since = the lines it has sent. Open spans report
// virt_end = virt_start. It returns the number of complete lines w accepted,
// which may fall short of the spans on an error.
func (t *Tracer) WriteCreationJSONL(w io.Writer, since int) (int, error) {
	if t == nil {
		return 0, nil
	}
	views, extras := t.snapshot()
	x := getExporter()
	defer putExporter(x)
	x.startWrite()
	n := 0
	for _, v := range views {
		n += len(v)
	}
	for i := max(since, 0); i < n; i++ {
		s := spanAt(views, int32(i))
		parent := 0
		if s.parent != nil {
			parent = int(s.parent.id)
		}
		if err := x.line(w, s, int(s.id), parent, extras[s]); err != nil {
			return x.sent, err
		}
	}
	err := x.flush(w)
	return x.sent, err
}

// line appends span s's export line and hands the buffer to w once it holds
// exportChunk bytes. On an encoding error it drops the partial line, writes
// the complete ones and returns the encoding error (or the write's).
func (x *exporter) line(w io.Writer, s *Span, id, parent int, ex spanExtra) error {
	start := len(x.buf)
	b, err := x.appendSpan(x.buf, s, id, parent, ex)
	if err != nil {
		x.buf = x.buf[:start]
		if werr := x.flush(w); werr != nil {
			return werr
		}
		return err
	}
	x.buf = b
	x.lines++
	if len(x.buf) >= exportChunk {
		return x.flush(w)
	}
	return nil
}

// flush hands the buffered lines to w and counts the complete lines it
// accepted.
func (x *exporter) flush(w io.Writer) error {
	if len(x.buf) == 0 {
		return nil
	}
	n, err := w.Write(x.buf)
	if err != nil {
		x.sent += bytes.Count(x.buf[:n], []byte{'\n'})
	} else {
		x.sent += x.lines
	}
	x.buf, x.lines = x.buf[:0], 0
	return err
}

// appendSpan appends the JSON line of span s under the given ids: the bytes
// json.Encoder.Encode writes for the SpanRecord record(id, parent, ex) builds.
// The span is read under its own lock, as record reads it.
func (x *exporter) appendSpan(b []byte, s *Span, id, parent int, ex spanExtra) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, int64(parent), 10)
	b = append(b, `,"name":`...)
	b = appendString(b, s.name)
	b = append(b, `,"virt_start":`...)
	if b, err = appendFloat(b, s.virtStart); err != nil {
		return b, err
	}
	b = append(b, `,"virt_end":`...)
	virtEnd := s.virtEnd
	if virtEnd < s.virtStart {
		virtEnd = s.virtStart
	}
	if b, err = appendFloat(b, virtEnd); err != nil {
		return b, err
	}
	b = appendWall(b, `,"wall_start_ns":`, s.wallStartNS)
	b = appendWall(b, `,"wall_end_ns":`, s.wallEndNS)
	kv := x.kv[:0]
	for i := 0; i < int(s.nattr); i++ {
		kv = append(kv, Attr{Key: s.attrKeys[i], Value: s.attrVals[i], Annot: s.annotBits&(1<<i) != 0})
	}
	kv = append(kv, ex.attrs...)
	x.kv = kv
	if b, err = x.appendAttrs(b, kv); err != nil {
		return b, err
	}
	if len(ex.events) > 0 {
		b = append(b, `,"events":[`...)
		for j, ev := range ex.events {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = appendString(b, ev.Name)
			b = append(b, `,"virt":`...)
			if b, err = appendFloat(b, ev.Virt); err != nil {
				return b, err
			}
			b = appendWall(b, `,"wall_ns":`, ev.WallNS)
			if b, err = x.appendAttrs(b, ev.Attrs); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), nil
}

// appendWall appends an omitempty int64 field.
func appendWall(b []byte, field string, ns int64) []byte {
	if ns == 0 {
		return b
	}
	b = append(b, field...)
	return strconv.AppendInt(b, ns, 10)
}

// appendAttrs appends the "attrs" and "annots" maps of an ordered attribute
// list, each omitted when it has no entry.
func (x *exporter) appendAttrs(b []byte, attrs []Attr) ([]byte, error) {
	b, err := x.appendMap(b, `,"attrs":{`, attrs, false)
	if err != nil {
		return b, err
	}
	return x.appendMap(b, `,"annots":{`, attrs, true)
}

// appendMap appends the attributes of one kind (annotations or not) as a
// JSON object the way encoding/json writes a map[string]any: keys in
// ascending byte order, the last value set for a key winning. Nothing is
// appended when the list holds no attribute of that kind.
func (x *exporter) appendMap(b []byte, field string, attrs []Attr, annot bool) ([]byte, error) {
	kind := x.kind[:0]
	for _, a := range attrs {
		if a.Annot != annot {
			continue
		}
		// Stable insertion by key: equal keys keep their set order.
		kind = append(kind, a)
		j := len(kind) - 1
		for ; j > 0 && kind[j-1].Key > a.Key; j-- {
			kind[j] = kind[j-1]
		}
		kind[j] = a
	}
	x.kind = kind
	if len(kind) == 0 {
		return b, nil
	}
	b = append(b, field...)
	first := true
	for i, a := range kind {
		if i+1 < len(kind) && kind[i+1].Key == a.Key {
			continue // shadowed by a later set
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendString(b, a.Key)
		b = append(b, ':')
		var err error
		if b, err = appendValue(b, a.Value); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendValue appends an attribute value: the four kinds the attribute
// constructors build by type switch, anything else through json.Marshal.
func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case string:
		return appendString(b, v), nil
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	case float64:
		return appendFloat(b, v)
	case bool:
		return strconv.AppendBool(b, v), nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, data...), nil
}

// appendFloat appends f as encoding/json spells a float64: 'f' format, or
// 'e' with a two-digit negative exponent trimmed ("e-07" → "e-7") when
// |f| < 1e-6 or |f| ≥ 1e21. NaN and ±Inf return json.Marshal's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. A string of printable ASCII with
// no '"', '\\', '<', '>' or '&' needs no escape and is copied; any other goes
// through json.Marshal, so HTML escapes, U+FFFD for invalid UTF-8 and the
// U+2028/U+2029 escapes stay encoding/json's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			data, _ := json.Marshal(s)
			return append(b, data...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
