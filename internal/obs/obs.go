// Package obs is λ-Tune's run-scoped telemetry subsystem: hierarchical trace
// spans, a metrics registry, and live progress reporting. The paper's value
// claim is *bounded evaluation cost* (geometric timeouts, lazy index creation,
// DP scheduling), and obs makes that budget auditable — every tuning run can
// record where its virtual seconds went (LLM calls, query evaluation, index
// builds, scheduling) and drain the record to a JSONL trace file.
//
// Design constraints, in order:
//
//   - Passive. Tracing must never change tuning behavior: spans read the
//     virtual clock, they never advance it, and no instrumentation site takes
//     a decision based on telemetry. A traced run selects the same
//     configuration, byte for byte, as an untraced one.
//   - Deterministic. Span ordering and all span timestamps are derived from
//     the virtual clock and the instrumentation sites' deterministic call
//     order; host wall-clock times are carried as annotations only. Exported
//     traces of two runs with the same seed are identical after scrubbing the
//     wall fields (see ShapeString).
//   - Cheap and optional. A nil *Tracer, nil *Span, nil *Registry and nil
//     sink are all valid and turn every call into a no-op, so call sites need
//     no conditionals and an untraced run pays one nil check per site.
//
// Concurrency: the tracer's span list is guarded by one mutex, and each span
// carries its own (uncontended) mutex — parallel evaluation workers touch
// disjoint spans, but the detector-visible accesses stay synchronized. Trace
// shape stays deterministic under parallelism because every span's children
// are created by exactly one goroutine (see Records).
package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one typed span or event attribute. Construct with String, Int,
// Float or Bool so values stay JSON-friendly. Annot marks the attribute as a
// nondeterministic annotation: it is exported alongside the wall clocks but
// excluded from the deterministic trace shape.
type Attr struct {
	Key   string
	Value any
	Annot bool
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Annot marks an attribute as a nondeterministic annotation — a fact whose
// value legitimately depends on scheduling (cache hit/miss under a worker
// pool, host resource readings). Annotations ride in the JSONL export's
// annots field, next to the wall clocks, and ShapeString scrubs them; the
// shape goldens stay byte-stable at any parallelism.
func Annot(a Attr) Attr { a.Annot = true; return a }

// Event is a point-in-time occurrence inside a span (a retry, a breaker
// transition, an injected fault, a checkpoint save). Virt is its virtual
// timestamp; WallNS the host annotation (UnixNano, 0 = unset).
type Event struct {
	Name   string
	Virt   float64
	WallNS int64
	Attrs  []Attr
}

// spanAttrBuf sizes the inline attribute storage every span carries. The
// instrumentation sites attach at most four attributes to the hot span kinds
// (query: 4, index.build: 3, schedule: 3), so the inline buffer absorbs
// nearly every attribute without a heap allocation; the rare richer span
// (the run root) spills into attrExtra. Because Start and SetAttrs copy into
// this buffer instead of retaining the caller's variadic slice, the
// compiler's escape analysis keeps those call-site slices on the stack —
// the dominant per-span allocation before this layout.
const spanAttrBuf = 4

// Span is one node of the trace tree: a named operation with a virtual-clock
// interval, a host wall-clock interval (annotation only), typed attributes,
// and point events. Spans are created with Tracer.Start and closed with End;
// a nil *Span is valid and ignores every call.
type Span struct {
	tr     *Tracer
	parent *Span
	name   string

	mu        sync.Mutex
	virtStart float64
	virtEnd   float64
	// wallStartNS / wallEndNS are UnixNano host stamps (0 = unset). Stored
	// as integers, not time.Time: spans are allocated by the hundreds per
	// run, and the monotonic-clock and *Location fields of time.Time would
	// cost 32 bytes and a GC-scanned pointer per span for an
	// annotation-only value.
	wallStartNS int64
	wallEndNS   int64
	// attrKeys/attrVals store the inline attributes as parallel arrays
	// rather than [spanAttrBuf]Attr: packing drops the per-Attr Annot bool
	// (plus its 7 padding bytes) into one bitmask, shrinking every span by
	// 32 bytes — real money when a traced run allocates hundreds of spans.
	attrKeys  [spanAttrBuf]string
	attrVals  [spanAttrBuf]any
	id        int32 // creation index + 1, assigned under tr.mu at Start
	nattr     uint8
	annotBits uint8
	ended     bool
}

// spanExtra holds the rare per-span payloads — point events and attribute
// overflow past the inline buffer — off the Span itself. A typical trace
// records a handful of events and spills across hundreds of spans, so
// keeping these two slice headers out of every span saves 48 bytes per span
// in exchange for a tracer-side map entry on the few spans that need one.
type spanExtra struct {
	attrs  []Attr
	events []Event
}

// appendInline copies attrs into the span's inline buffers and returns the
// overflow tail (a view into attrs, not retained). Callers hold s.mu (or
// the span is not yet published).
func (s *Span) appendInline(attrs []Attr) []Attr {
	i := 0
	for ; i < len(attrs) && int(s.nattr) < spanAttrBuf; i++ {
		s.attrKeys[s.nattr] = attrs[i].Key
		s.attrVals[s.nattr] = attrs[i].Value
		if attrs[i].Annot {
			s.annotBits |= 1 << s.nattr
		}
		s.nattr++
	}
	return attrs[i:]
}

// attrMaps folds the span's attributes (inline buffers plus any overflow)
// into the export maps (deterministic attributes and wall-clock
// annotations), later keys shadowing earlier ones. Returns nil maps when
// the span has no attributes of that kind. Callers hold s.mu.
func (s *Span) attrMaps(extra []Attr) (attrs, annots map[string]any) {
	n := int(s.nattr) + len(extra)
	if n == 0 {
		return nil, nil
	}
	add := func(key string, val any, annot bool) {
		if annot {
			if annots == nil {
				annots = make(map[string]any, n)
			}
			annots[key] = val
		} else {
			if attrs == nil {
				attrs = make(map[string]any, n)
			}
			attrs[key] = val
		}
	}
	for i := 0; i < int(s.nattr); i++ {
		add(s.attrKeys[i], s.attrVals[i], s.annotBits&(1<<i) != 0)
	}
	for _, a := range extra {
		add(a.Key, a.Value, a.Annot)
	}
	return attrs, annots
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttrs appends attributes to the span. Later keys shadow earlier ones at
// export time, so re-setting a key is allowed.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	rest := s.appendInline(attrs)
	s.mu.Unlock()
	if len(rest) > 0 {
		s.tr.spill(s, rest)
	}
}

// Event records a point event at virtual time virt.
func (s *Span) Event(name string, virt float64, attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.tr
	wall := t.wallNow()
	t.mu.Lock()
	ex := t.extraLocked(s)
	ex.events = append(ex.events, Event{Name: name, Virt: virt, WallNS: wall, Attrs: attrs})
	t.mu.Unlock()
}

// End closes the span at virtual time virt. The first End wins; further calls
// are ignored, so defensive double-ends on error paths are harmless.
func (s *Span) End(virt float64) {
	if s == nil {
		return
	}
	wall := s.tr.wallNow()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.virtEnd = virt
		s.wallEndNS = wall
	}
	s.mu.Unlock()
}

// Tracer records one run's spans. The zero value is not usable; construct
// with NewTracer. A nil *Tracer is valid: Start returns a nil span and every
// derived call becomes a no-op.
// spanArena batches span allocation: a tuning run starts hundreds of tiny
// spans, and carving them out of fixed-size chunks instead of one heap object
// each keeps the traced run's GC object count (and with it the mark cost the
// telemetry phase pays in E17) close to the untraced run's. Chunks are never
// grown in place, so handed-out *Span pointers stay stable.
const spanArena = 64

type Tracer struct {
	mu   sync.Mutex
	root *Span
	// chunks holds the filled arena chunks and arena the one being carved;
	// together they store every span in creation order, so the tracer needs
	// no separate []*Span index — exports walk the chunks directly and a
	// span's creation ID lives on the span itself. Guarded by mu.
	chunks    [][]Span
	arena     []Span
	arenaUsed int
	nspans    int
	// extras maps the few spans carrying events or attribute overflow to
	// their off-span payload. Lazily allocated; guarded by mu.
	extras map[*Span]*spanExtra

	// now supplies host wall timestamps; replaceable for tests. Held in an
	// atomic rather than under mu: every Start/End/Event reads the clock, and
	// parallel evaluation workers would otherwise serialize on the tracer
	// mutex just to take a wall annotation.
	now atomic.Pointer[func() time.Time]
}

// NewTracer returns an empty run tracer.
func NewTracer() *Tracer {
	t := &Tracer{}
	f := time.Now
	t.now.Store(&f)
	return t
}

// SetWallClock replaces the host wall-clock source (tests pin it to make the
// full export, not just the shape, reproducible).
func (t *Tracer) SetWallClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.now.Store(&now)
}

// wallNow reads the host clock as UnixNano, or 0 when the clock source
// yields the zero time (matching the "unset" convention of the span fields).
func (t *Tracer) wallNow() int64 {
	if t == nil {
		return 0
	}
	f := t.now.Load()
	if f == nil {
		return 0
	}
	tm := (*f)()
	if tm.IsZero() {
		return 0
	}
	return tm.UnixNano()
}

// Start opens a span under parent (nil parent = a root span) at virtual time
// virt. The first root span becomes Root(). Returns nil when the tracer is
// nil.
func (t *Tracer) Start(parent *Span, name string, virt float64, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	wall := t.wallNow()
	t.mu.Lock()
	if t.arenaUsed == len(t.arena) {
		if t.arenaUsed > 0 {
			t.chunks = append(t.chunks, t.arena)
		}
		t.arena = make([]Span, spanArena)
		t.arenaUsed = 0
	}
	s := &t.arena[t.arenaUsed]
	t.arenaUsed++
	t.nspans++
	// Field-by-field init (not a struct literal assignment): the slot is
	// fresh zeroed arena memory, and copying a Span value would copy its
	// mutex.
	s.tr = t
	s.parent = parent
	s.name = name
	s.id = int32(t.nspans)
	s.virtStart = virt
	s.virtEnd = virt
	s.wallStartNS = wall
	if rest := s.appendInline(attrs); len(rest) > 0 {
		t.spillLocked(s, rest)
	}
	if t.root == nil && parent == nil {
		t.root = s
	}
	t.mu.Unlock()
	return s
}

// extraLocked returns (allocating on first use) the span's off-span payload.
// Callers hold t.mu.
func (t *Tracer) extraLocked(s *Span) *spanExtra {
	ex := t.extras[s]
	if ex == nil {
		if t.extras == nil {
			t.extras = make(map[*Span]*spanExtra)
		}
		ex = &spanExtra{}
		t.extras[s] = ex
	}
	return ex
}

// spill appends attribute overflow to the span's off-span payload.
func (t *Tracer) spill(s *Span, rest []Attr) {
	t.mu.Lock()
	t.spillLocked(s, rest)
	t.mu.Unlock()
}

func (t *Tracer) spillLocked(s *Span, rest []Attr) {
	ex := t.extraLocked(s)
	ex.attrs = append(ex.attrs, rest...)
}

// snapshot returns stable views of every span created so far, in creation
// order, plus a by-value copy of the off-span payload map. Chunk backing
// arrays never move or shrink once allocated, so the views stay valid after
// the lock is released; a concurrent Start only writes slots past the
// returned prefix, and a concurrent spill/Event only writes payload slots
// past the copied slice lengths.
func (t *Tracer) snapshot() ([][]Span, map[*Span]spanExtra) {
	t.mu.Lock()
	views := make([][]Span, 0, len(t.chunks)+1)
	views = append(views, t.chunks...)
	if t.arenaUsed > 0 {
		views = append(views, t.arena[:t.arenaUsed])
	}
	var extras map[*Span]spanExtra
	if len(t.extras) > 0 {
		extras = make(map[*Span]spanExtra, len(t.extras))
		for s, ex := range t.extras {
			extras[s] = *ex
		}
	}
	t.mu.Unlock()
	return views, extras
}

// Root returns the first root span (the "run" span in a tuning run), or nil.
// The fault injector attaches its LLM fault events here; engine fault events
// go on the candidate span that met them.
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nspans
}

// Records flattens the trace into export records in deterministic order:
// depth-first over the span tree, children in creation order. Creation order
// per parent is deterministic even under parallel evaluation because every
// span's children are created by exactly one goroutine (the selector creates
// candidate spans before dispatch; each candidate's query/index spans are
// created by the one worker that owns the task). IDs are assigned in
// traversal order, so two runs with the same seed export identical records up
// to the wall-clock annotation fields.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	views, extras := t.snapshot()
	var total int
	for _, v := range views {
		total += len(v)
	}

	children := make(map[*Span][]*Span, total)
	var roots []*Span
	for _, v := range views {
		for i := range v {
			s := &v[i]
			if s.parent == nil {
				roots = append(roots, s)
				continue
			}
			children[s.parent] = append(children[s.parent], s)
		}
	}

	out := make([]SpanRecord, 0, total)
	var walk func(s *Span, parentID int)
	walk = func(s *Span, parentID int) {
		id := len(out) + 1
		out = append(out, s.record(id, parentID, extras[s]))
		for _, c := range children[s] {
			walk(c, id)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// record snapshots the span into an export record. ex carries the span's
// off-span payload (events, attribute overflow), already copied out of the
// tracer by snapshot.
func (s *Span) record(id, parent int, ex spanExtra) SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := SpanRecord{
		ID:        id,
		Parent:    parent,
		Name:      s.name,
		VirtStart: s.virtStart,
		VirtEnd:   s.virtEnd,
	}
	r.WallStartNS = s.wallStartNS
	r.WallEndNS = s.wallEndNS
	if r.VirtEnd < r.VirtStart {
		r.VirtEnd = r.VirtStart
	}
	r.Attrs, r.Annots = s.attrMaps(ex.attrs)
	for _, ev := range ex.events {
		er := EventRecord{Name: ev.Name, Virt: ev.Virt, WallNS: ev.WallNS}
		if len(ev.Attrs) > 0 {
			er.Attrs = attrMap(ev.Attrs)
			er.Annots = annotMap(ev.Attrs)
		}
		r.Events = append(r.Events, er)
	}
	return r
}

// attrMap folds the deterministic attributes of an ordered list into a map;
// later keys shadow earlier ones. Annotations are split off by annotMap.
func attrMap(attrs []Attr) map[string]any {
	var m map[string]any
	for _, a := range attrs {
		if a.Annot {
			continue
		}
		if m == nil {
			m = make(map[string]any, len(attrs))
		}
		m[a.Key] = a.Value
	}
	return m
}

// annotMap folds the annotation attributes into their own map, or nil when
// there are none.
func annotMap(attrs []Attr) map[string]any {
	var m map[string]any
	for _, a := range attrs {
		if !a.Annot {
			continue
		}
		if m == nil {
			m = make(map[string]any)
		}
		m[a.Key] = a.Value
	}
	return m
}

// ShapeString renders records as an indented span tree with names, sorted
// attributes, virtual timestamps and events — every deterministic field — and
// scrubs the annotations (wall clocks and Annot-marked attributes). Two runs
// with the same seed produce byte-identical shape strings at any
// parallelism; the golden trace test pins this.
func ShapeString(recs []SpanRecord) string {
	depth := map[int]int{}
	var b strings.Builder
	for _, r := range recs {
		d := 0
		if r.Parent != 0 {
			d = depth[r.Parent] + 1
		}
		depth[r.ID] = d
		indent := strings.Repeat("  ", d)
		fmt.Fprintf(&b, "%s%s [%.9g,%.9g]%s\n", indent, r.Name, r.VirtStart, r.VirtEnd, attrString(r.Attrs))
		for _, ev := range r.Events {
			fmt.Fprintf(&b, "%s  @%.9g %s%s\n", indent, ev.Virt, ev.Name, attrString(ev.Attrs))
		}
	}
	return b.String()
}

// attrString renders attributes sorted by key as " k=v ...".
func attrString(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v := attrs[k]
		if f, ok := v.(float64); ok {
			fmt.Fprintf(&b, " %s=%.9g", k, f)
			continue
		}
		fmt.Fprintf(&b, " %s=%v", k, v)
	}
	return b.String()
}

// ctxKey carries the active span through context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying span; layers below the
// instrumentation site (the resilient LLM client) retrieve it with
// SpanFromContext to attach their events.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, span)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
