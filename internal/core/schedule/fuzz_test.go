package schedule_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"lambdatune/internal/core/schedule"
	"lambdatune/internal/engine"
)

// An Order input as fuzz bytes. Every byte string decodes to a valid input,
// and reads past the end yield zeros:
//
//	n−1, d−1         one byte each: 1–130 queries over 1–192 indexes
//	class            odd: costs from {−1, 0, 1, 2}, one byte per index
//	                 even: a little-endian float64 per index, folded into
//	                 [0, 1e12] (see fuzzCost)
//	p−1              one byte: 1–130 distinct index sets
//	sets             p bitsets of ⌈d/8⌉ bytes, index i at bit i%8 of byte i/8
//	selectors        n bytes: query i holds set selector_i mod p
//
// Index i is t(c<i>), zero-padded, so ids in sorted-key order are the
// indexes in input order.

// fuzzReader reads bytes, and zeros past the end.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) word() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = r.next()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fuzzCost folds float64 bits into a finite cost in [0, 1e12].
func fuzzCost(u uint64) float64 {
	if v := math.Abs(math.Float64frombits(u)); v <= 1e12 {
		return v
	}
	return float64(u % 1e12)
}

func fuzzDef(i int) engine.IndexDef { return engine.NewIndexDef("t", fmt.Sprintf("c%03d", i)) }

// decodeOrderInput decodes fuzz bytes into an Order input.
func decodeOrderInput(data []byte) ([]*engine.Query, map[*engine.Query][]engine.IndexDef, schedule.IndexCost) {
	r := fuzzReader(data)
	n, d := 1+int(r.next())%130, 1+int(r.next())%192
	costs := make(map[string]float64, d)
	defs := make([]engine.IndexDef, d)
	small := r.next()%2 == 1
	for i := range defs {
		defs[i] = fuzzDef(i)
		if small {
			costs[defs[i].Key()] = float64(int(r.next()%4) - 1)
		} else {
			costs[defs[i].Key()] = fuzzCost(r.word())
		}
	}
	sets := make([][]engine.IndexDef, 1+int(r.next())%130)
	for s := range sets {
		var b byte
		for i, def := range defs {
			if i%8 == 0 {
				b = r.next()
			}
			if b&(1<<(i%8)) != 0 {
				sets[s] = append(sets[s], def)
			}
		}
	}
	queries := make([]*engine.Query, n)
	indexMap := make(map[*engine.Query][]engine.IndexDef, n)
	for i := range queries {
		queries[i] = &engine.Query{Name: fmt.Sprintf("q%d", i)}
		indexMap[queries[i]] = sets[int(r.next())%len(sets)]
	}
	return queries, indexMap, func(def engine.IndexDef) float64 { return costs[def.Key()] }
}

// encodeOrderInput is decodeOrderInput's inverse for inputs it can express:
// at most 130 queries over at most 192 distinct indexes, with costs in
// [0, 1e12] or, when one is negative, all in {−1, 0, 1, 2}. The indexes are
// renamed in sorted-key order, which leaves Order's permutation unchanged.
func encodeOrderInput(queries []*engine.Query, indexMap map[*engine.Query][]engine.IndexDef, cost schedule.IndexCost) []byte {
	byKey := map[string]engine.IndexDef{}
	for _, q := range queries {
		for _, def := range indexMap[q] {
			byKey[def.Key()] = def
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	pos := make(map[string]int, len(keys))
	small := false
	for i, k := range keys {
		pos[k] = i
		small = small || cost(byKey[k]) < 0
	}
	d := max(len(keys), 1)
	out := []byte{byte(len(queries) - 1), byte(d - 1), 0}
	if small {
		out[2] = 1
	}
	for i := 0; i < d; i++ {
		c := 0.0
		if i < len(keys) {
			c = cost(byKey[keys[i]])
		}
		if small {
			out = append(out, byte(int(c)+1))
		} else {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c))
		}
	}
	var sets []string // distinct bitsets, as strings of ⌈d/8⌉ bytes
	selectors := make([]byte, len(queries))
	for i, q := range queries {
		row := make([]byte, (d+7)/8)
		for _, def := range indexMap[q] {
			p := pos[def.Key()]
			row[p/8] |= 1 << (p % 8)
		}
		s := slices.Index(sets, string(row))
		if s < 0 {
			s = len(sets)
			sets = append(sets, string(row))
		}
		selectors[i] = byte(s)
	}
	out = append(out, byte(len(sets)-1))
	for _, s := range sets {
		out = append(out, s...)
	}
	return append(out, selectors...)
}

// FuzzOrder: Order returns exactly the map-based reference's permutation on
// every input the fuzzer builds, seeded with orderInput's seed classes.
// Non-finite costs are outside its range, as IndexCreationSeconds never
// returns them.
func FuzzOrder(f *testing.F) {
	for seed := int64(0); seed < 44; seed++ {
		queries, indexMap, cost := orderInput(seed)
		f.Add(seed, encodeOrderInput(queries, indexMap, cost))
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		queries, indexMap, cost := decodeOrderInput(data)
		if err := sameOrder(schedule.Order(queries, indexMap, cost, seed), schedule.OrderReference(queries, indexMap, cost, seed)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOrderInputRoundTrip: an orderInput encoded as fuzz bytes decodes to an
// input Order orders the same way, so FuzzOrder's seeds are orderInput's.
func TestOrderInputRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 44; seed++ {
		queries, indexMap, cost := orderInput(seed)
		want := schedule.Order(queries, indexMap, cost, seed)
		dq, dm, dc := decodeOrderInput(encodeOrderInput(queries, indexMap, cost))
		got := schedule.Order(dq, dm, dc, seed)
		for i := range got {
			if got[i].Name != want[i].Name {
				t.Fatalf("seed %d: position %d holds %s after the round trip, %s before", seed, i, got[i].Name, want[i].Name)
			}
		}
	}
}
