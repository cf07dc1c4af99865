package window

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/value"
)

// oddCells is a pool of group cells whose Encode identity is easy to
// get wrong: NaN payloads (all print "NaN"), -0 next to 0, an int and
// a float of one number, times equal to the UTC second but not to the
// nanosecond or zone, pre-1970 sub-second times (floor, not truncation),
// times out of UnixNano range, and lists that print alike from cells of
// different kinds.
func oddCells() []value.Value {
	tokyo := time.FixedZone("JST", 9*3600)
	ny := time.FixedZone("EST", -5*3600)
	base := time.Date(2011, 6, 12, 10, 0, 0, 0, time.UTC)
	pre := time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC)
	return []value.Value{
		value.Null(),
		value.Bool(false), value.Bool(true),
		value.Int(0), value.Int(1), value.Int(-1),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(-1),
		value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8000000000002)),
		value.Float(math.Float64frombits(0xfff0000000000001)),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Float(0.1),
		value.String(""), value.String("1"), value.String("tokyo"), value.String("capetown"),
		value.String("int:1"), value.String("NaN"),
		value.Time(base), value.Time(base.Add(400 * time.Millisecond)), value.Time(base.Add(time.Second)),
		value.Time(base.In(tokyo)), value.Time(base.Add(999 * time.Millisecond).In(ny)),
		value.Time(time.Unix(0, 0).UTC()), value.Time(time.Time{}),
		value.Time(pre), value.Time(pre.Add(500 * time.Millisecond)), value.Time(pre.Add(-500 * time.Millisecond)),
		value.Time(time.Date(2500, 1, 1, 0, 0, 0, 7, time.UTC)), value.Time(time.Date(2500, 1, 1, 0, 0, 0, 0, tokyo)),
		value.Time(time.Date(-50, 3, 1, 0, 0, 0, 5, time.UTC)),
		value.List(nil), value.List([]value.Value{value.Int(1)}), value.List([]value.Value{value.Float(1)}),
		value.List([]value.Value{value.String("1")}), value.List([]value.Value{value.String("a"), value.Null()}),
		value.List([]value.Value{value.String("a, NULL")}),
	}
}

// renderCell spells out a cell in full, beyond what String shows, so a
// bucket that kept a different first-seen value shows in the diff.
func renderCell(v value.Value) string {
	switch v.Kind() {
	case value.KindFloat:
		return fmt.Sprintf("float(%#x)", math.Float64bits(v.Num()))
	case value.KindTime:
		t := v.TimeRaw()
		return fmt.Sprintf("time(%s %s)", t.Format(time.RFC3339Nano), t.Location())
	case value.KindList:
		l, _ := v.ListVal()
		parts := make([]string, len(l))
		for i, e := range l {
			parts[i] = renderCell(e)
		}
		return "list[" + strings.Join(parts, " ") + "]"
	}
	return v.Kind().String() + "(" + v.String() + ")"
}

func renderBuckets(bs []*Bucket) string {
	var b strings.Builder
	for _, bk := range bs {
		fmt.Fprintf(&b, "[%s %s %s) key=%q vals=", bk.Span.Start.Format(time.RFC3339Nano), bk.Span.Start.Location(), bk.Span.End.Format(time.RFC3339Nano), bk.Key)
		for _, v := range bk.GroupVals {
			b.WriteString(renderCell(v) + " ")
		}
		fmt.Fprintf(&b, "rows=%d early=%v at=%s aggs=", bk.Rows, bk.EmittedEarly, bk.EarlyAt.Format(time.RFC3339Nano))
		for _, a := range bk.Aggs {
			b.WriteString(renderCell(a.Result()) + " ")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// bucketManager is what the differential drives on both sides.
type bucketManager interface {
	Observe(ts time.Time, groupVals []value.Value, mkAggs func() []agg.Func, fold func(*Bucket)) []*Bucket
	Advance(watermark time.Time) []*Bucket
	Flush() []*Bucket
	OpenBuckets() int
}

func TestManagerMatchesOracle(t *testing.T) {
	type config struct {
		name        string
		size, every time.Duration
		groups      int // group cells per row; 0 = no GROUP BY
		conf        bool
		// zones, when set, are the manager's event-time zones, row i
		// in zones[i%len(zones)]. The oracle, whose spans are keyed by
		// time.Time, sees the same instants in UTC, and the manager
		// must emit what it emits: one window per instant, in UTC.
		zones []*time.Location
	}
	est, ist := time.FixedZone("EST", -5*3600), time.FixedZone("IST", 5*3600+1800)
	configs := []config{
		{"tumbling", 5 * time.Minute, 0, 1, false, nil},
		{"tumbling two cells", 5 * time.Minute, 0, 2, false, nil},
		{"tumbling zoned event times", 5 * time.Minute, 0, 1, false, []*time.Location{est}},
		{"tumbling mixed zones", time.Minute, 0, 1, false, []*time.Location{est, time.UTC, ist}},
		{"sliding", 10 * time.Minute, 2 * time.Minute, 1, false, nil},
		{"sliding zoned event times", 10 * time.Minute, 2 * time.Minute, 1, false, []*time.Location{ist}},
		{"sliding mixed zones", 10 * time.Minute, 2 * time.Minute, 1, false, []*time.Location{ist, est}},
		{"sliding with gaps", 2 * time.Minute, 5 * time.Minute, 1, false, nil},
		{"no group by", 5 * time.Minute, 0, 0, false, nil},
		{"no group by sliding", 6 * time.Minute, 3 * time.Minute, 0, false, nil},
		{"whole stream", 1<<62 - 1, 0, 1, false, nil},
		{"confidence", 30 * time.Minute, 0, 1, true, nil},
		{"confidence sliding", 30 * time.Minute, 10 * time.Minute, 2, true, nil},
	}
	cells := oddCells()
	mkAggs := func() []agg.Func {
		c, _ := agg.New("COUNT", true)
		a, _ := agg.New("AVG", false)
		return []agg.Func{c, a}
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				got, want := NewManager(cfg.size, cfg.every), newOracleManager(cfg.size, cfg.every)
				if cfg.conf {
					got.EnableConfidence(0.95, 0.3)
					got.SetConfidenceMinSamples(5)
					want.EnableConfidence(0.95, 0.3)
					want.SetConfidenceMinSamples(5)
				}
				ms := []bucketManager{got, want}
				ts := time.Date(2011, 6, 12, 10, 0, 0, 0, time.UTC)
				// One scratch slice reused across rows, as aggState does.
				scratch := make([]value.Value, cfg.groups)
				for i := 0; i < 3000; i++ {
					// Mostly forward in event time, sometimes late.
					ts = ts.Add(time.Duration(rng.Intn(4000)-500) * time.Millisecond)
					rowTS := ts
					if len(cfg.zones) > 0 {
						rowTS = ts.In(cfg.zones[i%len(cfg.zones)])
					}
					for j := range scratch {
						scratch[j] = cells[rng.Intn(len(cells))]
					}
					x := rng.Float64()
					if rng.Intn(2) == 0 {
						x = 0.5
					}
					fold := func(b *Bucket) {
						b.Aggs[0].Add(value.Int(1))
						b.Aggs[1].Add(value.Float(x))
					}
					var out [2]string
					for k, m := range ms {
						at := rowTS
						if k == 1 {
							at = rowTS.UTC()
						}
						out[k] = renderBuckets(m.Observe(at, scratch, mkAggs, fold)) + "|" + renderBuckets(m.Advance(at))
					}
					if out[0] != out[1] {
						t.Fatalf("row %d: manager\n%s\noracle\n%s", i, out[0], out[1])
					}
					if a, b := got.OpenBuckets(), want.OpenBuckets(); a != b {
						t.Fatalf("row %d: open buckets %d, oracle %d", i, a, b)
					}
				}
				if a, b := renderBuckets(got.Flush()), renderBuckets(want.Flush()); a != b {
					t.Fatalf("flush: manager\n%s\noracle\n%s", a, b)
				}
			})
		}
	}
}

// TestSeparatorCellsStayApart pins the typed identity where Encode's
// rendering collides: ("x\x1fstring:y", "z") and ("x", "y\x1fstring:z")
// render to the same Key but are two groups. Buckets with equal Keys
// close in creation order.
func TestSeparatorCellsStayApart(t *testing.T) {
	a := []value.Value{value.String("x\x1fstring:y"), value.String("z")}
	b := []value.Value{value.String("x"), value.String("y\x1fstring:z")}
	if Encode(a) != Encode(b) {
		t.Fatalf("keys differ: %q %q", Encode(a), Encode(b))
	}
	m := NewManager(time.Hour, 0)
	fold := func(bk *Bucket) { bk.Aggs[0].Add(value.Int(1)) }
	m.Observe(epoch.Add(time.Minute), b, mkCountAvg, fold)
	m.Observe(epoch.Add(2*time.Minute), a, mkCountAvg, fold)
	m.Observe(epoch.Add(3*time.Minute), b, mkCountAvg, fold)
	closed := m.Flush()
	if len(closed) != 2 {
		t.Fatalf("buckets = %d, want 2", len(closed))
	}
	if !value.SameKey(closed[0].GroupVals, b) || closed[0].Rows != 2 || !value.SameKey(closed[1].GroupVals, a) || closed[1].Rows != 1 {
		t.Errorf("closed = %s", renderBuckets(closed))
	}
}

var oddPool = oddCells()

// keyGen decodes fuzz bytes into cells.
type keyGen struct{ data []byte }

func (g *keyGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// cell decodes one cell; ok is false for a string holding the "\x1f"
// separator, which Encode cannot keep apart from a cell boundary (see
// TestSeparatorCellsStayApart), so Encode-equality is no oracle there.
func (g *keyGen) cell(depth int) (value.Value, bool) {
	switch k := g.byte(); k % 8 {
	case 0:
		return oddPool[int(g.byte())%len(oddPool)], true
	case 1:
		return value.Null(), true
	case 2:
		return value.Bool(g.byte()&1 == 1), true
	case 3:
		return value.Int(int64(int8(g.byte()))), true
	case 4:
		var w uint64
		for i := 0; i < 8; i++ {
			w = w<<8 | uint64(g.byte())
		}
		if k&8 != 0 {
			// Small numbers, where ints and floats meet.
			return value.Float(float64(int8(w))), true
		}
		return value.Float(math.Float64frombits(w)), true
	case 5:
		n := int(g.byte() % 4)
		s := make([]byte, n)
		for i := range s {
			s[i] = g.byte()
		}
		return value.String(string(s)), !strings.Contains(string(s), "\x1f")
	case 6:
		// Seconds near each other and near 1970, nanoseconds, zones.
		sec := int64(int8(g.byte()))
		if k&8 != 0 {
			sec += 1307872800 // June 2011
		}
		ns := int64(g.byte()) * 3_900_000
		t := time.Unix(sec, ns)
		switch g.byte() % 3 {
		case 0:
			t = t.UTC()
		case 1:
			t = t.In(time.FixedZone("IST", 5*3600+1800))
		}
		return value.Time(t), true
	default:
		if depth > 0 {
			return value.Null(), true
		}
		n := int(g.byte() % 3)
		l := make([]value.Value, n)
		for i := range l {
			v, ok := g.cell(depth + 1)
			if !ok {
				return value.Null(), false
			}
			l[i] = v
		}
		return value.List(l), true
	}
}

func (g *keyGen) cells() ([]value.Value, bool) {
	n := int(g.byte() % 4)
	vs := make([]value.Value, n)
	for i := range vs {
		v, ok := g.cell(0)
		if !ok {
			return nil, false
		}
		vs[i] = v
	}
	return vs, true
}

// FuzzKeyMatchesEncode holds the typed group key to the rendered one:
// two runs of cells are the same key exactly when Encode renders them
// alike, and the same key hashes alike.
func FuzzKeyMatchesEncode(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 0, 3, 1})
	f.Add([]byte{1, 4, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 1, 4, 0xff, 0xf8, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{1, 6, 0, 10, 0, 1, 6, 0, 200, 1})
	f.Add([]byte{1, 12, 1, 1, 3, 1, 1, 4 | 8, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 7, 2, 3, 1, 5, 1, 'x', 2, 7, 2, 4 | 8, 0, 0, 0, 0, 0, 0, 0, 1, 5, 1, 'x'})
	h := value.NewHasher()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &keyGen{data: data}
		a, ok1 := g.cells()
		b, ok2 := g.cells()
		if !ok1 || !ok2 {
			return
		}
		same := value.SameKey(a, b)
		if enc := Encode(a) == Encode(b); same != enc {
			t.Fatalf("SameKey = %v, Encode-equal = %v\na=%q\nb=%q", same, enc, Encode(a), Encode(b))
		}
		if same != value.SameKey(b, a) {
			t.Fatal("SameKey not symmetric")
		}
		if same && h.Cells(a) != h.Cells(b) {
			t.Fatalf("same key, different hashes: %q", Encode(a))
		}
	})
}
