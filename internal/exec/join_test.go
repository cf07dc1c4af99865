package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/value"
)

// nestedLoopJoin is Join's reference: every (left, right) pair whose
// keys are equal — same kind and value, never NULL — and whose event
// times are at most window apart, combined left then right.
func nestedLoopJoin(left, right []value.Tuple, key func(value.Tuple) value.Value, window time.Duration, out *value.Schema) []value.Tuple {
	var rows []value.Tuple
	for _, l := range left {
		lk := key(l)
		if lk.IsNull() {
			continue
		}
		for _, r := range right {
			rk := key(r)
			if rk.IsNull() || rk.Kind() != lk.Kind() || rk.String() != lk.String() {
				continue
			}
			if d := l.TS.Sub(r.TS); d > window || -d > window {
				continue
			}
			vals := append(append([]value.Value(nil), l.Values...), r.Values...)
			ts := l.TS
			if r.TS.After(ts) {
				ts = r.TS
			}
			rows = append(rows, value.NewTuple(out, vals, ts))
		}
	}
	return rows
}

// runJoin pushes left and right through j in batches of lsize and rsize
// rows and returns the output. While both sides have rows, leftNext
// picks the side pushed next.
func runJoin(j *Join, left, right []value.Tuple, lsize, rsize int, leftNext func() bool) []value.Tuple {
	var out []value.Tuple
	for len(left) > 0 || len(right) > 0 {
		if len(right) == 0 || len(left) > 0 && leftNext() {
			n := min(lsize, len(left))
			out = append(out, j.Push(context.Background(), left[:n:n], true, false)...)
			left = left[n:]
		} else {
			n := min(rsize, len(right))
			out = append(out, j.Push(context.Background(), right[:n:n], false, true)...)
			right = right[n:]
		}
	}
	return out
}

// joinStream is n rows whose keys are skewed towards a few hot values,
// sometimes NULL, and drift between int and string (3 and "3" must not
// join). Event times move forward; with disorder > 0 each row is set
// back by up to disorder, so a row may arrive up to that far behind its
// stream's newest one.
func joinStream(rng *rand.Rand, schema *value.Schema, side string, n int, disorder time.Duration) []value.Tuple {
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	ts := base
	rows := make([]value.Tuple, n)
	for i := range rows {
		ts = ts.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
		at := ts
		if disorder > 0 {
			at = ts.Add(-time.Duration(rng.Int63n(int64(disorder))))
		}
		k := int64(rng.Float64() * rng.Float64() * 12)
		var key value.Value
		switch r := rng.Intn(10); {
		case r == 0:
			key = value.Null()
		case r < 3:
			key = value.String(fmt.Sprint(k))
		default:
			key = value.Int(k)
		}
		rows[i] = value.NewTuple(schema, []value.Value{key, value.String(fmt.Sprintf("%s%d", side, i)), value.Int(int64(i))}, at)
	}
	return rows
}

// sortedStrings renders rows with their event times, sorted: a
// multiset fingerprint.
func sortedStrings(rows []value.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String() + "@" + r.TS.Format(time.RFC3339Nano)
	}
	sort.Strings(out)
	return out
}

// keepRows returns the rows whose n column satisfies keep.
func keepRows(rows []value.Tuple, keep func(n int64) bool) []value.Tuple {
	var out []value.Tuple
	for _, r := range rows {
		if n, _ := r.Values[2].IntVal(); keep(n) {
			out = append(out, r)
		}
	}
	return out
}

// TestJoinMatchesNestedLoop: Join's output multiset equals the
// nested-loop reference whatever the batch size of either side (1, 7 or
// 256 rows) and however the two sides interleave — pushed by the older
// side first, as the engine reads two finite sources, or at random —
// over streams in event-time order and streams disordered by up to the
// window, with and without conjuncts that name one side. No row is
// late, and each input row counts once toward RowsIn.
func TestJoinMatchesNestedLoop(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "k", Kind: value.KindNull}, value.Field{Name: "v", Kind: value.KindString}, value.Field{Name: "n", Kind: value.KindInt})
	key := func(t value.Tuple) value.Value { return t.Values[0] }
	ev := NewEvaluator(catalog.New())
	for _, tc := range []struct {
		name     string
		disorder time.Duration
		where    bool
	}{
		{"ordered", 0, false},
		{"disordered", 10 * time.Second, false},
		{"ordered side conjuncts", 0, true},
		{"disordered side conjuncts", 10 * time.Second, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := JoinConfig{
				LeftBinding: "a", RightBinding: "b",
				LeftKey:  &lang.Ident{Name: "k"},
				RightKey: &lang.Ident{Name: "k"},
				Window:   10 * time.Second,
			}
			keepL, keepR := func(int64) bool { return true }, func(int64) bool { return true }
			if tc.where {
				cfg.LeftWhere = []lang.Expr{whereExpr(t, "a.n % 3 != 0")}
				cfg.RightWhere = []lang.Expr{whereExpr(t, "b.n % 2 = 0"), whereExpr(t, "b.v != 'r4'")}
				keepL = func(n int64) bool { return n%3 != 0 }
				keepR = func(n int64) bool { return n%2 == 0 && n != 4 }
			}
			out := JoinSchema(schema, schema, cfg)
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				left := joinStream(rng, schema, "l", 400, tc.disorder)
				right := joinStream(rng, schema, "r", 300, tc.disorder)
				want := sortedStrings(nestedLoopJoin(keepRows(left, keepL), keepRows(right, keepR), key, cfg.Window, out))
				if len(want) == 0 {
					t.Fatal("reference join is empty; the test is vacuous")
				}
				for _, lsize := range []int{1, 7, 256} {
					for _, rsize := range []int{1, 7, 256} {
						for _, order := range []string{"older first", "random"} {
							stats := &Stats{}
							j := NewJoin(ev, cfg, schema, schema, stats)
							leftNext := func() bool { return !j.RightBehind() }
							if order == "random" {
								pick := rand.New(rand.NewSource(seed*100 + int64(lsize*10+rsize)))
								leftNext = func() bool { return pick.Intn(2) == 0 }
							}
							got := sortedStrings(runJoin(j, left, right, lsize, rsize, leftNext))
							where := fmt.Sprintf("seed %d, batches %d/%d, %s", seed, lsize, rsize, order)
							if len(got) != len(want) {
								t.Fatalf("%s: %d rows, reference %d", where, len(got), len(want))
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("%s: row %d = %s, reference %s", where, i, got[i], want[i])
								}
							}
							if in := stats.RowsIn.Load(); in != int64(len(left)+len(right)) {
								t.Errorf("%s: RowsIn = %d, want %d", where, in, len(left)+len(right))
							}
							if late := stats.LateRows.Load(); late != 0 {
								t.Errorf("%s: %d late rows, want 0", where, late)
							}
						}
					}
				}
			}
		})
	}
}

// TestJoinCountsLateRows: a row more than the window behind its side's
// newest row, once the other side has evicted past it, counts as late
// and joins what is still buffered.
func TestJoinCountsLateRows(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "k", Kind: value.KindInt})
	cfg := JoinConfig{LeftBinding: "a", RightBinding: "b", LeftKey: &lang.Ident{Name: "k"}, RightKey: &lang.Ident{Name: "k"}, Window: 10 * time.Second}
	stats := &Stats{}
	j := NewJoin(NewEvaluator(catalog.New()), cfg, schema, schema, stats)
	base := time.Unix(1_300_000_000, 0)
	at := func(k int64, sec int) Batch {
		return Batch{value.NewTuple(schema, []value.Value{value.Int(k)}, base.Add(time.Duration(sec)*time.Second))}
	}
	ctx := context.Background()
	j.Push(ctx, at(1, 0), false, true)   // right row at 0 s
	j.Push(ctx, at(2, 100), true, false) // left at 100 s evicts it
	if out := j.Push(ctx, at(1, 5), true, false); len(out) != 0 || stats.LateRows.Load() != 1 {
		t.Fatalf("left row 95 s behind: %d matches, %d late rows; want 0 and 1", len(out), stats.LateRows.Load())
	}
	j.Push(ctx, at(3, 95), false, true) // buffered, within reach
	if out := j.Push(ctx, at(3, 90), true, false); len(out) != 1 || stats.LateRows.Load() != 1 {
		t.Fatalf("left row within the window: %d matches, %d late rows; want 1 and 1", len(out), stats.LateRows.Load())
	}
}

// TestFutureRowDoesNotPinJoinState: one row dated a year ahead, then a
// long in-order stream. The head of a FIFO stops at that row until the
// other side's time reaches it; what is buffered must stay bounded all
// the same, in a self-join (the row is on both sides) and in a join of
// two streams (on one side).
func TestFutureRowDoesNotPinJoinState(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "k", Kind: value.KindInt})
	cfg := JoinConfig{LeftBinding: "a", RightBinding: "b", LeftKey: &lang.Ident{Name: "k"}, RightKey: &lang.Ident{Name: "k"}, Window: 10 * time.Second}
	base := time.Unix(1_300_000_000, 0)
	row := func(k int64, at time.Time) Batch {
		return Batch{value.NewTuple(schema, []value.Value{value.Int(k)}, at)}
	}
	for _, self := range []bool{true, false} {
		stats := &Stats{}
		j := NewJoin(NewEvaluator(catalog.New()), cfg, schema, schema, stats)
		ctx := context.Background()
		j.Push(ctx, row(0, base.Add(365*24*time.Hour)), true, self)
		most := 0
		for i := 1; i <= 20_000; i++ {
			at := base.Add(time.Duration(i) * time.Second)
			j.Push(ctx, row(int64(i), at), true, self)
			if !self {
				j.Push(ctx, row(int64(i), at), false, true)
			}
			for s := range j.sides {
				most = max(most, len(j.sides[s].fifo)-j.sides[s].head)
			}
		}
		// What a sweep keeps is two windows at one row a second (ends
		// included) and the far row; the FIFO grows to twice that and
		// the sweep's slack before the next. Without the sweep, 20 000
		// rows stay buffered.
		if live := 2*10 + 2; most > 2*live+64+1 {
			t.Errorf("self=%v: a side buffered %d rows", self, most)
		}
	}
}

// TestSelfJoinPushMatchesNestedLoop: pushing each batch of one stream
// to both sides — a self-join over one scan — joins every pair the
// reference does, each row with itself included, and counts each row
// once toward RowsIn.
func TestSelfJoinPushMatchesNestedLoop(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "k", Kind: value.KindNull}, value.Field{Name: "v", Kind: value.KindString}, value.Field{Name: "n", Kind: value.KindInt})
	cfg := JoinConfig{LeftBinding: "a", RightBinding: "b", LeftKey: &lang.Ident{Name: "k"}, RightKey: &lang.Ident{Name: "k"}, Window: 10 * time.Second}
	out := JoinSchema(schema, schema, cfg)
	rows := joinStream(rand.New(rand.NewSource(5)), schema, "s", 500, 5*time.Second)
	want := sortedStrings(nestedLoopJoin(rows, rows, func(t value.Tuple) value.Value { return t.Values[0] }, cfg.Window, out))
	for _, size := range []int{1, 64} {
		stats := &Stats{}
		j := NewJoin(NewEvaluator(catalog.New()), cfg, schema, schema, stats)
		var out []value.Tuple
		for lo := 0; lo < len(rows); lo += size {
			out = append(out, j.Push(context.Background(), rows[lo:min(lo+size, len(rows))], true, true)...)
		}
		got := sortedStrings(out)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("batches of %d: %d rows, reference %d", size, len(got), len(want))
		}
		if in := stats.RowsIn.Load(); in != int64(len(rows)) {
			t.Errorf("batches of %d: RowsIn = %d, want %d", size, in, len(rows))
		}
	}
}

// benchJoinStreams are n rows a side, one a millisecond, whose keys
// take `keys` distinct values a side. Left row i has key i%keys. Right
// row i has the same key when i is a multiple of 10 000/keys, and
// otherwise one the left side never has (keys + i%keys). With a 10 s
// window a row thus has about one match at every key count, while each
// side buffers some 10 000 rows under up to `keys` keys.
func benchJoinStreams(schema *value.Schema, keys, n int) (left, right []value.Tuple) {
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	every := max(1, 10_000/keys)
	left, right = make([]value.Tuple, n), make([]value.Tuple, n)
	for i := range n {
		ts := base.Add(time.Duration(i) * time.Millisecond)
		k := int64(i % keys)
		left[i] = value.NewTuple(schema, []value.Value{value.Int(k), value.Int(int64(i))}, ts)
		if i%every != 0 {
			k += int64(keys)
		}
		right[i] = value.NewTuple(schema, []value.Value{value.Int(k), value.Int(int64(i))}, ts)
	}
	return left, right
}

// BenchmarkJoin joins two 30 000-row streams (benchJoinStreams) over 1,
// 100 and 10 000 distinct keys, pushing the sides a batch of 1 or 256
// rows at a time, the older side first. One op is the whole join;
// ns/tuple divides its time by the 60 000 rows pushed. The cost of a
// row should not grow with the number of keys buffered.
func BenchmarkJoin(b *testing.B) {
	schema := value.NewSchema(value.Field{Name: "k", Kind: value.KindNull}, value.Field{Name: "n", Kind: value.KindInt})
	cfg := JoinConfig{LeftBinding: "a", RightBinding: "b", LeftKey: &lang.Ident{Name: "k"}, RightKey: &lang.Ident{Name: "k"}, Window: 10 * time.Second}
	ev := NewEvaluator(catalog.New())
	const n = 30_000
	for _, keys := range []int{1, 100, 10_000} {
		left, right := benchJoinStreams(schema, keys, n)
		for _, size := range []int{1, 256} {
			b.Run(fmt.Sprintf("keys=%d/batch=%d", keys, size), func(b *testing.B) {
				b.ReportAllocs()
				matched := 0
				for range b.N {
					j := NewJoin(ev, cfg, schema, schema, &Stats{})
					matched = 0
					for l, r := left, right; len(l) > 0 || len(r) > 0; {
						if len(r) == 0 || len(l) > 0 && !j.RightBehind() {
							k := min(size, len(l))
							matched += len(j.Push(context.Background(), l[:k:k], true, false))
							l = l[k:]
						} else {
							k := min(size, len(r))
							matched += len(j.Push(context.Background(), r[:k:k], false, true))
							r = r[k:]
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/tuple")
				b.ReportMetric(float64(matched)/(2*n), "matches/tuple")
			})
		}
	}
}
