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

// nestedLoopJoin is JoinStage's reference: every (left, right) pair
// whose keys are equal — same kind and value, never NULL — and whose
// event times are at most window apart, combined left then right.
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

// joinStream is n rows in event-time order whose keys are skewed
// towards a few hot values, sometimes NULL, and drift between int and
// string (3 and "3" must not join).
func joinStream(rng *rand.Rand, schema *value.Schema, side string, n int) []value.Tuple {
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	ts := base
	rows := make([]value.Tuple, n)
	for i := range rows {
		ts = ts.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
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
		rows[i] = value.NewTuple(schema, []value.Value{key, value.String(fmt.Sprintf("%s%d", side, i))}, ts)
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

// TestJoinMatchesNestedLoop: over random event-time-ordered streams,
// JoinStage's output multiset equals the nested-loop reference whatever
// the batch size of either side (1, 7 or 256 rows) and however the two
// sides interleave.
func TestJoinMatchesNestedLoop(t *testing.T) {
	ls := value.NewSchema(value.Field{Name: "k", Kind: value.KindNull}, value.Field{Name: "v", Kind: value.KindString})
	rs := value.NewSchema(value.Field{Name: "k", Kind: value.KindNull}, value.Field{Name: "v", Kind: value.KindString})
	cfg := JoinConfig{
		LeftBinding: "a", RightBinding: "b",
		LeftKey:  &lang.Ident{Name: "k"},
		RightKey: &lang.Ident{Name: "k"},
		Window:   10 * time.Second,
	}
	cfg.OutSchema = JoinSchema(ls, rs, cfg)
	key := func(t value.Tuple) value.Value { return t.Values[0] }
	ev := NewEvaluator(catalog.New())
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left := joinStream(rng, ls, "l", 400)
		right := joinStream(rng, rs, "r", 300)
		want := sortedStrings(nestedLoopJoin(left, right, key, cfg.Window, cfg.OutSchema))
		if len(want) == 0 {
			t.Fatal("reference join is empty; the test is vacuous")
		}
		for _, lsize := range []int{1, 7, 256} {
			for _, rsize := range []int{1, 7, 256} {
				stats := &Stats{}
				out := JoinStage(context.Background(), ev, chunk(lsize, left), chunk(rsize, right), ls, rs, cfg, stats)
				got := sortedStrings(collect(out))
				if len(got) != len(want) {
					t.Fatalf("seed %d, batches %d/%d: %d rows, reference %d", seed, lsize, rsize, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d, batches %d/%d: row %d = %s, reference %s", seed, lsize, rsize, i, got[i], want[i])
					}
				}
				if in := stats.RowsIn.Load(); in != int64(len(left)+len(right)) {
					t.Errorf("seed %d, batches %d/%d: RowsIn = %d, want %d", seed, lsize, rsize, in, len(left)+len(right))
				}
			}
		}
	}
}
