package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/tweet"
	"tweeql/internal/value"
)

// locRows are TweetSchema rows from a few profile locations, all inside
// one five-minute window.
func locRows() []value.Tuple {
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	var rows []value.Tuple
	for i, loc := range []string{"Tokyo, Japan", "Cape Town", "NYC!!", "", "Tokyo, Japan", "London"} {
		rows = append(rows, catalog.TweetTuple(&tweet.Tweet{
			ID: int64(i), Text: "goal", Location: loc, CreatedAt: base.Add(time.Duration(i) * time.Second),
		}))
	}
	return rows
}

// TestKeyingAllocatesNothingPerRow: once a row's group is open, folding
// the row into it allocates nothing — no rendered key, no per-row group
// or argument slices, no fold closure — for the windowed group-by and
// the count window alike.
func TestKeyingAllocatesNothingPerRow(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	ctx := context.Background()
	emit := func(value.Tuple) bool { return true }
	for _, c := range []struct {
		name string
		f    folder
	}{
		{"GROUP BY loc WINDOW 5 MINUTES", newFolder(ev, aggCfg(t, "loc", "COUNT(*)", &lang.WindowSpec{Size: 5 * time.Minute}, nil), catalog.TweetSchema, &Stats{})},
		{"GROUP BY loc WINDOW 1000000 TWEETS", newFolder(ev, aggCfg(t, "loc", "COUNT(*)", &lang.WindowSpec{Count: 1_000_000}, nil), catalog.TweetSchema, &Stats{})},
	} {
		rows := locRows()
		for _, r := range rows {
			c.f.observe(ctx, r, emit)
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.f.observe(ctx, rows[i%len(rows)], emit)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/row, want 0", c.name, allocs)
		}
	}
}

// TestJoinKeyingAllocs: the join keys its buffers without rendering
// the key. A pass of 8 192 rows that match nothing allocates only for
// the stage itself and the buffers' amortized growth; the string-keyed
// join allocated a key for every row.
func TestJoinKeyingAllocs(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "k", Kind: value.KindNull})
	cfg := JoinConfig{LeftBinding: "a", RightBinding: "b", LeftKey: &lang.Ident{Name: "k"}, RightKey: &lang.Ident{Name: "k"}, Window: time.Hour}
	ev := NewEvaluator(catalog.New())
	const n = 8192
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	keys := []value.Value{value.String("tokyo"), value.Int(300), value.Float(2.5), value.Time(base)}
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = value.NewTuple(schema, []value.Value{keys[i%len(keys)]}, base.Add(time.Duration(i)*time.Millisecond))
	}
	allocs := testing.AllocsPerRun(5, func() {
		j := NewJoin(ev, cfg, schema, schema, &Stats{})
		for i := 0; i < n; i += 256 {
			if out := j.Push(context.Background(), rows[i:i+256], true, false); len(out) > 0 {
				t.Error("rows matched an empty side")
			}
		}
	})
	if perRow := allocs / n; perRow > 0.05 {
		t.Errorf("%.3f allocs/row (%v per pass of %d rows), want under 0.05", perRow, allocs, n)
	}
}

// TestJoinOddKeysMatchNestedLoop: join keys meet exactly when they have
// the same kind and rendering — every NaN one key, -0 apart from 0, an
// int apart from a float of the same number, times by UTC second
// whatever their zone or sub-second digits.
func TestJoinOddKeysMatchNestedLoop(t *testing.T) {
	ls := value.NewSchema(value.Field{Name: "k", Kind: value.KindNull}, value.Field{Name: "v", Kind: value.KindString})
	cfg := JoinConfig{LeftBinding: "a", RightBinding: "b", LeftKey: &lang.Ident{Name: "k"}, RightKey: &lang.Ident{Name: "k"}, Window: 10 * time.Second}
	out := JoinSchema(ls, ls, cfg)
	at := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	pool := []value.Value{
		value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8000000000002)),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Int(0), value.Float(1), value.Int(1),
		value.Time(at), value.Time(at.Add(300 * time.Millisecond)), value.Time(at.In(time.FixedZone("JST", 9*3600))),
		value.Time(at.Add(time.Second)), value.String("1"), value.String("float:1"),
		value.List([]value.Value{value.Int(1)}), value.List([]value.Value{value.Float(1)}),
	}
	stream := func(rng *rand.Rand, side string, n int) []value.Tuple {
		ts := at
		rows := make([]value.Tuple, n)
		for i := range rows {
			ts = ts.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
			rows[i] = value.NewTuple(ls, []value.Value{pool[rng.Intn(len(pool))], value.String(fmt.Sprintf("%s%d", side, i))}, ts)
		}
		return rows
	}
	key := func(t value.Tuple) value.Value { return t.Values[0] }
	ev := NewEvaluator(catalog.New())
	rng := rand.New(rand.NewSource(7))
	left, right := stream(rng, "l", 300), stream(rng, "r", 300)
	want := sortedStrings(nestedLoopJoin(left, right, key, cfg.Window, out))
	j := NewJoin(ev, cfg, ls, ls, &Stats{})
	got := sortedStrings(runJoin(j, left, right, 16, 16, func() bool { return !j.RightBehind() }))
	if len(want) == 0 {
		t.Fatal("reference join is empty; the test is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %s, reference %s", i, got[i], want[i])
		}
	}
}
