package core_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/testutil"
	"tweeql/internal/value"
)

var joinRowSchema = value.NewSchema(
	value.Field{Name: "k", Kind: value.KindNull},
	value.Field{Name: "x", Kind: value.KindInt},
)

// joinRows is n rows a second apart whose keys cycle through keys
// values.
func joinRows(n, keys int) []value.Tuple {
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = value.NewTuple(joinRowSchema, []value.Value{value.Int(int64(i % keys)), value.Int(int64(i))}, base.Add(time.Duration(i)*time.Second))
	}
	return rows
}

// joinEngine registers finite sources over rows and a scalar UDF
// positive(x) that fails on a negative x.
func joinEngine(t *testing.T, opts core.Options, sources map[string][]value.Tuple) *core.Engine {
	t.Helper()
	cat := catalog.New()
	for name, rows := range sources {
		cat.RegisterSource(name, catalog.NewSliceSource(joinRowSchema, rows))
	}
	err := cat.RegisterScalar(&catalog.ScalarUDF{Name: "positive", Arity: 1, Fn: func(_ context.Context, args []value.Value) (value.Value, error) {
		x, err := args[0].IntVal()
		if err != nil || x < 0 {
			return value.Null(), errors.New("positive: negative argument")
		}
		return value.Bool(true), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(cat, opts)
}

// runJoinQuery runs sql to its end and returns its rows, rendered in
// order, and its stats.
func runJoinQuery(t *testing.T, eng *core.Engine, sql string) ([]string, *core.Cursor) {
	t.Helper()
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for r := range cur.Rows() {
		rows = append(rows, r.String())
	}
	return rows, cur
}

// TestFiniteJoinIsDeterministic: a join of two finite sources reads
// them by a fixed rule (the side with the older newest row first), so
// two runs at one batch size return the same rows in the same order;
// at one-row and 64-row batches the same rows. Each source's rows count
// once toward RowsIn.
func TestFiniteJoinIsDeterministic(t *testing.T) {
	const sql = `SELECT a.x, b.x FROM l AS a JOIN r AS b ON a.k = b.k WINDOW 20 SECONDS`
	sources := map[string][]value.Tuple{"l": joinRows(600, 7), "r": joinRows(400, 5)}
	var sorted []string
	for _, size := range []int{1, 64} {
		var first []string
		for run := range 2 {
			opts := core.DefaultOptions()
			opts.BatchSize = size
			rows, cur := runJoinQuery(t, joinEngine(t, opts, sources), sql)
			if len(rows) == 0 {
				t.Fatal("join returned nothing; the test is vacuous")
			}
			if first == nil {
				first = rows
			} else if !slices.Equal(rows, first) {
				t.Fatalf("batch size %d, run %d: %d rows differ from the first run's %d", size, run, len(rows), len(first))
			}
			if in := cur.Stats().RowsIn.Load(); in != 1000 {
				t.Errorf("batch size %d: RowsIn = %d, want 1000 (left + right)", size, in)
			}
		}
		first = slices.Sorted(slices.Values(first))
		if sorted != nil && !slices.Equal(first, sorted) {
			t.Fatalf("batch size %d returns other rows than batch size 1", size)
		}
		sorted = first
	}
}

// TestSelfJoinCountsRowsOnce: a self-join reads its one scan once, so
// each scanned row counts once toward RowsIn, and it matches each row
// with itself.
func TestSelfJoinCountsRowsOnce(t *testing.T) {
	eng := joinEngine(t, core.DefaultOptions(), map[string][]value.Tuple{"t": joinRows(500, 500)})
	rows, cur := runJoinQuery(t, eng, `SELECT a.x FROM t AS a JOIN t AS b ON a.x = b.x WINDOW 1 MINUTE`)
	if len(rows) != 500 {
		t.Fatalf("%d rows, want 500", len(rows))
	}
	if in := cur.Stats().RowsIn.Load(); in != 500 {
		t.Fatalf("RowsIn = %d, want 500", in)
	}
}

// TestSideConjunctErrorsCountOnce: a conjunct naming one side filters
// that side before it buffers, so a row it fails on counts one eval
// error, at its side — also the row whose NULL key never joins, and
// the two rows whose key joins them with each other twice.
func TestSideConjunctErrorsCountOnce(t *testing.T) {
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	row := func(k value.Value, x int64, sec int) value.Tuple {
		return value.NewTuple(joinRowSchema, []value.Value{k, value.Int(x)}, base.Add(time.Duration(sec)*time.Second))
	}
	src := []value.Tuple{
		row(value.Int(1), 1, 0),
		row(value.Null(), -1, 1), // never joins
		row(value.Int(2), -1, 2), // joins itself and the next row
		row(value.Int(2), -2, 3),
	}
	eng := joinEngine(t, core.DefaultOptions(), map[string][]value.Tuple{"t": src})
	const sql = `SELECT a.x FROM t AS a JOIN t AS b ON a.k = b.k WHERE positive(a.x) WINDOW 1 MINUTE`
	rows, cur := runJoinQuery(t, eng, sql)
	if p := cur.Plan(); len(p.Join.LeftWhere) != 1 || len(p.Conjuncts) != 0 {
		t.Fatalf("plan keeps %d residual and %d left-side conjuncts, want 0 and 1", len(p.Conjuncts), len(p.Join.LeftWhere))
	}
	if len(rows) != 1 {
		t.Fatalf("rows %v, want the one row of key 1", rows)
	}
	if n := cur.Stats().EvalErrors.Load(); n != 3 {
		t.Fatalf("EvalErrors = %d, want 3: one per failing row", n)
	}
}

// TestQuietSideDoesNotStallLiveJoin: a join of two live streams whose
// right side stays quiet while the left one publishes 20 bursts, each
// within the subscription's buffer but together five times it. The
// read polls the quiet side and waits on either, so it drains every
// left burst as it comes and the left subscription drops nothing; a
// right row then joins the left rows in its window. With private scans
// neither side can be polled, and the join is refused.
func TestQuietSideDoesNotStallLiveJoin(t *testing.T) {
	opts := core.DefaultOptions()
	opts.SourceBuffer = 200
	const sql = `SELECT a.x, b.x FROM l AS a JOIN r AS b ON a.k = b.k WINDOW 10 SECONDS`
	cat := catalog.New()
	cat.RegisterSource("l", catalog.NewDerivedStream("l", joinRowSchema))
	cat.RegisterSource("r", catalog.NewDerivedStream("r", joinRowSchema))
	if cur, err := core.NewAblatedEngine(cat, opts, core.Ablation{PrivateScans: true}).Query(context.Background(), sql); err == nil {
		cur.Stop()
		t.Fatal("a join of two live sources ran on private scans")
	}
	cat = catalog.New()
	left, right := catalog.NewDerivedStream("l", joinRowSchema), catalog.NewDerivedStream("r", joinRowSchema)
	cat.RegisterSource("l", left)
	cat.RegisterSource("r", right)
	eng := core.NewEngine(cat, opts)
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Stop()
	out := make(chan int, 1)
	go func() {
		n := 0
		for range cur.Rows() {
			n++
		}
		out <- n
	}()
	rows := joinRows(1000, 1)
	for lo := 0; lo < len(rows); lo += 50 {
		left.PublishBatch(slices.Clone(rows[lo : lo+50]))
		testutil.WaitFor(t, 5*time.Second, func() bool { return cur.Stats().RowsIn.Load() == int64(lo+50) }, "the join to read the burst")
	}
	if d := left.Stats().Dropped; d != 0 {
		t.Fatalf("the left stream dropped %d rows", d)
	}
	for _, s := range eng.Scans() {
		if s.Dropped != 0 {
			t.Fatalf("scan %s dropped %d rows", s.Signature, s.Dropped)
		}
	}
	last := rows[len(rows)-1]
	right.PublishBatch([]value.Tuple{value.NewTuple(joinRowSchema, []value.Value{value.Int(0), value.Int(-1)}, last.TS)})
	left.CloseStream()
	right.CloseStream()
	if n := <-out; n != 11 {
		t.Fatalf("%d rows, want 11: the right row joins the left rows of its last 10 s", n)
	}
}
