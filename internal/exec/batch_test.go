package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/value"
)

// feedBatches pushes batches on a channel and closes it.
func feedBatches(bs ...Batch) <-chan Batch {
	ch := make(chan Batch, len(bs))
	for _, b := range bs {
		ch <- b
	}
	close(ch)
	return ch
}

// chunk sends copies of rows in batches of up to size rows and closes
// the channel. The copies matter: a stage owns the batches it receives
// and may reuse them (a filter compacts survivors in place).
func chunk(size int, rows []value.Tuple) <-chan Batch {
	ch := make(chan Batch, len(rows)/size+1)
	for lo := 0; lo < len(rows); lo += size {
		ch <- append(Batch(nil), rows[lo:min(lo+size, len(rows))]...)
	}
	close(ch)
	return ch
}

func nRows(n int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		out[i] = row(fmt.Sprintf("t%d", i), int64(i), value.Null(), value.Null(), time.Unix(int64(i), 0))
	}
	return out
}

// pull reads ch as Terminal's next.
func pull(ch <-chan Batch) func() (Batch, bool) {
	return func() (Batch, bool) {
		b, ok := <-ch
		return b, ok
	}
}

// runOp drives op over in through Terminal, unlimited, and returns the
// batches it emitted as a closed channel.
func runOp(op Operator, in <-chan Batch) <-chan Batch {
	return feedBatches(runTerminalOn(op, in, -1, func() {}, &Stats{})...)
}

// filterStage is a filter alone: the fused stage under a wildcard select
// list that shares its input rows' cells.
func filterStage(ev *Evaluator, conjuncts []lang.Expr, inSchema *value.Schema, stats *Stats) Operator {
	return ColFilterProjectStage(ev, conjuncts, []ProjItem{{Name: "*", Wildcard: true}}, inSchema, 1, true, stats)
}

func collectBatches(ch <-chan Batch) []Batch {
	var out []Batch
	for b := range ch {
		out = append(out, b)
	}
	return out
}

// profiled returns stats carrying a profile, so lag observations can
// be counted.
func profiled() *Stats {
	return &Stats{Profile: obs.NewProfile("q", obs.ProfileOptions{})}
}

// runTerminal runs Terminal over batches and returns what it delivered.
func runTerminal(limit int, cancel context.CancelFunc, stats *Stats, batches ...Batch) []Batch {
	return runTerminalOn(nil, feedBatches(batches...), limit, cancel, stats)
}

// runTerminalOn runs Terminal with op over in and returns what it
// delivered.
func runTerminalOn(op Operator, in <-chan Batch, limit int, cancel context.CancelFunc, stats *Stats) []Batch {
	var got []Batch
	Terminal(context.Background(), pull(in), op, limit, cancel, stats, func(b Batch) bool {
		got = append(got, b)
		return true
	})
	return got
}

func TestTerminalOrderAndCounts(t *testing.T) {
	rows := nRows(7)
	stats := profiled()
	got := runTerminal(-1, nil, stats, rows[:3], rows[3:])
	if len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 4 {
		t.Fatalf("batches not passed whole: %v", got)
	}
	for i, tup := range append(got[0], got[1]...) {
		if n, _ := tup.Get("n").IntVal(); n != int64(i) {
			t.Fatalf("row %d out of order: %s", i, tup)
		}
	}
	if stats.RowsOut.Load() != 7 {
		t.Errorf("RowsOut = %d", stats.RowsOut.Load())
	}
	if lag := stats.Profile.Snapshot().Lag.Count; lag != 7 {
		t.Errorf("lag observations = %d rows, want 7", lag)
	}
}

func TestTerminalLimitMidBatch(t *testing.T) {
	rows := nRows(10)
	stats := profiled()
	ctx, cancel := context.WithCancel(context.Background())
	got := runTerminal(5, cancel, stats, rows[:4], rows[4:8], rows[8:])
	if len(got) != 2 || len(got[0]) != 4 || len(got[1]) != 1 {
		t.Fatalf("limit 5 over 4+4+2 = %v, want batches of 4 and 1", got)
	}
	if ctx.Err() == nil {
		t.Error("limit did not cancel upstream")
	}
	if out, lag := stats.RowsOut.Load(), stats.Profile.Snapshot().Lag.Count; out != 5 || lag != 5 {
		t.Errorf("RowsOut = %d, lag rows = %d, want 5", out, lag)
	}
}

func TestTerminalLimitZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stats := profiled()
	got := runTerminal(0, cancel, stats, nRows(3))
	if len(got) != 0 || ctx.Err() == nil || stats.RowsOut.Load() != 0 {
		t.Fatalf("limit 0: batches=%d cancelled=%v RowsOut=%d", len(got), ctx.Err() != nil, stats.RowsOut.Load())
	}
}

// TestBatchCountStage: the scan read counts every row of every batch it
// yields toward RowsIn, and times each wait as the "scan" stage.
func TestBatchCountStage(t *testing.T) {
	rows := nRows(9)
	stats := profiled()
	next := ScanInput(stats, pull(feedBatches(rows[:5], rows[5:])))
	for _, ok := next(); ok; _, ok = next() {
	}
	if stats.RowsIn.Load() != 9 {
		t.Errorf("RowsIn = %d", stats.RowsIn.Load())
	}
	if st := stats.Profile.Snapshot().Stages; len(st) != 1 || st[0].Kind != "scan" || st[0].RowsIn != 9 {
		t.Errorf("stages = %+v, want one scan stage over 9 rows", st)
	}
}

// TestBatchFilterMatchesTupleFilter runs the same conjuncts through the
// row-at-a-time oracle and the fused stage as a filter, fed in batches
// and in one-row batches, and asserts identical surviving rows in order.
func TestBatchFilterMatchesTupleFilter(t *testing.T) {
	rows := make([]value.Tuple, 0, 100)
	for i := 0; i < 100; i++ {
		txt := "background noise"
		if i%3 == 0 {
			txt = "goal scored"
		}
		rows = append(rows, row(txt, int64(i), value.Null(), value.Null(), time.Unix(int64(i), 0)))
	}
	conjuncts := []lang.Expr{whereExpr(t, "text CONTAINS 'goal'"), whereExpr(t, "n < 80")}
	ev := NewEvaluator(catalog.New())
	oracle := newRowOracle(ev)
	want := oracle.filter(conjuncts, testSchema(), rows)
	for name, size := range map[string]int{"batches": 33, "one_row_batches": 1} {
		t.Run(name, func(t *testing.T) {
			stats := &Stats{}
			got := collect(runOp(filterStage(ev, conjuncts, testSchema(), stats), chunk(size, rows)))
			if len(got) != len(want) {
				t.Fatalf("filter rows = %d, oracle rows = %d", len(got), len(want))
			}
			for i := range got {
				if got[i].String() != want[i].String() {
					t.Fatalf("row %d: stage %s != oracle %s", i, got[i], want[i])
				}
			}
			if stats.Dropped.Load() != oracle.stats.Dropped.Load() {
				t.Errorf("dropped: stage %d, oracle %d", stats.Dropped.Load(), oracle.stats.Dropped.Load())
			}
		})
	}
}

func TestBatchProjectMatchesTupleProject(t *testing.T) {
	rows := nRows(50)
	items := []ProjItem{
		{Name: "text", Expr: expr(t, "text")},
		{Name: "n2", Expr: expr(t, "n * 2")},
	}
	ev := NewEvaluator(catalog.New())
	want := newRowOracle(ev).project(items, testSchema(), rows)
	for _, workers := range []int{1, 4} {
		got := collect(runOp(ColFilterProjectStage(ev, nil, items, testSchema(), workers, false, &Stats{}), feedBatches(rows[:20], rows[20:])))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: rows %d != %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("workers=%d row %d: %s != %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestProjectWildcardSchemaDrift pins the schema-drift guard: a
// wildcard projection planned against an empty schema (a table that
// had no rows at plan time) can still receive full-width rows from a
// concurrent writer. The row must drop as an eval error — never panic
// the pipeline on the NewTuple arity invariant.
func TestProjectWildcardSchemaDrift(t *testing.T) {
	rows := nRows(10)
	items := []ProjItem{{Name: "*", Wildcard: true}}
	empty := value.NewSchema() // what Table.Schema() reports while empty
	ev := NewEvaluator(catalog.New())

	t.Run("tuple", func(t *testing.T) {
		stats := &Stats{}
		got := collect(runOp(ColFilterProjectStage(ev, nil, items, empty, 1, false, stats), feedRows(rows...)))
		if len(got) != 0 {
			t.Fatalf("drifted rows delivered: %d", len(got))
		}
		if n := stats.EvalErrors.Load(); n != int64(len(rows)) {
			t.Fatalf("EvalErrors = %d, want %d", n, len(rows))
		}
	})
	t.Run("batch", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			stats := &Stats{}
			out := runOp(ColFilterProjectStage(ev, nil, items, empty, workers, false, stats), feedBatches(rows[:5], rows[5:]))
			if got := collect(out); len(got) != 0 {
				t.Fatalf("workers=%d: drifted rows delivered: %d", workers, len(got))
			}
			if n := stats.EvalErrors.Load(); n != int64(len(rows)) {
				t.Fatalf("workers=%d: EvalErrors = %d, want %d", workers, n, len(rows))
			}
		}
	})
	t.Run("async", func(t *testing.T) {
		stats := &Stats{}
		got := collect(AsyncProjectStage(ev, nil, items, empty, 4, 0, stats)(context.Background(), pull(feedBatches(rows[:5], rows[5:]))))
		if len(got) != 0 {
			t.Fatalf("drifted rows delivered: %d", len(got))
		}
		if n := stats.EvalErrors.Load(); n != int64(len(rows)) {
			t.Fatalf("EvalErrors = %d, want %d", n, len(rows))
		}
	})
}

// TestColFilterProjectSharedCells pins shareCells: a select list that is
// a contiguous run of input columns hands out the selected input rows'
// own cells, any other list copies, and either way the rows equal the
// copying projection's — including a row of another schema object,
// which resolves by name.
func TestColFilterProjectSharedCells(t *testing.T) {
	schema := testSchema()
	mk := func() []value.Tuple {
		rows := make([]value.Tuple, 40)
		for i := range rows {
			s := schema
			if i == 17 {
				s = testSchema() // same columns, another object
			}
			rows[i] = value.NewTuple(s, []value.Value{value.String(fmt.Sprintf("t%d", i)), value.Int(int64(i)),
				value.Float(float64(i) / 2), value.Null()}, time.Unix(int64(i), 0))
		}
		return rows
	}
	conjuncts := []lang.Expr{whereExpr(t, "n % 3 != 0")}
	ev := NewEvaluator(catalog.New())
	for _, tc := range []struct {
		sel    string
		shared int // first input column of the run; -1 = copied
	}{
		{"*", 0},
		{"text, n", 0},
		{"n, lat, lon", 1},
		{"lon", 3},
		{"n, text", -1},
		{"text, lat", -1},
		{"text, n * 2", -1},
	} {
		stmt, err := lang.Parse("SELECT " + tc.sel + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		var items []ProjItem
		for _, it := range stmt.Items {
			if it.Wildcard {
				items = append(items, ProjItem{Name: "*", Wildcard: true})
				continue
			}
			items = append(items, ProjItem{Name: it.Name(), Expr: it.Expr})
		}
		run := func(share bool, rows []value.Tuple) []value.Tuple {
			stage := ColFilterProjectStage(ev, conjuncts, items, schema, 1, share, &Stats{})
			return collect(runOp(stage, feedBatches(rows[:25], rows[25:])))
		}
		want := run(false, mk())
		in := mk()
		got := run(true, append([]value.Tuple(nil), in...)) // the stage reuses its batches
		if len(got) != len(want) {
			t.Fatalf("%s: shared %d rows, copied %d", tc.sel, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() || !got[i].TS.Equal(want[i].TS) || got[i].Schema.String() != want[i].Schema.String() {
				t.Fatalf("%s row %d: shared %s, copied %s", tc.sel, i, got[i], want[i])
			}
			src := in[i+i/2+1] // the filter keeps rows 1, 2, 4, 5, …
			aliased := &got[i].Values[0] == &src.Values[max(tc.shared, 0)]
			if wantAlias := tc.shared >= 0 && src.Schema == schema; aliased != wantAlias {
				t.Fatalf("%s row %d: aliases input cells = %v, want %v", tc.sel, i, aliased, wantAlias)
			}
		}
	}
}

func TestBatchAggregateMatchesTupleAggregate(t *testing.T) {
	// One-minute COUNT(*) windows grouped by parity over 5 minutes.
	var rows []value.Tuple
	for i := 0; i < 300; i++ {
		rows = append(rows, row("x", int64(i%2), value.Null(), value.Null(),
			time.Unix(int64(i), 0)))
	}
	cfg := AggregateConfig{
		GroupExprs: []lang.Expr{expr(t, "n")},
		Aggs:       []AggItem{{Name: "c", AggName: "COUNT", Star: true}},
		Out: []OutCol{
			{Name: "n", IsAgg: false, Index: 0},
			{Name: "c", IsAgg: true, Index: 0},
		},
		Window: &lang.WindowSpec{Size: time.Minute},
	}
	ev := NewEvaluator(catalog.New())
	want := newRowOracle(ev).aggregate(cfg, testSchema(), rows)
	got := collect(runOp(ColFilterAggStage(ev, nil, cfg, testSchema(), &Stats{}), feedBatches(rows[:100], rows[100:250], rows[250:])))
	if len(got) != len(want) {
		t.Fatalf("agg rows: batch %d != oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("agg row %d: %s != %s", i, got[i], want[i])
		}
	}
}

func TestBatchAggregateCountWindow(t *testing.T) {
	var rows []value.Tuple
	for i := 0; i < 10; i++ {
		rows = append(rows, row("x", int64(i), value.Null(), value.Null(), time.Unix(int64(i), 0)))
	}
	cfg := AggregateConfig{
		Aggs:   []AggItem{{Name: "c", AggName: "COUNT", Star: true}},
		Out:    []OutCol{{Name: "c", IsAgg: true, Index: 0}},
		Window: &lang.WindowSpec{Count: 4},
	}
	ev := NewEvaluator(catalog.New())
	got := collect(runOp(ColFilterAggStage(ev, nil, cfg, testSchema(), &Stats{}), feedBatches(rows[:7], rows[7:])))
	// 10 rows in count-4 windows: 4, 4, final partial 2.
	if len(got) != 3 {
		t.Fatalf("count windows = %d", len(got))
	}
	for i, wantN := range []int64{4, 4, 2} {
		if n, _ := got[i].Get("c").IntVal(); n != wantN {
			t.Errorf("window %d count = %d, want %d", i, n, wantN)
		}
	}
}

func batchSizes(bs []Batch) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = len(b)
	}
	return out
}

// TestAggregateBatchPerWindowClose: an input batch spanning three
// one-minute windows leaves the aggregate stage as one output batch per
// window close, each holding rows of a single event
// time, so Terminal's per-batch minimum is every row's own window end.
// A sliding window, which closes several windows per slide, and a
// count window cut the same way.
func TestAggregateBatchPerWindowClose(t *testing.T) {
	var rows []value.Tuple
	for i := 0; i < 200; i += 5 {
		rows = append(rows, row("x", int64(i%2), value.Null(), value.Null(), time.Unix(int64(i), 0)))
	}
	ev := NewEvaluator(catalog.New())
	for _, tc := range []struct {
		name    string
		win     lang.WindowSpec
		batches int // output batches: one per window close
	}{
		{"tumbling", lang.WindowSpec{Size: time.Minute, Every: time.Minute}, 4},
		{"sliding", lang.WindowSpec{Size: 2 * time.Minute, Every: time.Minute}, 5},
		{"count", lang.WindowSpec{Count: 15}, 3},
	} {
		win := tc.win
		cfg := aggCfg(t, "n", "COUNT(*)", &win, nil)
		got := collectBatches(runOp(ColFilterAggStage(ev, nil, cfg, testSchema(), &Stats{}), chunk(len(rows), rows)))
		if len(got) != tc.batches {
			t.Errorf("%s: %d output batches %v, want %d", tc.name, len(got), batchSizes(got), tc.batches)
		}
		for i, b := range got {
			for _, r := range b {
				if !r.TS.Equal(b[0].TS) {
					t.Errorf("%s: batch %d mixes event times %v and %v", tc.name, i, b[0].TS, r.TS)
				}
			}
		}
	}
}
