package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/value"
)

// tickEvaluator is an evaluator over a catalog with tick, a stateful
// UDF that returns how many times it has been called and fails every
// fifth call: its results depend on exactly which rows reached it, in
// which order.
func tickEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	cat := catalog.New()
	if err := cat.RegisterStateful("tick", func() catalog.ScalarFn {
		n := int64(0)
		return func(context.Context, []value.Value) (value.Value, error) {
			n++
			if n%5 == 0 {
				return value.Null(), fmt.Errorf("tick %d fails", n)
			}
			return value.Int(n), nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	return NewEvaluator(cat)
}

// TestRowMajorStagesMatchRowOracle: a stage whose expressions call a
// stateful UDF takes each batch one row at a time, so at every batch
// size, and with projection workers to spare, it equals the oracle that
// runs each row's conjuncts in query order and then its select list or
// fold before the next row starts. Failed calls drop the same rows, and
// a LIMIT delivers the oracle's first rows.
func TestRowMajorStagesMatchRowOracle(t *testing.T) {
	rows := nRows(300)
	// A stateful conjunct on each side of a plain one: evaluated a whole
	// conjunct at a time, tick would see other rows in another order.
	conjuncts := []lang.Expr{whereExpr(t, "tick(n) % 2 = 0"), whereExpr(t, "n % 3 != 0"), whereExpr(t, "tick(text) % 3 != 0")}
	items := []ProjItem{{Name: "k", Expr: expr(t, "tick(n)")}, {Name: "text", Expr: expr(t, "text")}}
	timeCfg := aggCfg(t, "n % 2", "SUM(tick(n))", &lang.WindowSpec{Size: time.Minute, Every: time.Minute}, nil)
	countCfg := aggCfg(t, "", "COUNT(*)", &lang.WindowSpec{Count: 7}, nil)

	// run drives a stage built on ev over in and returns its output.
	type run func(ev *Evaluator, stats *Stats, in <-chan Batch) <-chan Batch
	op := func(mk func(ev *Evaluator, stats *Stats) Operator) run {
		return func(ev *Evaluator, stats *Stats, in <-chan Batch) <-chan Batch { return runOp(mk(ev, stats), in) }
	}
	wildcard := []ProjItem{{Name: "*", Wildcard: true}}
	shapes := []struct {
		name   string
		run    run
		oracle func(o rowOracle) []value.Tuple
	}{
		// The filter an async plan runs in its feeder, ahead of the pool.
		{"filter", func(ev *Evaluator, stats *Stats, in <-chan Batch) <-chan Batch {
			return AsyncProjectStage(ev, conjuncts, wildcard, testSchema(), 4, 0, stats)(context.Background(), pull(in))
		}, func(o rowOracle) []value.Tuple {
			return o.filterProject(conjuncts, wildcard, testSchema(), rows)
		}},
		{"project", op(func(ev *Evaluator, stats *Stats) Operator {
			return ColFilterProjectStage(ev, conjuncts, items, testSchema(), 4, false, stats)
		}), func(o rowOracle) []value.Tuple { return o.filterProject(conjuncts, items, testSchema(), rows) }},
		{"aggregate", op(func(ev *Evaluator, stats *Stats) Operator {
			return ColFilterAggStage(ev, conjuncts, timeCfg, testSchema(), stats)
		}), func(o rowOracle) []value.Tuple { return o.filterAggregate(conjuncts, timeCfg, testSchema(), rows) }},
		{"count_window", op(func(ev *Evaluator, stats *Stats) Operator {
			return ColFilterAggStage(ev, conjuncts, countCfg, testSchema(), stats)
		}), func(o rowOracle) []value.Tuple { return o.filterAggregate(conjuncts, countCfg, testSchema(), rows) }},
	}
	for _, sh := range shapes {
		oracle := newRowOracle(tickEvaluator(t))
		want := sh.oracle(oracle)
		if len(want) == 0 || oracle.stats.EvalErrors.Load() == 0 {
			t.Fatalf("%s: oracle kept %d rows with %d errors; test is vacuous", sh.name, len(want), oracle.stats.EvalErrors.Load())
		}
		for _, size := range []int{1, 7, 256} {
			stats := &Stats{}
			got := collect(sh.run(tickEvaluator(t), stats, chunk(size, rows)))
			if len(got) != len(want) {
				t.Fatalf("%s at batch %d: %d rows, oracle %d", sh.name, size, len(got), len(want))
			}
			for i := range want {
				if got[i].String() != want[i].String() {
					t.Fatalf("%s at batch %d, row %d: stage %s, oracle %s", sh.name, size, i, got[i], want[i])
				}
			}
			if e, we := stats.EvalErrors.Load(), oracle.stats.EvalErrors.Load(); e != we {
				t.Errorf("%s at batch %d: %d eval errors, oracle %d", sh.name, size, e, we)
			}
		}
	}

	// LIMIT cuts the row-major output at the oracle's first rows.
	want := newRowOracle(tickEvaluator(t)).filterProject(conjuncts, items, testSchema(), rows)
	stage := ColFilterProjectStage(tickEvaluator(t), conjuncts, items, testSchema(), 4, false, &Stats{})
	var got []value.Tuple
	for _, b := range runTerminalOn(stage, chunk(7, rows), 10, func() {}, &Stats{}) {
		got = append(got, b...)
	}
	if len(got) != 10 {
		t.Fatalf("LIMIT 10 delivered %d rows", len(got))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("LIMIT row %d: stage %s, oracle %s", i, got[i], want[i])
		}
	}
}
