package exec

import (
	"context"
	"sync"
	"testing"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/lang"
	"tweeql/internal/value"
)

// soccerRows memoizes the first 8192 tweets of the Figure 1 soccer
// workload (seed 42) as TweetSchema rows.
var soccerRows = sync.OnceValue(func() []value.Tuple {
	tweets := firehose.Tweets(firehose.New(firehose.SoccerMatch(42)).Generate()[:8192])
	rows := make([]value.Tuple, len(tweets))
	for i, tw := range tweets {
		rows[i] = catalog.TweetTuple(tw)
	}
	return rows
})

// exprShapes are the expression shapes of the compile-vs-interpret
// ablation: the filter comparisons the compiler fast-paths, the
// generic/arith/regex shapes, and a projection select list.
var exprShapes = []struct {
	name string
	expr string
}{
	{"str_eq", `text = 'goal for liverpool'`},
	{"contains", `text CONTAINS 'liverpool'`},
	{"int_cmp", `followers > 500`},
	{"arith_cmp", `followers * 2 + 1 < 1000`},
	{"and3", `text CONTAINS 'goal' AND followers > 10 AND NOT retweet`},
	{"in_list", `username IN ('ava', 'ben', 'carlos', 'diana')`},
	{"matches", `text MATCHES 'go+al'`},
	{"proj_upper", `upper(username) + ':' + text`},
	{"proj_arith", `followers * 2 - 1`},
}

// BenchmarkExprCompileAblation measures per-row evaluation of each
// expression shape through the compiled closures and the test-only AST
// interpreter over real TweetSchema rows. The compiled comparison
// shapes must be allocation-free (see TestCompiledFilterAllocFree) and
// at least 2x the interpreter.
func BenchmarkExprCompileAblation(b *testing.B) {
	rows := soccerRows()[:1024]
	mask := len(rows) - 1 // power-of-two row count: mask instead of modulo
	ctx := context.Background()
	for _, sh := range exprShapes {
		stmt, err := lang.Parse("SELECT x FROM t WHERE " + sh.expr)
		if err != nil {
			b.Fatal(err)
		}
		x := stmt.Where
		b.Run(sh.name+"/compiled", func(b *testing.B) {
			fn := NewEvaluator(catalog.New()).Bind(x, catalog.TweetSchema)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fn(ctx, rows[i&mask]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/interpreted", func(b *testing.B) {
			ev := NewEvaluator(catalog.New())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(ctx, x, rows[i&mask]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnarAblation is the scoreboard for the vectorized
// filter path: the same conjunct over the same 4096-row batches of
// real tweet rows, through a row-at-a-time loop over the compiled
// conjunct closures and through the columnar fused stage as a filter
// (transpose + fused kernel + gather, under a SELECT * that shares its
// input's cells). Both arms are one single-worker call per batch, so
// the ratio isolates vectorization. The fast-pathed shapes (str_eq,
// int_cmp, arith_cmp) must hold >= 2x.
func BenchmarkColumnarAblation(b *testing.B) {
	rows := soccerRows()
	const batchRows = 4096
	var batches []Batch
	for lo := 0; lo+batchRows <= len(rows); lo += batchRows {
		batches = append(batches, rows[lo:lo+batchRows])
	}
	ablated := map[string]bool{"str_eq": true, "int_cmp": true, "arith_cmp": true, "contains": true, "in_list": true}
	// One iteration = one stage over many batches, as in a real query:
	// per-stage state (vector buffers, compiled preds) amortizes over
	// the stream, not per batch. Both arms compact batches in place, so
	// each iteration refills its inputs from batches off the clock.
	const cycles = 8
	run := func(b *testing.B, mk func() Map) {
		b.ReportAllocs()
		in := make([]Batch, cycles*len(batches))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := range in {
				in[j] = append(in[j][:0], batches[j%len(batches)]...)
			}
			b.StartTimer()
			stage := mk()
			for _, bt := range in {
				stage(context.Background(), bt)
			}
		}
		b.ReportMetric(float64(b.N)*float64(cycles*len(batches)*batchRows)/b.Elapsed().Seconds(), "rows/sec")
	}
	for _, sh := range exprShapes {
		if !ablated[sh.name] {
			continue
		}
		stmt, err := lang.Parse("SELECT x FROM t WHERE " + sh.expr)
		if err != nil {
			b.Fatal(err)
		}
		conjuncts := []lang.Expr{stmt.Where}
		b.Run(sh.name+"/row", func(b *testing.B) {
			fns := NewEvaluator(catalog.New()).BindAll(conjuncts, catalog.TweetSchema)
			run(b, func() Map { return rowFilterStage(fns) })
		})
		b.Run(sh.name+"/col", func(b *testing.B) {
			ev := NewEvaluator(catalog.New())
			run(b, func() Map {
				return ColFilterProjectStage(ev, conjuncts, []ProjItem{{Name: "*", Wildcard: true}},
					catalog.TweetSchema, 1, true, &Stats{})
			})
		})
	}
}

// rowFilterStage is BenchmarkColumnarAblation's row arm: each row runs
// the bound conjuncts in order until one fails, and survivors compact
// in place, as the columnar arm's do.
func rowFilterStage(fns []CompiledExpr) Map {
	return func(ctx context.Context, b Batch) Batch {
		kept := b[:0]
	rows:
		for _, t := range b {
			for _, fn := range fns {
				if v, err := fn(ctx, t); err != nil || v.IsNull() || !v.Truthy() {
					continue rows
				}
			}
			kept = append(kept, t)
		}
		return kept
	}
}
