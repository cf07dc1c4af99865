// The pipeline's filter, projection and aggregation stages, over column
// vectors. The filter produces a selection bitmap over a ColBatch;
// projection and aggregation consume the selection directly — surviving
// rows feed the select list or the window fold straight from the
// original batch, so no intermediate survivor batch is ever
// materialized between stages.
//
// Dropped ticks with each filtered part's filtered-away count,
// projection errors drop the row with NoteError, and each logical
// operator registers its own obs stage (unit "vec"). RowsOut and output
// lag belong to the pipeline's terminal stage. Conjuncts run in query
// order over ever-sparser selections; nothing reorders them.
//
// A stage whose expressions call a stateful UDF runs row-major: it takes
// each batch one row at a time, and each row runs the conjuncts in query
// order and then the select list or fold before the next row starts. The
// UDF thus sees the rows in stream order, each row's WHERE calls before
// its SELECT calls, at any batch size.
package exec

import (
	"context"
	"strconv"
	"sync"

	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/value"
)

// colFilter is the shared filter core: it vectors-up the batch, refines
// the selection through every conjunct, and accounts drops.
type colFilter struct {
	preds    []vecPred
	inSchema *value.Schema
	sp       *obs.Stage
	stats    *Stats
	cb       ColBatch
	sel      []uint64
	idxs     []int
	// rowMajor is set when the conjuncts or the stage's other
	// expressions call a stateful UDF (see stride).
	rowMajor bool
}

// newColFilter builds the filter for a stage whose other expressions
// (select list, group keys, aggregate arguments) are stageExprs.
func newColFilter(ev *Evaluator, conjuncts []lang.Expr, inSchema *value.Schema, stats *Stats, stageExprs []lang.Expr) *colFilter {
	f := &colFilter{preds: buildVecPreds(ev, conjuncts, inSchema, stats), inSchema: inSchema, stats: stats,
		rowMajor: HasStateful(ev.cat, conjuncts...) || HasStateful(ev.cat, stageExprs...)}
	if len(conjuncts) > 0 {
		f.sp = stats.StageProf("filter", filterLabel(len(conjuncts)), "vec")
	}
	return f
}

// stride is how many rows of an n-row batch the stage filters before it
// projects or folds them: all n, or one at a time when row-major.
func (f *colFilter) stride(n int) int {
	if f.rowMajor {
		return 1
	}
	return n
}

// apply filters one batch and returns the indices of the rows that
// pass, in order (valid until the next call).
func (f *colFilter) apply(ctx context.Context, b Batch) []int {
	f.cb.Reset(b, f.inSchema)
	f.sel = newSel(f.sel, len(b))
	if len(f.preds) > 0 {
		span := f.sp.Enter()
		for _, p := range f.preds {
			p(ctx, &f.cb, f.sel)
		}
		kept := selCount(f.sel)
		f.stats.Dropped.Add(int64(len(b) - kept))
		span.Exit(len(b), kept)
	}
	f.idxs = appendSel(f.idxs[:0], f.sel)
	return f.idxs
}

// keep compacts b in place to the rows that pass the conjuncts (no
// survivor lands after its own slot): the filter an async plan runs
// ahead of its select list.
func (f *colFilter) keep(ctx context.Context, b Batch) Batch {
	kept := b[:0]
	for lo, step := 0, f.stride(len(b)); lo < len(b); lo += step {
		part := b[lo : lo+step]
		for _, r := range f.apply(ctx, part) {
			kept = append(kept, part[r])
		}
	}
	return kept
}

// ColFilterProjectStage fuses the vectorized filter with projection:
// selected lanes evaluate the select list straight out of the original
// batch into one arena per batch, and the stage returns the projected
// rows (none when nothing passed). workers > 1 shards the selected lanes
// contiguously across a fork/join pool inside the call (projection may
// call scalar UDFs — the CPU-bound case worker sharding exists for),
// except on a row-major stage; output order is stream order either way.
// The stage keeps scratch state between calls, so one goroutine calls
// it at a time.
//
// shareCells is for callers whose output rows are read, not kept (a
// table scan read through the cursor): a select list that is a
// contiguous run of input columns (SELECT *, or SELECT id, text over
// id, text, created_at) then hands out each selected row's own cells,
// resliced, instead of copying them, and reuses the batch for the
// output rows. Cells are never written after they are built, so sharing
// costs only retention: a kept output row pins its input's arena.
func ColFilterProjectStage(ev *Evaluator, conjuncts []lang.Expr, items []ProjItem, inSchema *value.Schema, workers int, shareCells bool, stats *Stats) Map {
	outSchema := ProjectSchema(items, inSchema)
	fns := bindItems(ev, items, inSchema)
	var itemExprs []lang.Expr
	for _, it := range items {
		if !it.Wildcard {
			itemExprs = append(itemExprs, it.Expr)
		}
	}
	runLo, runOK := columnRun(items, inSchema)
	share := shareCells && runOK
	runHi := runLo + outSchema.Len()
	f := newColFilter(ev, conjuncts, inSchema, stats, itemExprs)
	sp := stats.StageProf("project", strconv.Itoa(len(items))+" items", "vec")
	ws := max(workers, 1)
	if f.rowMajor {
		ws = 1
	}
	scratch := make([]Batch, ws)
	// project appends t's projected row to rows and its cells to arena;
	// a row that fails to evaluate drops with its error noted.
	project := func(ctx context.Context, rows Batch, arena []value.Value, t value.Tuple) (Batch, []value.Value) {
		arena, row, err := projectRowAppend(ctx, items, fns, outSchema, t, arena)
		if err != nil {
			stats.NoteError(err)
			return rows, arena
		}
		return append(rows, row), arena
	}
	return func(ctx context.Context, b Batch) Batch {
		var rows Batch
		var arena []value.Value
		if share {
			// Output row k reads input row >= k before overwriting slot
			// k, so the batch serves as both.
			rows = b[:0]
		}
		for lo, step := 0, f.stride(len(b)); lo < len(b); lo += step {
			part := b[lo : lo+step]
			idxs := f.apply(ctx, part)
			if len(idxs) == 0 {
				continue
			}
			span := sp.Enter()
			before := len(rows)
			switch n := len(idxs); {
			case share:
				for _, r := range idxs {
					t := part[r]
					if t.Schema == inSchema && len(t.Values) >= runHi {
						rows = append(rows, value.Tuple{Schema: outSchema, Values: t.Values[runLo:runHi:runHi], TS: t.TS})
						continue
					}
					// A row of another schema resolves by name.
					rows, arena = project(ctx, rows, arena, t)
				}
			case ws == 1 || n < 2*ws:
				if rows == nil {
					rows = make(Batch, 0, n)
					arena = make([]value.Value, 0, n*outSchema.Len())
				}
				for _, r := range idxs {
					rows, arena = project(ctx, rows, arena, part[r])
				}
			default:
				shards := min(ws, n)
				var wg sync.WaitGroup
				for w := 0; w < shards; w++ {
					wg.Add(1)
					go func(w int, sh []int) {
						defer wg.Done()
						arena := make([]value.Value, 0, len(sh)*outSchema.Len())
						scratch[w] = scratch[w][:0]
						for _, r := range sh {
							scratch[w], arena = project(ctx, scratch[w], arena, part[r])
						}
					}(w, idxs[w*n/shards:(w+1)*n/shards])
				}
				wg.Wait()
				rows = make(Batch, 0, n)
				for w := 0; w < shards; w++ {
					rows = append(rows, scratch[w]...)
				}
			}
			span.Exit(len(idxs), len(rows)-before)
		}
		return rows
	}
}

// columnRun reports whether the select list is exactly the input
// columns [lo, lo+n) in order — a lone wildcard, or bare column
// references to adjacent columns — so that a projected row can be the
// input row's cells resliced.
func columnRun(items []ProjItem, in *value.Schema) (lo int, ok bool) {
	if len(items) == 1 && items[0].Wildcard {
		return 0, true
	}
	for j, it := range items {
		id, isIdent := it.Expr.(*lang.Ident)
		if it.Wildcard || !isIdent {
			return 0, false
		}
		i, found := resolveIdent(in, id)
		if !found || (j > 0 && i != lo+j) {
			return 0, false
		}
		if j == 0 {
			lo = i
		}
	}
	return lo, len(items) > 0
}

// ColFilterAggStage fuses the vectorized filter with aggregation into a
// push operator: the rows of each input batch that pass conjuncts fold,
// in stream order, into one folder — the time-window aggState, or the
// count-window countState for WINDOW n TWEETS — and what it emits
// leaves through an aggOut. Windows close when event time passes their
// end, early when the confidence trigger fires, every n rows for a
// count window, and at stream end (Flush).
func ColFilterAggStage(ev *Evaluator, conjuncts []lang.Expr, cfg AggregateConfig, inSchema *value.Schema, stats *Stats) Operator {
	stageExprs := append([]lang.Expr(nil), cfg.GroupExprs...)
	for _, a := range cfg.Aggs {
		if a.Arg != nil {
			stageExprs = append(stageExprs, a.Arg)
		}
	}
	op := &aggOp{f: newColFilter(ev, conjuncts, inSchema, stats, stageExprs),
		sp: stats.StageProf("aggregate", aggLabel(cfg), "vec"), st: newFolder(ev, cfg, inSchema, stats)}
	// One method value for the whole stream: passed through the folder
	// interface it escapes, once instead of once a row.
	op.rowEmit = op.out.emit
	return op
}

// aggOp is the operator ColFilterAggStage returns.
type aggOp struct {
	sp      *obs.Stage
	f       *colFilter
	st      folder
	out     aggOut
	rowEmit func(value.Tuple) bool
}

// Push implements Operator: it filters b and folds its survivors,
// emitting each window that closes as it goes, then what is pending.
func (o *aggOp) Push(ctx context.Context, b Batch, emit func(Batch) bool) bool {
	o.out.to = emit
	for lo, step := 0, o.f.stride(len(b)); lo < len(b); lo += step {
		part := b[lo : lo+step]
		idxs := o.f.apply(ctx, part)
		span := o.sp.Enter()
		o.out.n = 0
		for _, r := range idxs {
			if !o.st.observe(ctx, part[r], o.rowEmit) {
				return false
			}
		}
		span.Exit(len(idxs), o.out.n)
	}
	return o.out.send()
}

// Flush implements Operator: it closes every open window.
func (o *aggOp) Flush(emit func(Batch) bool) bool {
	o.out.to = emit
	return o.st.flush(o.rowEmit) && o.out.send()
}
