// Columnar pipeline stages (PR 10): the vectorized counterparts of
// BatchFilterStage / BatchProjectStage / BatchAggregateStage. The
// filter produces a selection bitmap over a ColBatch; projection and
// aggregation consume the selection directly — surviving rows feed the
// select list or the window fold straight from the original batch, so
// no intermediate survivor batch is ever materialized between stages.
//
// Counter and profiling semantics mirror the row stages: Dropped ticks
// once per batch with the filtered-away count, projection errors drop
// the row with NoteError, and each logical operator registers its own
// obs stage (unit "vec") so EXPLAIN ANALYZE profiles keep their shape.
// RowsOut and output lag belong to the pipeline's terminal stage.
// Conjuncts run in query order over ever-sparser selections; the eddy's
// adaptive reordering does not apply on this path (keep/drop for a
// stateless conjunction is order-independent, so results are
// identical).
package exec

import (
	"context"
	"math/bits"
	"strconv"
	"sync"

	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/value"
)

// colFilter is the shared filter core: it vectors-up the batch, refines
// the selection through every conjunct, and accounts drops.
type colFilter struct {
	preds []vecPred
	sp    *obs.Stage
	stats *Stats
	cb    ColBatch
	sel   []uint64
}

func newColFilter(ev *Evaluator, conjuncts []lang.Expr, inSchema *value.Schema, stats *Stats) *colFilter {
	f := &colFilter{preds: buildVecPreds(ev, conjuncts, inSchema, stats), stats: stats}
	if len(conjuncts) > 0 {
		f.sp = stats.StageProf("filter", filterLabel(len(conjuncts)), "vec")
	}
	return f
}

// apply filters one batch, returning the selection bitmap (valid until
// the next call) and the survivor count.
func (f *colFilter) apply(ctx context.Context, b Batch, inSchema *value.Schema) ([]uint64, int) {
	f.cb.Reset(b, inSchema)
	f.sel = newSel(f.sel, len(b))
	if len(f.preds) == 0 {
		return f.sel, len(b)
	}
	span := f.sp.Enter()
	for _, p := range f.preds {
		p(ctx, &f.cb, f.sel)
	}
	kept := selCount(f.sel)
	f.stats.Dropped.Add(int64(len(b) - kept))
	span.Exit(len(b), kept)
	return f.sel, kept
}

// ColFilterStage is the standalone vectorized filter: survivors gather
// in place (the batch is the stage's once received) and flow on as a
// row batch. The fused stages below are preferred in pipelines; this
// form serves filter-only plans and the row-vs-columnar benchmark.
func ColFilterStage(ev *Evaluator, conjuncts []lang.Expr, inSchema *value.Schema, stats *Stats) BatchStage {
	return func(ctx context.Context, in <-chan Batch) <-chan Batch {
		out := make(chan Batch, 4)
		go func() {
			defer close(out)
			f := newColFilter(ev, conjuncts, inSchema, stats)
			for b := range in {
				if ctx.Err() != nil {
					return
				}
				sel, kept := f.apply(ctx, b, inSchema)
				if kept == 0 {
					continue
				}
				select {
				case out <- f.cb.Gather(sel):
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}
}

// ColFilterProjectStage fuses the vectorized filter with projection:
// selected lanes evaluate the select list straight out of the original
// batch into one arena per batch. workers > 1 shards the selected lanes
// contiguously across a pool (projection may call scalar UDFs — the
// CPU-bound case worker sharding exists for); output order is stream
// order either way.
//
// shareCells is for callers whose output rows are read, not kept (a
// table scan read through the cursor): a select list that is a
// contiguous run of input columns (SELECT *, or SELECT id, text over
// id, text, created_at) then hands out each selected row's own cells,
// resliced, instead of copying them, and reuses the batch for the
// output rows. Cells are never written after they are built, so sharing
// costs only retention: a kept output row pins its input's arena.
func ColFilterProjectStage(ev *Evaluator, conjuncts []lang.Expr, items []ProjItem, inSchema *value.Schema, workers int, shareCells bool, stats *Stats) BatchStage {
	outSchema := ProjectSchema(items, inSchema)
	fns := bindItems(ev, items, inSchema)
	if workers < 1 {
		workers = 1
	}
	runLo, runOK := columnRun(items, inSchema)
	share := shareCells && runOK
	runHi := runLo + outSchema.Len()
	sp := stats.StageProf("project", strconv.Itoa(len(items))+" items", "vec")
	return func(ctx context.Context, in <-chan Batch) <-chan Batch {
		out := make(chan Batch, 4)
		go func() {
			defer close(out)
			f := newColFilter(ev, conjuncts, inSchema, stats)
			var idxs []int
			scratch := make([]Batch, workers)
			for b := range in {
				if ctx.Err() != nil {
					return
				}
				sel, kept := f.apply(ctx, b, inSchema)
				if kept == 0 {
					continue
				}
				idxs = idxs[:0]
				for w, word := range sel {
					for word != 0 {
						i := bits.TrailingZeros64(word)
						word &^= 1 << uint(i)
						idxs = append(idxs, w*64+i)
					}
				}
				span := sp.Enter()
				var rows Batch
				if share {
					// Output row k reads input row idxs[k] >= k before
					// overwriting slot k, so the batch serves as both.
					rows = b[:0]
					var arena []value.Value
					for _, r := range idxs {
						t := b[r]
						if t.Schema == inSchema && len(t.Values) >= runHi {
							rows = append(rows, value.Tuple{Schema: outSchema, Values: t.Values[runLo:runHi:runHi], TS: t.TS})
							continue
						}
						// A row of another schema resolves by name.
						var row value.Tuple
						var err error
						arena, row, err = projectRowAppend(ctx, items, fns, outSchema, t, arena)
						if err != nil {
							stats.NoteError(err)
							continue
						}
						rows = append(rows, row)
					}
				} else if workers == 1 || len(idxs) < 2*workers {
					arena := make([]value.Value, 0, len(idxs)*outSchema.Len())
					rows = make(Batch, 0, len(idxs))
					for _, r := range idxs {
						var row value.Tuple
						var err error
						arena, row, err = projectRowAppend(ctx, items, fns, outSchema, b[r], arena)
						if err != nil {
							stats.NoteError(err)
							continue
						}
						rows = append(rows, row)
					}
				} else {
					n := len(idxs)
					ws := workers
					if ws > n {
						ws = n
					}
					var wg sync.WaitGroup
					for w := 0; w < ws; w++ {
						lo, hi := w*n/ws, (w+1)*n/ws
						scratch[w] = scratch[w][:0]
						wg.Add(1)
						go func(w int, part []int) {
							defer wg.Done()
							arena := make([]value.Value, 0, len(part)*outSchema.Len())
							for _, r := range part {
								var row value.Tuple
								var err error
								arena, row, err = projectRowAppend(ctx, items, fns, outSchema, b[r], arena)
								if err != nil {
									stats.NoteError(err)
									continue
								}
								scratch[w] = append(scratch[w], row)
							}
						}(w, idxs[lo:hi])
					}
					wg.Wait()
					rows = make(Batch, 0, len(idxs))
					for w := 0; w < ws; w++ {
						rows = append(rows, scratch[w]...)
					}
				}
				span.Exit(len(idxs), len(rows))
				if len(rows) == 0 {
					continue
				}
				select {
				case out <- rows:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
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

// ColFilterAggStage fuses the vectorized filter with aggregation:
// selected lanes fold into the same aggState as the row paths, in
// stream order, so windowing, early emission, and flush-at-end are
// identical. Count windows (WINDOW n TWEETS) gather survivors and
// delegate to the count-window operator, whose batching is the window
// itself.
func ColFilterAggStage(ev *Evaluator, conjuncts []lang.Expr, cfg AggregateConfig, inSchema *value.Schema, stats *Stats) func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
	if cfg.Window != nil && cfg.Window.Count > 0 {
		filter := ColFilterStage(ev, conjuncts, inSchema, stats)
		inner := countWindowStage(ev, cfg, stats)
		return func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
			return inner(ctx, FromBatches()(ctx, filter(ctx, in)))
		}
	}
	sp := stats.StageProf("aggregate", aggLabel(cfg), "vec")
	return func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
			f := newColFilter(ev, conjuncts, inSchema, stats)
			st := newAggState(ev, cfg, stats)
			emitted := 0
			emit := func(row value.Tuple) bool {
				select {
				case out <- row:
					emitted++
					return true
				case <-ctx.Done():
					return false
				}
			}
			for b := range in {
				if ctx.Err() != nil {
					return
				}
				sel, kept := f.apply(ctx, b, inSchema)
				span := sp.Enter()
				emitted = 0
				for w, word := range sel {
					for word != 0 {
						i := bits.TrailingZeros64(word)
						word &^= 1 << uint(i)
						if !st.observe(ctx, b[w*64+i], emit) {
							return
						}
					}
				}
				span.Exit(kept, emitted)
			}
			st.flush(emit)
		}()
		return out
	}
}
