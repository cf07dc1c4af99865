package exec

import (
	"context"
	"strconv"
	"sync"
	"time"

	"tweeql/internal/asyncop"
	"tweeql/internal/catalog"
	"tweeql/internal/eddy"
	"tweeql/internal/lang"
	"tweeql/internal/value"
)

// Batch is a chunk of tuples moved through the pipeline in one channel
// transfer. It is an alias (not a defined type) so sources in other
// packages can produce batches without importing exec.
//
// Batches are the only stream between stages: a single row travels as
// a batch of one. Tuple order within a batch is the stream order and
// every single-input stage preserves it, so such a pipeline emits the
// same rows, in the same order, at any batch size (JoinStage documents
// its own order).
type Batch = []value.Tuple

// BatchStage is a channel-to-channel operator over batches. One channel
// transfer per batch instead of one per tuple is what buys the
// throughput (the per-send synchronization amortizes over the batch).
type BatchStage func(ctx context.Context, in <-chan Batch) <-chan Batch

// ToBatches groups a tuple stream into batches of up to size tuples.
// flushEvery bounds how long a partial batch may wait before being
// delivered downstream (0 = deliver only full batches and the final
// partial batch at stream end). The final partial batch always flushes
// on input close; empty batches are never emitted.
func ToBatches(size int, flushEvery time.Duration) func(ctx context.Context, in <-chan value.Tuple) <-chan Batch {
	return func(ctx context.Context, in <-chan value.Tuple) <-chan Batch {
		return asyncop.Chunk(ctx, in, size, flushEvery)
	}
}

// Terminal is the terminal stage of every pipeline, run in
// the goroutine of whoever consumes it: it hands each batch from in to
// deliver, whole, so a sink receives batches with no further hop. It is
// the one place the pipeline counts RowsOut, records watermark lag (now
// minus the batch's minimum event timestamp, weighted by its rows) and
// enforces LIMIT. limit < 0 means unlimited. Otherwise exactly limit
// rows are delivered: the batch the limit falls inside is trimmed, and
// only after deliver has returned with it does Terminal call cancel, so
// upstream stages unwind without racing the last rows. deliver returns
// false when its consumer has gone, which ends the stage.
func Terminal(in <-chan Batch, limit int, cancel context.CancelFunc, stats *Stats, deliver func(Batch) bool) {
	if limit == 0 {
		cancel()
		return
	}
	left := limit
	for b := range in {
		cut := left >= 0 && len(b) >= left
		if cut {
			b = b[:left:left]
		}
		if !deliver(b) {
			return
		}
		stats.RowsOut.Add(int64(len(b)))
		stats.ObserveLag(minEventTS(b), len(b))
		if cut {
			cancel()
			return
		}
		if left > 0 {
			left -= len(b)
		}
	}
}

// BatchCountStage ticks RowsIn for every tuple inside each passing
// batch, placed right after the source. Its obs stage is the
// pipeline's "scan" operator: each span times the wait for the source
// (or shared-scan fan-out) to produce the next batch, so a
// scan-dominated profile reads as ingest-bound rather than CPU-bound.
func BatchCountStage(stats *Stats) BatchStage {
	sp := stats.StageProf("scan", "source", "batch")
	return func(ctx context.Context, in <-chan Batch) <-chan Batch {
		out := make(chan Batch, 4)
		go func() {
			defer close(out)
			for {
				span := sp.Enter()
				b, ok := <-in
				if !ok {
					return
				}
				span.Exit(len(b), len(b))
				stats.RowsIn.Add(int64(len(b)))
				select {
				case out <- b:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}
}

// minEventTS is the batch's minimum non-zero event timestamp (zero
// when no row carries one) — the watermark the lag histograms track.
func minEventTS(b Batch) time.Time {
	var min time.Time
	for i := range b {
		ts := b[i].TS
		if ts.IsZero() {
			continue
		}
		if min.IsZero() || ts.Before(min) {
			min = ts
		}
	}
	return min
}

// shard is one contiguous chunk of a batch assigned to a worker, plus
// the slot its survivors land in so chunk order (and therefore stream
// order) is preserved on reassembly.
type shard struct {
	in  Batch
	out *Batch
}

// shardBatch splits a batch into at most workers contiguous chunks of
// near-equal size.
func shardBatch(b Batch, workers int, outs []Batch) []shard {
	n := len(b)
	if workers > n {
		workers = n
	}
	shards := make([]shard, 0, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		outs[w] = outs[w][:0]
		shards = append(shards, shard{in: b[lo:hi], out: &outs[w]})
	}
	return shards
}

// BatchFilterStage applies a conjunction of predicates, one channel
// transfer per batch. With two or more conjuncts and adaptive set it
// routes rows through an eddy, so the evaluation order tracks observed
// selectivities; otherwise conjuncts run in query order. costs must
// parallel conjuncts (see CostOf). workers > 1 shards
// each batch across a worker pool for CPU-bound predicates and UDFs;
// each worker owns its own eddy (seeded seed+worker) so adaptive
// routing needs no locking, and survivors reassemble in stream order.
// Conjuncts compile once against inSchema; the resulting closures are
// stateless and shared across all workers.
func BatchFilterStage(ev *Evaluator, conjuncts []lang.Expr, inSchema *value.Schema, costs []float64, adaptive bool, seed int64, workers int, stats *Stats) BatchStage {
	if workers < 1 {
		workers = 1
	}
	fns := ev.BindAll(conjuncts, inSchema)
	sp := stats.StageProf("filter", filterLabel(len(conjuncts)), "batch")
	// mkApply builds one worker's chunk filter: it appends survivors of
	// in to out, ticking Dropped for the rest. Each worker owns its
	// closure (and, in the adaptive case, its own eddy), so no locking.
	mkApply := func(workerSeed int64) func(ctx context.Context, in Batch, out *Batch) {
		mkPred := func(i int) func(context.Context, value.Tuple) bool {
			fn := fns[i]
			return func(ctx context.Context, t value.Tuple) bool {
				v, err := fn(ctx, t)
				if err != nil {
					stats.NoteError(err)
					return false
				}
				return !v.IsNull() && v.Truthy()
			}
		}
		if adaptive && len(conjuncts) > 1 {
			filters := make([]eddy.Filter[value.Tuple], len(conjuncts))
			var ctx context.Context // rebound per apply call below
			for i := range conjuncts {
				cost := 1.0
				if i < len(costs) {
					cost = costs[i]
				}
				pred := mkPred(i)
				filters[i] = eddy.Filter[value.Tuple]{
					Name: conjuncts[i].String(),
					Pred: func(t value.Tuple) bool { return pred(ctx, t) },
					Cost: cost,
				}
			}
			ed := eddy.New(filters, eddy.WithSeed[value.Tuple](workerSeed))
			var keep []bool
			return func(c context.Context, in Batch, out *Batch) {
				ctx = c
				if cap(keep) < len(in) {
					keep = make([]bool, len(in))
				}
				k := keep[:len(in)]
				kept := ed.ProcessBatch(in, k)
				stats.Dropped.Add(int64(len(in) - kept))
				for i, t := range in {
					if k[i] {
						*out = append(*out, t)
					}
				}
			}
		}
		preds := make([]func(context.Context, value.Tuple) bool, len(conjuncts))
		for i := range conjuncts {
			preds[i] = mkPred(i)
		}
		return func(ctx context.Context, in Batch, out *Batch) {
			for _, t := range in {
				pass := true
				for _, p := range preds {
					if !p(ctx, t) {
						pass = false
						break
					}
				}
				if pass {
					*out = append(*out, t)
				} else {
					stats.Dropped.Add(1)
				}
			}
		}
	}
	return func(ctx context.Context, in <-chan Batch) <-chan Batch {
		out := make(chan Batch, 4)
		go func() {
			defer close(out)
			applies := make([]func(context.Context, Batch, *Batch), workers)
			for w := range applies {
				applies[w] = mkApply(seed + int64(w))
			}
			scratch := make([]Batch, workers)
			for b := range in {
				if ctx.Err() != nil {
					return
				}
				span := sp.Enter()
				var kept Batch
				if workers == 1 || len(b) < 2*workers {
					// The batch is ours once received: filter in place.
					kept = b[:0]
					applies[0](ctx, b, &kept)
				} else {
					shards := shardBatch(b, workers, scratch)
					var wg sync.WaitGroup
					for w, sh := range shards {
						wg.Add(1)
						go func(w int, sh shard) {
							defer wg.Done()
							applies[w](ctx, sh.in, sh.out)
						}(w, sh)
					}
					wg.Wait()
					kept = b[:0]
					for _, sh := range shards {
						kept = append(kept, *sh.out...)
					}
				}
				span.Exit(len(b), len(kept))
				if len(kept) == 0 {
					continue
				}
				select {
				case out <- kept:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}
}

// BatchProjectStage evaluates the select list over whole batches,
// sharding across workers when workers > 1. Rows that fail to evaluate
// drop, with the error noted; output order matches input order.
func BatchProjectStage(ev *Evaluator, items []ProjItem, inSchema *value.Schema, workers int, stats *Stats) BatchStage {
	outSchema := ProjectSchema(items, inSchema)
	fns := bindItems(ev, items, inSchema)
	if workers < 1 {
		workers = 1
	}
	sp := stats.StageProf("project", strconv.Itoa(len(items))+" items", "batch")
	return func(ctx context.Context, in <-chan Batch) <-chan Batch {
		out := make(chan Batch, 4)
		go func() {
			defer close(out)
			scratch := make([]Batch, workers)
			for b := range in {
				if ctx.Err() != nil {
					return
				}
				span := sp.Enter()
				var rows Batch
				if workers == 1 || len(b) < 2*workers {
					// One arena of value cells per batch (see
					// projectRowAppend): the whole batch's output rows
					// cost two allocations, not two per row.
					arena := make([]value.Value, 0, len(b)*outSchema.Len())
					rows = make(Batch, 0, len(b))
					for _, t := range b {
						var row value.Tuple
						var err error
						arena, row, err = projectRowAppend(ctx, items, fns, outSchema, t, arena)
						if err != nil {
							stats.NoteError(err)
							continue
						}
						rows = append(rows, row)
					}
				} else {
					shards := shardBatch(b, workers, scratch)
					var wg sync.WaitGroup
					for _, sh := range shards {
						wg.Add(1)
						go func(sh shard) {
							defer wg.Done()
							arena := make([]value.Value, 0, len(sh.in)*outSchema.Len())
							for _, t := range sh.in {
								var row value.Tuple
								var err error
								arena, row, err = projectRowAppend(ctx, items, fns, outSchema, t, arena)
								if err != nil {
									stats.NoteError(err)
									continue
								}
								*sh.out = append(*sh.out, row)
							}
						}(sh)
					}
					wg.Wait()
					rows = make(Batch, 0, len(b))
					for _, sh := range shards {
						rows = append(rows, *sh.out...)
					}
				}
				span.Exit(len(b), len(rows))
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

// BatchAggregateStage implements windowed grouped aggregation on the
// row-batch path. Tuples fold into per-(window, group) buckets; buckets
// emit when event time passes the window end, when the confidence
// trigger fires (early), or at stream end. Count windows (WINDOW n
// TWEETS) emit every n input rows instead — the §2 alternative whose
// staleness E3's ablation measures. The fold and emit loop is
// ColFilterAggStage's, without its filter.
func BatchAggregateStage(ev *Evaluator, cfg AggregateConfig, stats *Stats) BatchStage {
	return aggregateStage(ev, nil, cfg, cfg.InSchema, "batch", stats)
}

// HasStateful reports whether any expression calls a stateful UDF.
// Stateful UDFs fold running state across calls in stream order, so
// stages evaluating them must not shard work across goroutines.
func HasStateful(cat *catalog.Catalog, exprs ...lang.Expr) bool {
	found := false
	for _, expr := range exprs {
		lang.Walk(expr, func(n lang.Expr) bool {
			if c, ok := n.(*lang.Call); ok {
				if _, ok := cat.Stateful(c.Name); ok {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}
