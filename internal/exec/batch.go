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
// Tuple order within a batch is the stream order; batch-aware stages
// preserve it, so a batched pipeline emits exactly the rows, in exactly
// the order, of its tuple-at-a-time equivalent.
type Batch = []value.Tuple

// BatchStage is a channel-to-channel operator over batches, the batched
// counterpart of Stage. One channel transfer per batch instead of one
// per tuple is what buys the throughput (the per-send synchronization
// amortizes over the batch).
type BatchStage func(ctx context.Context, in <-chan Batch) <-chan Batch

// ChainBatches composes batch stages left to right.
func ChainBatches(stages ...BatchStage) BatchStage {
	return func(ctx context.Context, in <-chan Batch) <-chan Batch {
		cur := in
		for _, s := range stages {
			cur = s(ctx, cur)
		}
		return cur
	}
}

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

// FromBatches flattens batches back into a tuple stream, in order. It
// stops early only when ctx ends.
func FromBatches() func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
	return func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
			for b := range in {
				for _, t := range b {
					select {
					case out <- t:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
		return out
	}
}

// Terminal is the terminal stage of every batch-shaped pipeline, run in
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

// TerminalRowStage is Terminal for the tuple-shaped pipelines
// (aggregate, async projection, join, BatchSize=1), as a stage of its
// own: RowsOut, one lag observation per row (an aggregate row's event
// time is its window end, so its lag is the window's staleness) and
// LIMIT. The cut cancels once the last row is in the output channel; a
// consumer that reads until the channel closes, rather than until ctx
// ends, receives every admitted row.
func TerminalRowStage(limit int, cancel context.CancelFunc, stats *Stats) Stage {
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
			if limit == 0 {
				cancel()
				return
			}
			n := 0
			for t := range in {
				select {
				case out <- t:
				case <-ctx.Done():
					return
				}
				stats.RowsOut.Add(1)
				stats.ObserveLag(t.TS, 1)
				if n++; n == limit {
					cancel()
					return
				}
			}
		}()
		return out
	}
}

// BatchCountStage ticks RowsIn for every tuple inside each passing
// batch, the batched counterpart of CountStage. Its obs stage is the
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

// BatchFilterStage is the batch-aware FilterStage: one channel transfer
// per batch, with the same conjunction semantics (including the
// eddy-routed adaptive order when adaptive is set). workers > 1 shards
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

// BatchProjectStage is the batch-aware ProjectStage: evaluates the
// select list over whole batches, sharding across workers when workers
// > 1. Rows that fail to evaluate drop (with the error noted), exactly
// as in the tuple path; output order matches input order.
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

// BatchAggregateStage consumes batches at the window/aggregation
// boundary, folding each batch's tuples in stream order through the
// same aggState as the tuple path — so windowing, confidence-triggered
// early emission, and flush-at-end semantics are identical. Output is a
// tuple stream (aggregate output rates are low; batching it buys
// nothing). Count windows delegate through an internal unbatcher since
// their batching is the window itself.
func BatchAggregateStage(ev *Evaluator, cfg AggregateConfig, stats *Stats) func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
	if cfg.Window != nil && cfg.Window.Count > 0 {
		inner := countWindowStage(ev, cfg, stats)
		return func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
			return inner(ctx, FromBatches()(ctx, in))
		}
	}
	sp := stats.StageProf("aggregate", aggLabel(cfg), "batch")
	return func(ctx context.Context, in <-chan Batch) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
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
				span := sp.Enter()
				emitted = 0
				for _, t := range b {
					if !st.observe(ctx, t, emit) {
						return
					}
				}
				span.Exit(len(b), emitted)
			}
			st.flush(emit)
		}()
		return out
	}
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
