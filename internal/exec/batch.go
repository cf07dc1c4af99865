package exec

import (
	"context"
	"time"

	"tweeql/internal/asyncop"
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
// its own order). That holds for plans calling a stateful UDF too:
// their stages take each batch one row at a time (see colFilter).
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
