package exec

import (
	"context"
	"time"

	"tweeql/internal/value"
)

// Batch is a chunk of tuples moved through the pipeline in one step. It
// is an alias (not a defined type) so sources in other packages can
// produce batches without importing exec.
//
// Batches are the only stream between operators: a single row travels
// as a batch of one. Tuple order within a batch is the stream order and
// every single-input operator preserves it, so such a pipeline emits
// the same rows, in the same order, at any batch size (Join documents
// its own order). That holds for plans calling a stateful UDF
// too: their operators take each batch one row at a time (see
// colFilter).
type Batch = []value.Tuple

// Operator is a query's tail between its input and Terminal, called in
// the consumer's goroutine. Push takes one input batch and hands what it
// emits to emit; Flush emits what is still open at end of stream. Both
// return false once emit has: the query has ended and the operator
// stops.
type Operator interface {
	Push(ctx context.Context, b Batch, emit func(Batch) bool) bool
	Flush(emit func(Batch) bool) bool
}

// Map is a stateless Operator: each input batch maps to one output
// batch, and an empty one emits nothing.
type Map func(ctx context.Context, b Batch) Batch

// Push implements Operator.
func (m Map) Push(ctx context.Context, b Batch, emit func(Batch) bool) bool {
	if out := m(ctx, b); len(out) > 0 {
		return emit(out)
	}
	return true
}

// Flush implements Operator: a Map holds nothing back.
func (Map) Flush(func(Batch) bool) bool { return true }

// ScanInput wraps next, a query's read of its scan, so that each batch
// it yields counts toward RowsIn and each wait is timed as the query's
// one "scan" stage: a scan-dominated profile thus reads as ingest-bound
// rather than CPU-bound. A join counts its own inputs instead.
func ScanInput(stats *Stats, next func() (Batch, bool)) func() (Batch, bool) {
	sp := stats.StageProf("scan", "source", "batch")
	return func() (Batch, bool) {
		span := sp.Enter()
		b, ok := next()
		if ok {
			span.Exit(len(b), len(b))
			stats.RowsIn.Add(int64(len(b)))
		}
		return b, ok
	}
}

// Terminal runs a query in the goroutine of whoever consumes it: it
// pulls each input batch through next (false = end of stream, or the
// query ended), passes it through op (nil passes batches on as they
// are), and hands what op emits to deliver, whole, so a sink receives
// batches with no further hop. At end of stream it flushes op, unless
// ctx has ended. It is the one place the pipeline counts RowsOut,
// records watermark lag (now minus the batch's minimum event timestamp,
// weighted by its rows) and enforces LIMIT. limit < 0 means unlimited.
// Otherwise exactly limit rows are delivered: the batch the limit falls
// inside is trimmed, and only after deliver has returned with it does
// Terminal call cancel, so producers unwind without racing the last
// rows. deliver returns false when its consumer has gone, which ends
// the query. deliver owns each batch it is handed and may keep it (a
// derived stream does): with op nil that is the input batch itself, so
// next must hand over batches it does not write again, and Terminal
// only reads a batch after deliver returns.
func Terminal(ctx context.Context, next func() (Batch, bool), op Operator, limit int, cancel context.CancelFunc, stats *Stats, deliver func(Batch) bool) {
	if limit == 0 {
		cancel()
		return
	}
	left := limit
	emit := func(b Batch) bool {
		cut := left >= 0 && len(b) >= left
		if cut {
			b = b[:left:left]
		}
		if !deliver(b) {
			return false
		}
		stats.RowsOut.Add(int64(len(b)))
		stats.ObserveLag(minEventTS(b), len(b))
		if cut {
			cancel()
			return false
		}
		if left > 0 {
			left -= len(b)
		}
		return true
	}
	for {
		b, ok := next()
		if !ok {
			break
		}
		if op == nil {
			ok = emit(b)
		} else {
			ok = op.Push(ctx, b, emit)
		}
		if !ok {
			return
		}
	}
	if op != nil && ctx.Err() == nil {
		op.Flush(emit)
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
