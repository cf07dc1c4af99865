package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/exec"
	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/plan"
	"tweeql/internal/store"
	"tweeql/internal/value"
)

// execute assembles and starts the operator pipeline for a plan.
func (e *Engine) execute(ctx context.Context, cancel context.CancelFunc, stmt *lang.SelectStmt, p *plan.Query) (*Cursor, error) {
	ev := exec.NewEvaluator(e.cat)
	ev.EnableCompile(!e.abl.Interpret)
	// Pre-compile every literal MATCHES pattern before evaluation
	// starts, so the interpreter path never compiles (or locks) on the
	// hot path either.
	ev.PrepareRegexes(planExprs(stmt, p)...)
	stats := &exec.Stats{}
	if e.opts.Profiling {
		// One profile per query run: stages register themselves on it as
		// the pipeline assembles, in pipeline order. The trace sample set
		// is a deterministic function of (TraceSampleEvery, Seed).
		stats.Profile = obs.NewProfile(fmt.Sprintf("q%d", e.qseq.Add(1)), obs.ProfileOptions{
			TraceEveryN: e.opts.TraceSampleEvery,
			TraceSeed:   e.opts.Seed,
			TraceCap:    e.opts.TraceCap,
		})
	}
	// Stats travel on the context so the resilience wrappers around
	// web-service UDFs (deep below the stage API) can tick this query's
	// degraded counter when they substitute NULL for a failed call.
	ctx = exec.WithStats(ctx, stats)

	cur := &Cursor{stmt: stmt, plan: p, stats: stats, cancel: cancel,
		drained: make(chan struct{})}

	var rows <-chan value.Tuple
	var err error
	if p.Join != nil {
		rows, err = e.openJoin(ctx, cancel, ev, stmt, p, stats, cur)
	} else {
		rows, err = e.openSingle(ctx, cancel, ev, stmt, p, stats, cur)
	}
	if err != nil {
		return nil, err
	}

	// INTO routing: results feed the named target; the cursor itself
	// closes immediately (documented on Rows) and Drained signals when
	// the target has received — and, for persistent tables, flushed —
	// the final row. Routing errors land in Stats().Err().
	if stmt.Into != nil && stmt.Into.Kind != lang.IntoStdout {
		empty := make(chan value.Tuple)
		close(empty)
		cur.rows = empty
		switch stmt.Into.Kind {
		case lang.IntoStream:
			ds := catalog.NewDerivedStream(stmt.Into.Name, cur.schema)
			e.cat.RegisterSource(stmt.Into.Name, ds)
			go e.routeToStream(rows, ds, stats, cur.drained)
		case lang.IntoTable:
			table, err := e.cat.OpenTable(stmt.Into.Name)
			if err != nil {
				cancel()
				return nil, err
			}
			go e.routeToTable(rows, table, stmt.Into.Name, stats, cur.drained)
		}
		return cur, nil
	}
	// Ordinary queries deliver through Rows, whose closure is the
	// completion signal; Drained has nothing extra to say, so it closes
	// immediately rather than taxing the hot output path with a relay
	// goroutine just to mirror the channel close.
	cur.rows = rows
	close(cur.drained)
	return cur, nil
}

// hasTimeColumn reports whether the schema declares a created_at
// column of kind time — the gate for event-timestamp range pushdown.
func hasTimeColumn(s *value.Schema) bool {
	if i, ok := s.Index("created_at"); ok {
		return s.Field(i).Kind == value.KindTime
	}
	return false
}

// DrainBatches accumulates rows into batches of up to size tuples and
// hands each (never empty, reused between calls — sinks must not
// retain it) to sink; a partial batch is delivered after flushEvery on
// a trickling stream (0 = only full batches plus the final partial
// one). It drains until rows closes — never bailing on context
// cancellation — so a LIMIT cutoff (which cancels the query context
// while its final rows are still in flight) cannot drop them. Shared
// by INTO STREAM / INTO TABLE routing and the serving layer's fan-out
// pump.
func DrainBatches(rows <-chan value.Tuple, size int, flushEvery time.Duration, sink func([]value.Tuple)) {
	if size < 1 {
		size = 1
	}
	var timer *time.Timer
	var timerC <-chan time.Time
	if flushEvery > 0 {
		timer = time.NewTimer(flushEvery)
		defer timer.Stop()
		timerC = timer.C
	}
	batch := make([]value.Tuple, 0, size)
	flush := func() {
		if len(batch) > 0 {
			sink(batch)
			batch = batch[:0]
		}
	}
	for {
		select {
		case t, ok := <-rows:
			if !ok {
				flush()
				return
			}
			batch = append(batch, t)
			if len(batch) >= size {
				flush()
			}
		case <-timerC:
			flush()
			timer.Reset(flushEvery)
		}
	}
}

// routeToStream forwards a query's result stream into a derived stream
// in batches — one PublishBatch (one subscriber-set traversal) per
// Options.BatchSize rows — then closes the stream (subscribers see
// end-of-stream after draining their buffers) and signals drained.
func (e *Engine) routeToStream(rows <-chan value.Tuple, ds *catalog.DerivedStream, stats *exec.Stats, drained chan struct{}) {
	defer close(drained)
	defer ds.CloseStream()
	sp := stats.StageProf("sink", "stream "+ds.Name(), "batch")
	DrainBatches(rows, e.opts.BatchSize, e.opts.BatchFlushEvery, func(batch []value.Tuple) {
		span := sp.Enter()
		ds.PublishBatch(batch)
		span.Exit(len(batch), len(batch))
	})
}

// routeToTable forwards a query's result stream into a table in
// batches: one AppendBatch per Options.BatchSize rows, a final Flush
// at end of stream, and the drained channel closed last. Append and
// flush errors land in the query's stats — except a read-only sink
// (the store degraded after exhausted write retries), which counts the
// lost rows as degraded and keeps draining: the query itself is
// healthy, its sink is not, and it must not wedge or die for it.
func (e *Engine) routeToTable(rows <-chan value.Tuple, table *catalog.Table, name string, stats *exec.Stats, drained chan struct{}) {
	defer close(drained)
	sp := stats.StageProf("sink", "table "+name, "batch")
	// sinkDegraded covers both failure shapes: batches rejected by an
	// already-read-only table, and the batch whose own exhausted write
	// retries flipped it (that error carries the write failure, not
	// ErrReadOnly — the table's health is the tell).
	sinkDegraded := func(err error) bool {
		return errors.Is(err, store.ErrReadOnly) || table.Healthy() != nil
	}
	DrainBatches(rows, e.opts.BatchSize, e.opts.BatchFlushEvery, func(batch []value.Tuple) {
		span := sp.Enter()
		err := table.AppendBatch(batch)
		if err != nil {
			span.Exit(len(batch), 0)
			if sinkDegraded(err) {
				stats.Degraded.Add(int64(len(batch)))
				return
			}
			stats.NoteError(err)
			return
		}
		span.Exit(len(batch), len(batch))
	})
	if err := table.Flush(); err != nil && !sinkDegraded(err) {
		stats.NoteError(err)
	}
}

// openScanStream opens the physical (or shared) scan for a
// single-source plan: the batch/tuple stream, the open info, and the
// stable key of the conjunct the scan's pushed filter already
// enforces (""= nothing pushed). Exactly one of batches/rows is
// non-nil, matching the engine's batching mode.
func (e *Engine) openScanStream(ctx context.Context, src catalog.Source, p *plan.Query, stats *exec.Stats, cur *Cursor) (batches <-chan exec.Batch, rows <-chan value.Tuple, info *catalog.OpenInfo, pushedKey string, err error) {
	batching := e.opts.BatchSize > 1

	// Shared path: live sources join (or open) the ref-counted scan for
	// the plan's signature. One physical subscription and one
	// conversion pipeline serve every attached query.
	if !e.abl.PrivateScans && isLiveSource(src) {
		b, i, scan, err := e.attachShared(ctx, src, p, stats)
		if err != nil {
			return nil, nil, nil, "", err
		}
		cur.scan = scan
		b = exec.BatchCountStage(stats)(ctx, b)
		if !batching {
			return nil, exec.FromBatches()(ctx, b), i, scan.pushedKey, nil
		}
		return b, nil, i, scan.pushedKey, nil
	}

	// Private path: this query owns the source subscription.
	req := catalog.OpenRequest{SampleSize: e.opts.SampleSize, Buffer: e.opts.SourceBuffer,
		OnError: stats.NoteError}
	// Time-range pushdown is sound only when the created_at column IS
	// the event timestamp rows are partitioned on. The schema gate
	// enforces it: only a source declaring created_at as KindTime gets
	// the bounds (an aliased `text AS created_at` arrives as KindString
	// or dynamic, and its range predicate then runs purely as the
	// residual filter it is).
	if hasTimeColumn(src.Schema()) {
		req.From, req.To = p.TimeFrom, p.TimeTo
	}
	for _, c := range p.Candidates {
		req.Candidates = append(req.Candidates, c.Filter)
	}

	if batching {
		// Sources that can pre-batch skip the per-tuple source channel
		// entirely; the rest get batched right at the boundary.
		if bs, ok := src.(catalog.BatchSource); ok {
			batches, info, err = bs.OpenBatches(ctx, req, catalog.BatchOptions{
				Size:       e.opts.BatchSize,
				FlushEvery: e.opts.BatchFlushEvery,
				Workers:    e.opts.BatchWorkers,
				Columns:    p.Columns,
			})
		} else {
			var in <-chan value.Tuple
			in, info, err = src.Open(ctx, req)
			if err == nil {
				batches = exec.ToBatches(e.opts.BatchSize, e.opts.BatchFlushEvery)(ctx, in)
			}
		}
		if err != nil {
			return nil, nil, nil, "", err
		}
		batches = exec.BatchCountStage(stats)(ctx, batches)
	} else {
		var in <-chan value.Tuple
		in, info, err = src.Open(ctx, req)
		if err != nil {
			return nil, nil, nil, "", err
		}
		rows = exec.CountStage(stats)(ctx, in)
	}
	if info != nil && info.Pushed && info.ChosenIdx >= 0 && info.ChosenIdx < len(p.Candidates) {
		pushedKey = p.CandidateKey(info.ChosenIdx)
	}
	return batches, rows, info, pushedKey, nil
}

// openSingle builds the pipeline for a single-source query. With
// Options.BatchSize > 1 tuples move through the hot stages (filter,
// projection) in batches — one channel transfer per batch — and the
// window/aggregation boundary consumes batches directly; results are
// identical to the tuple-at-a-time path either way.
func (e *Engine) openSingle(ctx context.Context, cancel context.CancelFunc, ev *exec.Evaluator, stmt *lang.SelectStmt, p *plan.Query, stats *exec.Stats, cur *Cursor) (<-chan value.Tuple, error) {
	src, err := e.cat.Source(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	batches, rows, info, pushedKey, err := e.openScanStream(ctx, src, p, stats, cur)
	if err != nil {
		return nil, err
	}
	cur.info = info
	batching := batches != nil

	// The schema expressions compile against must be the exact object
	// the delivered tuples carry — the pruned one when the batched
	// source honored column pruning — so pre-resolved indices hit the
	// compiled fast path on every row.
	inSchema := src.Schema()
	if info != nil && info.Schema != nil {
		inSchema = info.Schema
	}

	// Residual filter: every conjunct except the one the scan pushed.
	residual, costs := p.Residual(pushedKey)

	columnar := e.pipeline(p) == pipeColumnar
	adaptive := !e.abl.StaticFilters
	if len(residual) > 0 && !columnar {
		if batching {
			batches = exec.BatchFilterStage(ev, residual, inSchema, costs, adaptive, e.opts.Seed, e.stageWorkers(residual...), stats)(ctx, batches)
		} else {
			rows = exec.FilterStage(ev, residual, inSchema, costs, adaptive, e.opts.Seed, stats)(ctx, rows)
		}
	}

	if p.IsAggregate {
		agg := p.Agg
		agg.InSchema = inSchema
		switch {
		case columnar:
			rows = exec.ColFilterAggStage(ev, residual, agg, inSchema, stats)(ctx, batches)
		case batching:
			rows = exec.BatchAggregateStage(ev, agg, stats)(ctx, batches)
		default:
			rows = exec.AggregateStage(ev, agg, stats)(ctx, rows)
		}
		rows = applyLimit(ctx, cancel, stmt, rows)
		cur.schema = exec.AggSchema(agg)
		return rows, nil
	}

	cur.schema = exec.ProjectSchema(p.Proj, inSchema)
	projExprs := make([]lang.Expr, 0, len(p.Proj))
	for _, pi := range p.Proj {
		if pi.Expr != nil {
			projExprs = append(projExprs, pi.Expr)
		}
	}
	switch {
	case p.Async:
		// High-latency UDFs stay on the asynchronous per-tuple worker
		// pool: latency hiding, not channel amortization, is the win
		// there.
		if batching {
			rows = exec.FromBatches()(ctx, batches)
		}
		rows = exec.AsyncProjectStage(ev, p.Proj, inSchema, e.opts.AsyncWorkers, e.opts.AsyncCallTimeout, stats)(ctx, rows)
		rows = countOut(ctx, rows, stats)
		rows = applyLimit(ctx, cancel, stmt, rows)
	case columnar:
		// A shared row pins the cells of every row scanned beside it.
		// That is fine for a table scan read through the cursor — the
		// scan ends and its reader moves on — but not for an INTO target,
		// which keeps rows, nor for a live stream, whose rows can sit in
		// downstream window buffers for as long as the query runs.
		_, tableScan := src.(*catalog.Table)
		share := tableScan && (stmt.Into == nil || stmt.Into.Kind == lang.IntoStdout)
		batches = exec.ColFilterProjectStage(ev, residual, p.Proj, inSchema, e.stageWorkers(projExprs...), share, stats)(ctx, batches)
		limit := -1
		if stmt.Limit >= 0 {
			limit = stmt.Limit
		}
		rows = exec.UnbatchStage(limit, cancel, stats)(ctx, batches)
	case batching:
		batches = exec.BatchProjectStage(ev, p.Proj, inSchema, e.stageWorkers(projExprs...), stats)(ctx, batches)
		// The unbatcher is the LIMIT cutoff in batch space: it trims
		// the batch the limit falls inside and cancels upstream.
		limit := -1
		if stmt.Limit >= 0 {
			limit = stmt.Limit
		}
		rows = exec.UnbatchStage(limit, cancel, stats)(ctx, batches)
	default:
		rows = exec.ProjectStage(ev, p.Proj, inSchema, stats)(ctx, rows)
		rows = countOut(ctx, rows, stats)
		rows = applyLimit(ctx, cancel, stmt, rows)
	}
	return rows, nil
}

// pipeColumnar is the production pipeline shape: the vectorized
// path fusing filter+project / filter+aggregate over column vectors.
const pipeColumnar = "columnar"

// pipeline names the operator pipeline a plan runs on — "columnar",
// "row-batch (…)", "tuple", "async" or "join". openSingle builds the
// shape it names and EXPLAIN prints it, so the two cannot disagree.
// The columnar path needs batches, leaves high-latency UDFs to the
// async per-tuple pool, and steps aside when a stage expression calls a
// stateful UDF: its fused stages evaluate conjunct-at-a-time over
// selections, which would reorder the UDF's observation stream. The
// conjunct a scan may push is a plain CONTAINS, box or user-id test
// and never calls a UDF, so every conjunct is checked, pushed or not.
func (e *Engine) pipeline(p *plan.Query) string {
	switch {
	case p.Join != nil:
		return "join"
	case p.Async:
		return "async"
	case e.opts.BatchSize == 1:
		return "tuple"
	case e.abl.RowBatches:
		return "row-batch"
	}
	exprs := append([]lang.Expr(nil), p.Conjuncts...)
	if p.IsAggregate {
		exprs = append(exprs, p.Agg.GroupExprs...)
		for _, a := range p.Agg.Aggs {
			if a.Arg != nil {
				exprs = append(exprs, a.Arg)
			}
		}
	} else {
		for _, pi := range p.Proj {
			if pi.Expr != nil {
				exprs = append(exprs, pi.Expr)
			}
		}
	}
	if exec.HasStateful(e.cat, exprs...) {
		return "row-batch (stateful UDF)"
	}
	return pipeColumnar
}

// planExprs collects every expression the plan can evaluate, for the
// evaluator's plan-time regex pre-walk.
func planExprs(stmt *lang.SelectStmt, p *plan.Query) []lang.Expr {
	var exprs []lang.Expr
	exprs = append(exprs, p.Conjuncts...)
	exprs = append(exprs, p.Agg.GroupExprs...)
	for _, a := range p.Agg.Aggs {
		if a.Arg != nil {
			exprs = append(exprs, a.Arg)
		}
	}
	for _, pi := range p.Proj {
		if pi.Expr != nil {
			exprs = append(exprs, pi.Expr)
		}
	}
	if stmt.Join != nil {
		exprs = append(exprs, stmt.Join.On)
	}
	return exprs
}

// stageWorkers decides the worker-pool width for one batch stage:
// Options.BatchWorkers, unless the stage's expressions call a stateful
// UDF (whose running state requires stream-ordered evaluation).
func (e *Engine) stageWorkers(exprs ...lang.Expr) int {
	if e.opts.BatchWorkers > 1 && exec.HasStateful(e.cat, exprs...) {
		return 1
	}
	return e.opts.BatchWorkers
}

// applyLimit caps rows at stmt.Limit, cancelling upstream on cutoff.
func applyLimit(ctx context.Context, cancel context.CancelFunc, stmt *lang.SelectStmt, rows <-chan value.Tuple) <-chan value.Tuple {
	if stmt.Limit < 0 {
		return rows
	}
	return exec.LimitStage(stmt.Limit, cancel)(ctx, rows)
}

// openJoin builds the pipeline for FROM a JOIN b ON ... WINDOW w. The
// join operator interleaves two sources tuple-at-a-time by event time,
// so this path does not batch — and both sides stay private scans (a
// shared fan-out has no pairing between the two sides' attach times).
func (e *Engine) openJoin(ctx context.Context, cancel context.CancelFunc, ev *exec.Evaluator, stmt *lang.SelectStmt, p *plan.Query, stats *exec.Stats, cur *Cursor) (<-chan value.Tuple, error) {
	leftSrc, err := e.cat.Source(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	rightSrc, err := e.cat.Source(p.Join.Right)
	if err != nil {
		return nil, err
	}

	req := catalog.OpenRequest{Buffer: e.opts.SourceBuffer, OnError: stats.NoteError}
	leftIn, info, err := leftSrc.Open(ctx, req)
	if err != nil {
		return nil, err
	}
	rightIn, _, err := rightSrc.Open(ctx, req)
	if err != nil {
		return nil, err
	}
	cur.info = info

	cfg := exec.JoinConfig{
		LeftBinding:  p.Join.LeftBinding,
		RightBinding: p.Join.RightBinding,
		LeftKey:      p.Join.LeftKey,
		RightKey:     p.Join.RightKey,
		Window:       p.Join.Window,
	}
	// Build the joined schema once and hand the same object to the join
	// and every downstream stage: compiled column indices stay on the
	// fast path because output tuples carry this exact pointer.
	joined := exec.JoinSchema(leftSrc.Schema(), rightSrc.Schema(), cfg)
	cfg.OutSchema = joined
	rows := exec.JoinStage(ev, leftIn, rightIn, leftSrc.Schema(), rightSrc.Schema(), cfg, stats)

	if len(p.Conjuncts) > 0 {
		rows = exec.FilterStage(ev, p.Conjuncts, joined, p.Costs, !e.abl.StaticFilters, e.opts.Seed, stats)(ctx, rows)
	}
	cur.schema = exec.ProjectSchema(p.Proj, joined)
	if p.Async {
		rows = exec.AsyncProjectStage(ev, p.Proj, joined, e.opts.AsyncWorkers, e.opts.AsyncCallTimeout, stats)(ctx, rows)
	} else {
		rows = exec.ProjectStage(ev, p.Proj, joined, stats)(ctx, rows)
	}
	rows = countOut(ctx, rows, stats)
	rows = applyLimit(ctx, cancel, stmt, rows)
	return rows, nil
}

// countOut counts delivered rows and records each row's
// ingest→delivery watermark lag. It terminates the tuple-at-a-time
// pipeline shapes (project, async, join); the batched shape records
// both in UnbatchStage, and aggregates record at window emit — so
// every delivered row hits exactly one lag observation point.
func countOut(ctx context.Context, in <-chan value.Tuple, stats *exec.Stats) <-chan value.Tuple {
	out := make(chan value.Tuple, 64)
	go func() {
		defer close(out)
		for t := range in {
			stats.RowsOut.Add(1)
			stats.ObserveLag(t.TS, 1)
			select {
			case out <- t:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
