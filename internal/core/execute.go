package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

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

	// INTO TABLE resolves its target first: whether the backend keeps
	// the rows it is given decides whether projection may share cells.
	var table *catalog.Table
	if stmt.Into != nil && stmt.Into.Kind == lang.IntoTable {
		var err error
		if table, err = e.cat.OpenTable(stmt.Into.Name); err != nil {
			return nil, err
		}
	}

	// The pipeline runs under a child context, which a LIMIT cut cancels
	// to unwind the producers once Terminal has delivered the last row.
	pctx, cut := context.WithCancel(ctx)
	cur.ctx, cur.cut = pctx, cut
	if err := e.openSingle(pctx, ev, stmt, p, stats, cur, table); err != nil {
		cut()
		return nil, err
	}

	// INTO routing: results feed the named target; the cursor's views
	// are empty (documented on Rows) and Drained signals when the target
	// has received — and, for persistent tables, flushed — the final row.
	// Routing errors land in Stats().Err().
	if cur.Routed() {
		cur.viewed.Store(true)
		if table != nil {
			go routeToTable(cur, table, stmt.Into.Name)
		} else {
			ds := catalog.NewDerivedStream(stmt.Into.Name, cur.schema)
			e.cat.RegisterSource(stmt.Into.Name, ds)
			go routeToStream(cur, ds)
		}
		return cur, nil
	}
	// Ordinary queries deliver through Rows or Batches, whose end is the
	// completion signal; Drained has nothing extra to say, so it
	// closes immediately.
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

// routeToStream publishes a query's result batches into a derived
// stream — one PublishBatch (one subscriber-set traversal) per batch —
// then closes the stream (subscribers see end-of-stream after draining
// their buffers) and signals drained. The stream keeps each batch:
// Terminal hands deliver batches nobody writes afterwards (an operator's
// fresh output, or with no operator the input batch itself, which its
// source handed over), and Terminal itself only reads it after deliver.
func routeToStream(cur *Cursor, ds *catalog.DerivedStream) {
	defer close(cur.drained)
	defer ds.CloseStream()
	sp := cur.stats.StageProf("sink", "stream "+ds.Name(), "batch")
	cur.run(func(batch exec.Batch) bool {
		span := sp.Enter()
		ds.PublishBatch(batch)
		span.Exit(len(batch), len(batch))
		return true
	})
}

// routeToTable appends a query's result batches to a table, one
// AppendBatch per batch, then a final Flush at end of stream, and
// closes drained last. Append and flush errors land in the query's
// stats — except a read-only sink (the store degraded after exhausted
// write retries), which counts the lost rows as degraded and keeps
// draining: the query itself is healthy, its sink is not, and it must
// not wedge or die for it.
func routeToTable(cur *Cursor, table *catalog.Table, name string) {
	defer close(cur.drained)
	stats := cur.stats
	sp := stats.StageProf("sink", "table "+name, "batch")
	// sinkDegraded covers both failure shapes: batches rejected by an
	// already-read-only table, and the batch whose own exhausted write
	// retries flipped it (that error carries the write failure, not
	// ErrReadOnly — the table's health is the tell).
	sinkDegraded := func(err error) bool {
		return errors.Is(err, store.ErrReadOnly) || table.Healthy() != nil
	}
	cur.run(func(batch exec.Batch) bool {
		span := sp.Enter()
		if err := table.AppendBatch(batch); err != nil {
			span.Exit(len(batch), 0)
			if sinkDegraded(err) {
				stats.Degraded.Add(int64(len(batch)))
			} else {
				stats.NoteError(err)
			}
			return true
		}
		span.Exit(len(batch), len(batch))
		return true
	})
	if err := table.Flush(); err != nil && !sinkDegraded(err) {
		stats.NoteError(err)
	}
}

// scanRead is a query's read of its scan: the next batch, false at the
// end of the scan or of the query, and an empty batch if wait ends
// first. Given polled, it returns at once.
type scanRead func(wait context.Context) (exec.Batch, bool)

// polled is an ended context: the wait of a read that must not block.
var polled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// openScanStream opens the scan of src for a single-source plan or one
// side of a join: the query's read of it, a shared scan's wake channel,
// the open info, and the stable key of the conjunct the scan's pushed
// filter already enforces (""= nothing pushed).
func (e *Engine) openScanStream(ctx context.Context, src catalog.Source, p *plan.Query, stats *exec.Stats, cur *Cursor) (read scanRead, wake <-chan struct{}, info *catalog.OpenInfo, pushed string, err error) {
	// Shared path: live sources join (or open) the ref-counted scan for
	// the plan's signature. One physical subscription and one
	// conversion pipeline serve every attached query.
	if !e.abl.PrivateScans && isLiveSource(src) {
		scan, err := e.attachShared(src, p)
		if err != nil {
			return nil, nil, nil, "", err
		}
		cur.scan = scan
		read, wake := scan.attach(ctx, e.opts, stats)
		return read, wake, scan.info, scan.pushedKey, nil
	}

	// Private path: this query owns the source subscription, pruned to
	// the columns the plan references.
	req := e.openRequest(src, p, stats.NoteError)
	req.Columns = p.Columns
	batches, info, err := src.Open(ctx, req)
	if err != nil {
		return nil, nil, nil, "", err
	}
	return recv(ctx, batches), nil, info, pushedKey(p, info), nil
}

// openRequest builds the request a scan of src for plan p opens with:
// the plan's pushdown candidates and time range, and batches of
// Options.BatchSize rows. Columns stays nil (every column).
func (e *Engine) openRequest(src catalog.Source, p *plan.Query, onError func(error)) catalog.OpenRequest {
	req := catalog.OpenRequest{
		SampleSize: e.opts.SampleSize,
		Buffer:     e.opts.SourceBuffer,
		OnError:    onError,
		Size:       e.opts.BatchSize,
		FlushEvery: e.opts.BatchFlushEvery,
		Workers:    e.opts.BatchWorkers,
	}
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
	return req
}

// pushedKey is the stable key of the conjunct the filter info reports
// pushed already enforces, "" when nothing was pushed.
func pushedKey(p *plan.Query, info *catalog.OpenInfo) string {
	if info.Pushed && info.ChosenIdx >= 0 && info.ChosenIdx < len(p.Candidates) {
		return p.CandidateKey(info.ChosenIdx)
	}
	return ""
}

// recv is the read of a producer goroutine's batch channel, which ends
// when the channel closes or ctx ends.
func recv(ctx context.Context, ch <-chan exec.Batch) scanRead {
	return func(wait context.Context) (exec.Batch, bool) {
		select {
		case b, ok := <-ch:
			return b, ok
		case <-wait.Done():
			return nil, ctx.Err() == nil
		}
	}
}

// openSingle builds the query the cursor runs: its input (the scan, or
// for a join the joined stream of two scans) and one fused operator
// that filters the residual conjuncts and aggregates or projects, which
// exec.Terminal runs in the consumer's goroutine. An async plan instead
// filters and projects on the async worker pool, whose output is the
// input. into is the INTO TABLE target, nil for any other destination.
func (e *Engine) openSingle(ctx context.Context, ev *exec.Evaluator, stmt *lang.SelectStmt, p *plan.Query, stats *exec.Stats, cur *Cursor, into *catalog.Table) error {
	var (
		next      func() (exec.Batch, bool)
		inSchema  *value.Schema
		pushed    string
		tableScan bool
	)
	if p.Join != nil {
		var err error
		if next, inSchema, err = e.openJoin(ctx, ev, stmt, p, stats, cur); err != nil {
			return err
		}
	} else {
		src, err := e.cat.Source(stmt.From.Name)
		if err != nil {
			return err
		}
		var read scanRead
		if read, _, cur.info, pushed, err = e.openScanStream(ctx, src, p, stats, cur); err != nil {
			return err
		}
		next = exec.ScanInput(stats, func() (exec.Batch, bool) { return read(ctx) })
		// The schema expressions compile against must be the exact
		// object the delivered tuples carry — the pruned one when the
		// source honored column pruning — so pre-resolved indices hit
		// the compiled fast path on every row.
		inSchema = cur.info.Schema
		_, tableScan = src.(*catalog.Table)
	}
	cur.next, cur.limit = next, stmt.Limit
	// Residual filter: every conjunct except the one the scan pushed.
	residual := p.Residual(pushed)

	if p.IsAggregate {
		cur.op = exec.ColFilterAggStage(ev, residual, p.Agg, inSchema, stats)
		cur.schema = exec.AggSchema(p.Agg)
		return nil
	}

	cur.schema = exec.ProjectSchema(p.Proj, inSchema)
	if p.Async {
		// High-latency UDFs run on the asynchronous worker pool: latency
		// hiding is the win there.
		read := recv(ctx, exec.AsyncProjectStage(ev, residual, p.Proj, inSchema, e.opts.AsyncWorkers, e.opts.AsyncCallTimeout, stats)(ctx, next))
		cur.next = func() (exec.Batch, bool) { return read(ctx) }
		return nil
	}
	// A shared row pins the cells of every row scanned beside it, so
	// cells are shared only where nobody keeps the rows: a table scan
	// read through the cursor (the scan ends and its reader moves on),
	// and an INTO TABLE whose backend copies every cell before
	// AppendBatch returns (the persistent store; see
	// catalog.TableBackend). The in-memory ring keeps the rows it is
	// given, a derived stream's subscribers buffer them, and a live
	// stream read through the cursor can park them in the consumer for
	// as long as it likes.
	var intoStore bool
	if into != nil {
		_, intoStore = into.Backend().(*store.Table)
	}
	share := intoStore || tableScan && !cur.Routed()
	cur.op = exec.ColFilterProjectStage(ev, residual, p.Proj, inSchema, e.opts.BatchWorkers, share, stats)
	return nil
}

// pipeline names the operator pipeline a plan runs on — "columnar",
// "async" or "join" — at any batch size. openSingle builds the shape it
// names and EXPLAIN prints it, so the two cannot disagree. Every shape
// ends in the columnar stages except an async plan's select list, which
// runs on the async worker pool; a plan calling a stateful UDF runs its
// columnar stage row-major (see internal/exec/colstage.go).
func (e *Engine) pipeline(p *plan.Query) string {
	switch {
	case p.Join != nil:
		return "join"
	case p.Async:
		return "async"
	}
	return "columnar"
}

// openJoin opens both sides of FROM a JOIN b ON ... WINDOW w, each a
// bare scan of its source (plan.ScanOf: no pushdown, no time range,
// every column), and returns the read of the joined stream with its
// schema; openSingle adds the filter and projection.
func (e *Engine) openJoin(ctx context.Context, ev *exec.Evaluator, stmt *lang.SelectStmt, p *plan.Query, stats *exec.Stats, cur *Cursor) (func() (exec.Batch, bool), *value.Schema, error) {
	names := []string{stmt.From.Name, p.Join.Right}
	self := strings.EqualFold(names[0], names[1])
	if self {
		names = names[:1]
	}
	var reads [2]scanRead
	var wakes [2]<-chan struct{}
	var schemas [2]*value.Schema
	live := 0
	for i, name := range names {
		src, err := e.cat.Source(name)
		if err != nil {
			return nil, nil, err
		}
		if isLiveSource(src) {
			if live++; live == 2 && e.abl.PrivateScans {
				return nil, nil, errors.New("tweeql: a join of two live sources needs shared scans: a private scan cannot be polled, so the join would stall one source reading the other")
			}
		}
		var info *catalog.OpenInfo
		if reads[i], wakes[i], info, _, err = e.openScanStream(ctx, src, plan.ScanOf(name), stats, cur); err != nil {
			return nil, nil, err
		}
		schemas[i] = info.Schema
		if i == 0 {
			cur.info = info
		}
	}
	if self {
		schemas[1] = schemas[0]
	}
	j := exec.NewJoin(ev, p.Join.JoinConfig, schemas[0], schemas[1], stats)
	return readJoin(ctx, j, reads, wakes, self), j.Schema(), nil
}

// readJoin is the read of a join, which pushes what it reads into j. A
// self-join waits on its one scan and pushes each batch to both sides.
// Of two sources, the side whose newest row is older comes first: a
// private side (a finite source's, or under PrivateScans at most one
// live one) is waited on, a shared one polled, and if it has nothing
// the other too, and then the read waits on either's wake channel, so a
// quiet side never lets the other's subscription overflow.
func readJoin(ctx context.Context, j *exec.Join, reads [2]scanRead, wakes [2]<-chan struct{}, self bool) func() (exec.Batch, bool) {
	open := 2
	if self {
		open, wakes[0] = 1, nil
	}
	return func() (exec.Batch, bool) {
		for open > 0 && ctx.Err() == nil {
			s := 0
			if reads[0] == nil || j.RightBehind() && reads[1] != nil {
				s = 1
			}
			wait := ctx
			if wakes[s] != nil {
				wait = polled
			}
			b, ok := reads[s](wait)
			if ok && len(b) == 0 && wakes[1-s] != nil {
				s = 1 - s
				b, ok = reads[s](polled)
			}
			switch {
			case !ok:
				reads[s], wakes[s] = nil, nil
				open--
			case len(b) == 0:
				select {
				case <-wakes[0]:
				case <-wakes[1]:
				case <-ctx.Done():
				}
			default:
				if out := j.Push(ctx, b, s == 0, s == 1 || self); len(out) > 0 {
					return out, true
				}
			}
		}
		return nil, false
	}
}
