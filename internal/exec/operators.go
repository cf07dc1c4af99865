package exec

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/asyncop"
	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/value"
	"tweeql/internal/window"
)

// Stats collects per-query execution counters. Long-running stream
// queries treat row-level evaluation errors as data (human text is
// messy): the row drops, the counter ticks, the stream continues.
type Stats struct {
	RowsIn     atomic.Int64
	RowsOut    atomic.Int64
	Dropped    atomic.Int64 // rows removed by filters
	EvalErrors atomic.Int64
	// LateRows counts join rows that may have lost matches to eviction
	// (see Join).
	LateRows atomic.Int64
	// Degraded counts values the resilience layer replaced with NULL
	// (UDF retries exhausted, breaker open) and rows routed to an
	// unhealthy sink. The row survives; the counter is the only trace.
	Degraded atomic.Int64

	// Profile, when non-nil, is the query's per-operator observability
	// profile (internal/obs): stage constructors register themselves on
	// it and record rows, batches, and latency. nil disables
	// instrumentation — every hook below degrades to a nil-receiver
	// no-op, so un-profiled pipelines pay nothing.
	Profile *obs.Profile

	mu      sync.Mutex
	lastErr error
}

// StageProf registers (or fetches) the obs stage for one operator
// instance. Nil-safe end to end: a nil Stats or nil Profile yields a
// nil *obs.Stage whose methods all no-op.
func (s *Stats) StageProf(kind, name, unit string) *obs.Stage {
	if s == nil {
		return nil
	}
	return s.Profile.Stage(kind, name, unit)
}

// ObserveLag records ingest→delivery watermark lag for rows whose
// minimum event timestamp is ts. Nil-safe.
func (s *Stats) ObserveLag(ts time.Time, rows int) {
	if s != nil {
		s.Profile.ObserveLag(ts, rows)
	}
}

// NoteError records an evaluation error (keeping the first for Err).
func (s *Stats) NoteError(err error) {
	s.EvalErrors.Add(1)
	s.mu.Lock()
	if s.lastErr == nil {
		s.lastErr = err
	}
	s.mu.Unlock()
}

// Err returns the first evaluation error observed, if any.
func (s *Stats) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

type statsCtxKey struct{}

// WithStats attaches the query's Stats to ctx so code far below the
// executor (UDF resilience wrappers) can tick per-query counters.
func WithStats(ctx context.Context, s *Stats) context.Context {
	return context.WithValue(ctx, statsCtxKey{}, s)
}

// StatsFrom returns the Stats attached to ctx, or nil.
func StatsFrom(ctx context.Context) *Stats {
	s, _ := ctx.Value(statsCtxKey{}).(*Stats)
	return s
}

// NoteDegraded ticks the Degraded counter of the ctx's Stats, if any.
func NoteDegraded(ctx context.Context) {
	if s := StatsFrom(ctx); s != nil {
		s.Degraded.Add(1)
	}
}

// filterLabel names a filter stage by its conjunct count.
func filterLabel(n int) string {
	if n == 1 {
		return "1 conjunct"
	}
	return strconv.Itoa(n) + " conjuncts"
}

// ProjItem is one projected output column.
type ProjItem struct {
	Name string
	Expr lang.Expr
	// Wildcard expands the input tuple in place.
	Wildcard bool
}

// ProjectSchema computes the output schema of a projection over the
// input schema.
func ProjectSchema(items []ProjItem, in *value.Schema) *value.Schema {
	var fields []value.Field
	for _, it := range items {
		if it.Wildcard {
			fields = append(fields, in.Fields()...)
			continue
		}
		// A bare column reference keeps the input column's declared
		// kind; computed items stay dynamic. Downstream consumers of
		// the projected schema (tables logged INTO, derived streams)
		// rely on this: e.g. time-range pushdown only trusts a
		// created_at column the schema declares as KindTime. Declared
		// kinds remain advisory — every kernel still checks the runtime
		// kind — so a too-precise kind can never change results.
		kind := value.KindNull
		if id, ok := it.Expr.(*lang.Ident); ok {
			if i, ok := resolveIdent(in, id); ok {
				kind = in.Field(i).Kind
			}
		}
		fields = append(fields, value.Field{Name: it.Name, Kind: kind})
	}
	return value.NewSchema(fields...)
}

// bindItems compiles each non-wildcard select item against the input
// schema; wildcard slots stay nil.
func bindItems(ev *Evaluator, items []ProjItem, inSchema *value.Schema) []CompiledExpr {
	fns := make([]CompiledExpr, len(items))
	for i, it := range items {
		if !it.Wildcard {
			fns[i] = ev.Bind(it.Expr, inSchema)
		}
	}
	return fns
}

// AsyncProjectStage evaluates the select list on a bounded worker pool,
// preserving input order — the §2 "asynchronous iteration" treatment for
// select lists that call high-latency web-service UDFs. workers bounds
// in-flight web requests; callTimeout (0 = none) bounds each row's
// evaluation so a hung web-service call cannot pin a worker slot.
//
// Its feeder goroutine pulls the input through next and filters it by
// conjuncts, in stream order, before any row reaches the pool. Every
// surviving row of every batch goes through one ordered dispatcher, so
// rows of the next batch are in flight while the current one finishes:
// latency hiding does not stop at batch boundaries. Results regroup per
// input batch; a row that fails to evaluate drops with its error noted,
// and a batch none of whose rows survive emits nothing.
func AsyncProjectStage(ev *Evaluator, conjuncts []lang.Expr, items []ProjItem, inSchema *value.Schema, workers int, callTimeout time.Duration, stats *Stats) func(ctx context.Context, next func() (Batch, bool)) <-chan Batch {
	outSchema := ProjectSchema(items, inSchema)
	fns := bindItems(ev, items, inSchema)
	var f *colFilter
	if len(conjuncts) > 0 {
		f = newColFilter(ev, conjuncts, inSchema, stats, nil)
	}
	// Each worker call is a full select-list evaluation including the
	// high-latency web-service UDFs — exactly the latency worth a span
	// per call.
	sp := stats.StageProf("async-project", strconv.Itoa(len(items))+" items", "call")
	return func(ctx context.Context, next func() (Batch, bool)) <-chan Batch {
		// The feeder sends each batch's row count ahead of its rows, so
		// the collector knows where to cut. sizes holds more batches than
		// the dispatcher can hold rows, so it never holds the feeder back.
		sizes := make(chan int, 64+2*workers)
		// A quarter batch of rows in hand lets the feeder run ahead of
		// the dispatcher instead of meeting it once per row.
		rows := make(chan value.Tuple, 64)
		go func() {
			defer close(rows)
			defer close(sizes)
			for {
				b, ok := next()
				if !ok {
					return
				}
				if f != nil {
					b = f.keep(ctx, b)
				}
				if len(b) == 0 {
					continue
				}
				select {
				case sizes <- len(b):
				case <-ctx.Done():
					return
				}
				for _, t := range b {
					select {
					case rows <- t:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
		d := asyncop.New(func(ctx context.Context, t value.Tuple) (value.Tuple, error) {
			span := sp.Enter()
			row, err := projectRow(ctx, items, fns, outSchema, t)
			if err != nil {
				span.Exit(1, 0)
			} else {
				span.Exit(1, 1)
			}
			return row, err
		}, asyncop.WithWorkers(workers), asyncop.WithOrderPreserved(),
			asyncop.WithPerCallTimeout(callTimeout))
		out := make(chan Batch, 4)
		go func() {
			defer close(out)
			results := d.Run(ctx, rows)
			for n := range sizes {
				batch := make(Batch, 0, n)
				for ; n > 0; n-- {
					r, ok := <-results
					if !ok {
						return
					}
					if r.Err != nil {
						if ctx.Err() != nil {
							// The call failed because the query ended (Stop,
							// or a LIMIT cut), not because evaluation did.
							return
						}
						stats.NoteError(r.Err)
						continue
					}
					batch = append(batch, r.Out)
				}
				if len(batch) == 0 {
					continue
				}
				select {
				case out <- batch:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}
}

func projectRow(ctx context.Context, items []ProjItem, fns []CompiledExpr, outSchema *value.Schema, t value.Tuple) (value.Tuple, error) {
	_, row, err := projectRowAppend(ctx, items, fns, outSchema, t, make([]value.Value, 0, outSchema.Len()))
	return row, err
}

// projectRowAppend evaluates the select list into arena, growing and
// returning it. The batched projection passes one arena per batch so a
// whole batch of output rows costs one values allocation. On error the
// arena is rolled back to its input length. fns parallels items (see
// bindItems); wildcard slots are nil.
func projectRowAppend(ctx context.Context, items []ProjItem, fns []CompiledExpr, outSchema *value.Schema, t value.Tuple, arena []value.Value) ([]value.Value, value.Tuple, error) {
	start := len(arena)
	for i, it := range items {
		if it.Wildcard {
			arena = append(arena, t.Values...)
			continue
		}
		v, err := fns[i](ctx, t)
		if err != nil {
			return arena[:start], value.Tuple{}, err
		}
		arena = append(arena, v)
	}
	// A wildcard copies however many cells the input row actually has,
	// which can disagree with the schema the stage was planned against:
	// a table that was empty at plan time (arity-0 schema) can receive
	// concurrent appends before the scan runs, delivering full-width
	// rows. Schema drift is a per-row data problem, not an invariant
	// violation — drop the row with a noted error instead of letting
	// NewTuple panic the pipeline.
	if got := len(arena) - start; got != outSchema.Len() {
		return arena[:start], value.Tuple{}, fmt.Errorf(
			"exec: projected row arity %d != schema arity %d (input schema changed since plan)",
			got, outSchema.Len())
	}
	// The three-index slice caps the row at its own cells, so later
	// arena appends cannot alias it.
	return arena, value.NewTuple(outSchema, arena[start:len(arena):len(arena)], t.TS), nil
}

// AggItem is one aggregate in the select list.
type AggItem struct {
	Name    string    // output column name
	AggName string    // COUNT/SUM/AVG/MIN/MAX/VAR/STDDEV
	Star    bool      // COUNT(*)
	Arg     lang.Expr // nil for star
}

// OutCol maps one output column of an aggregate query to its source:
// either the i-th group expression or the i-th aggregate.
type OutCol struct {
	Name  string
	IsAgg bool
	Index int
}

// AggregateConfig drives the aggregate stage (ColFilterAggStage).
type AggregateConfig struct {
	GroupExprs []lang.Expr
	Aggs       []AggItem
	Out        []OutCol
	// Window is nil for whole-stream aggregation (emit once at end).
	Window *lang.WindowSpec
	// Confidence enables CONTROL-style early emission.
	Confidence *lang.ConfidenceSpec
}

// AggSchema computes the output schema: the mapped columns, plus
// window_start/window_end for windowed queries, plus early (bool) when a
// confidence clause is present.
func AggSchema(cfg AggregateConfig) *value.Schema {
	var fields []value.Field
	for _, oc := range cfg.Out {
		fields = append(fields, value.Field{Name: oc.Name, Kind: value.KindNull})
	}
	if cfg.Window != nil {
		fields = append(fields,
			value.Field{Name: "window_start", Kind: value.KindTime},
			value.Field{Name: "window_end", Kind: value.KindTime})
	}
	if cfg.Confidence != nil {
		fields = append(fields, value.Field{Name: "early", Kind: value.KindBool})
	}
	return value.NewSchema(fields...)
}

// aggState folds tuples into per-(window, group) buckets: the folder of
// every aggregation but count windows.
type aggState struct {
	ev        *Evaluator
	cfg       AggregateConfig
	stats     *Stats
	outSchema *value.Schema
	mgr       *window.Manager
	// groupFns/argFns are the bound evaluation closures for the group
	// keys and aggregate arguments (argFns slots are nil for COUNT(*)).
	groupFns []CompiledExpr
	argFns   []CompiledExpr
	// groupVals/argVals hold the current row's group keys and aggregate
	// arguments: the manager copies group values into a bucket it opens,
	// and fold reads the arguments before observe returns.
	groupVals, argVals []value.Value
	// mkAggs and fold are built once, not per row.
	mkAggs func() []agg.Func
	fold   func(*window.Bucket)
}

func newAggState(ev *Evaluator, cfg AggregateConfig, inSchema *value.Schema, stats *Stats) *aggState {
	s := &aggState{ev: ev, cfg: cfg, stats: stats, outSchema: AggSchema(cfg)}
	s.groupFns, s.argFns = bindAggExprs(ev, cfg, inSchema)
	s.groupVals = make([]value.Value, len(cfg.GroupExprs))
	s.argVals = make([]value.Value, len(cfg.Aggs))
	s.mkAggs = func() []agg.Func { return newAggs(cfg.Aggs) }
	s.fold = func(b *window.Bucket) {
		for i := range b.Aggs {
			b.Aggs[i].Add(s.argVals[i])
		}
	}
	if cfg.Window != nil {
		s.mgr = window.NewManager(cfg.Window.Size, cfg.Window.Every)
	} else {
		// Whole-stream aggregation: one giant tumbling window that
		// only Flush will ever close.
		s.mgr = window.NewManager(1<<62-1, 0)
	}
	if cfg.Confidence != nil {
		s.mgr.EnableConfidence(cfg.Confidence.Level, cfg.Confidence.HalfWidth)
	}
	return s
}

// bindAggExprs binds the group keys and aggregate arguments against
// the stage's input schema, shared by the time-window aggState and the
// count-window operator so both evaluate through the same closures.
func bindAggExprs(ev *Evaluator, cfg AggregateConfig, inSchema *value.Schema) (groupFns, argFns []CompiledExpr) {
	groupFns = ev.BindAll(cfg.GroupExprs, inSchema)
	argFns = make([]CompiledExpr, len(cfg.Aggs))
	for i, a := range cfg.Aggs {
		if !a.Star && a.Arg != nil {
			argFns[i] = ev.Bind(a.Arg, inSchema)
		}
	}
	return groupFns, argFns
}

// newAggs makes one fresh accumulator per aggregate item.
func newAggs(items []AggItem) []agg.Func {
	fs := make([]agg.Func, len(items))
	for i, a := range items {
		f, err := agg.New(a.AggName, a.Star)
		if err != nil {
			// Planner validates names; reaching here is a bug.
			panic(err)
		}
		fs[i] = f
	}
	return fs
}

// row materializes one result row from a closed (or early) bucket.
func (s *aggState) row(b *window.Bucket, early bool) value.Tuple {
	vals := make([]value.Value, 0, s.outSchema.Len())
	for _, oc := range s.cfg.Out {
		if oc.IsAgg {
			vals = append(vals, b.Aggs[oc.Index].Result())
		} else {
			vals = append(vals, b.GroupVals[oc.Index])
		}
	}
	ts := b.Span.End
	if s.cfg.Window != nil {
		vals = append(vals, value.Time(b.Span.Start), value.Time(b.Span.End))
	} else if !b.EarlyAt.IsZero() {
		ts = b.EarlyAt
	}
	if s.cfg.Confidence != nil {
		vals = append(vals, value.Bool(early))
		if early {
			ts = b.EarlyAt
		}
	}
	return value.NewTuple(s.outSchema, vals, ts)
}

// observe folds one tuple, delivering any buckets it closes (or emits
// early) through emit. It returns false when emit reports the query is
// done and folding should stop.
func (s *aggState) observe(ctx context.Context, t value.Tuple, emit func(value.Tuple) bool) bool {
	for i, fn := range s.groupFns {
		v, err := fn(ctx, t)
		if err != nil {
			s.stats.NoteError(err)
			return true
		}
		s.groupVals[i] = v
	}
	// Evaluate aggregate arguments once per tuple; fold adds them to
	// every containing window's bucket.
	for i, fn := range s.argFns {
		if fn == nil { // COUNT(*)
			s.argVals[i] = value.Int(1)
			continue
		}
		v, err := fn(ctx, t)
		if err != nil {
			s.stats.NoteError(err)
			v = value.Null()
		}
		s.argVals[i] = v
	}
	early := s.mgr.Observe(t.TS, s.groupVals, s.mkAggs, s.fold)
	for _, b := range early {
		if !emit(s.row(b, true)) {
			return false
		}
	}
	for _, b := range s.mgr.Advance(t.TS) {
		if !emit(s.row(b, false)) {
			return false
		}
	}
	return true
}

// flush closes every open bucket at stream end.
func (s *aggState) flush(emit func(value.Tuple) bool) bool {
	for _, b := range s.mgr.Flush() {
		if !emit(s.row(b, false)) {
			return false
		}
	}
	return true
}

// folder is the state an aggregate stage folds rows into: observe
// folds one row, flush closes what is open at stream end, and both hand
// the rows they emit to emit, returning false once it reports the query
// has ended.
type folder interface {
	observe(ctx context.Context, t value.Tuple, emit func(value.Tuple) bool) bool
	flush(emit func(value.Tuple) bool) bool
}

// newFolder is the count-window state for WINDOW n TWEETS and the
// time-window state for any other aggregation, its expressions bound
// against inSchema.
func newFolder(ev *Evaluator, cfg AggregateConfig, inSchema *value.Schema, stats *Stats) folder {
	if cfg.Window != nil && cfg.Window.Count > 0 {
		return newCountState(ev, cfg, inSchema, stats)
	}
	return newAggState(ev, cfg, inSchema, stats)
}

// aggOut gathers an aggregate operator's output rows into batches, cut
// wherever the event time changes and after every input batch. A batch
// thus holds the rows of one window close (or one early emission), so
// Terminal's per-batch minimum event time is each row's own window end:
// a batch closing two windows would report the later window's rows as
// up to one window staler than they are.
type aggOut struct {
	to   func(Batch) bool // where batches go; set per Push and Flush
	rows Batch
	n    int // rows emitted, for the stage's profile
}

// emit adds one output row, first sending the pending batch when the
// row's event time differs from it. It returns false once the query
// has ended.
func (o *aggOut) emit(row value.Tuple) bool {
	if len(o.rows) > 0 && !o.rows[0].TS.Equal(row.TS) && !o.send() {
		return false
	}
	o.rows = append(o.rows, row)
	o.n++
	return true
}

// send hands the pending batch on, if there is one.
func (o *aggOut) send() bool {
	if len(o.rows) == 0 {
		return true
	}
	rows := o.rows
	o.rows = nil
	return o.to(rows)
}

// aggLabel names an aggregation stage by its shape.
func aggLabel(cfg AggregateConfig) string {
	l := strconv.Itoa(len(cfg.GroupExprs)) + " groups x " + strconv.Itoa(len(cfg.Aggs)) + " aggs"
	if cfg.Window != nil {
		l += ", windowed"
	}
	return l
}

// NormalizeAggName upper-cases aggregate names for display.
func NormalizeAggName(name string) string { return strings.ToUpper(name) }
