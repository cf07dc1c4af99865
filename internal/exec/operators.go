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
	"tweeql/internal/eddy"
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

// Stage is a channel-to-channel operator.
type Stage func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple

// Chain composes stages left to right.
func Chain(stages ...Stage) Stage {
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
		cur := in
		for _, s := range stages {
			cur = s(ctx, cur)
		}
		return cur
	}
}

// FilterStage applies a conjunction of predicates. With two or more
// conjuncts and adaptive=true it routes tuples through an Eddy, so the
// evaluation order tracks observed selectivities; otherwise conjuncts
// run in query order. costs must parallel conjuncts (see CostOf).
// Conjuncts are compiled against inSchema at stage construction (see
// Bind); the eddy's per-conjunct predicates wrap the compiled closures.
func FilterStage(ev *Evaluator, conjuncts []lang.Expr, inSchema *value.Schema, costs []float64, adaptive bool, seed int64, stats *Stats) Stage {
	fns := ev.BindAll(conjuncts, inSchema)
	sp := stats.StageProf("filter", filterLabel(len(conjuncts)), "row")
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
			var pass func(value.Tuple) bool
			mkPred := func(i int) func(value.Tuple) bool {
				fn := fns[i]
				return func(t value.Tuple) bool {
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
				for i := range conjuncts {
					cost := 1.0
					if i < len(costs) {
						cost = costs[i]
					}
					filters[i] = eddy.Filter[value.Tuple]{Name: conjuncts[i].String(), Pred: mkPred(i), Cost: cost}
				}
				ed := eddy.New(filters, eddy.WithSeed[value.Tuple](seed))
				pass = ed.Process
			} else {
				preds := make([]func(value.Tuple) bool, len(conjuncts))
				for i := range conjuncts {
					preds[i] = mkPred(i)
				}
				pass = func(t value.Tuple) bool {
					for _, p := range preds {
						if !p(t) {
							return false
						}
					}
					return true
				}
			}
			for t := range in {
				if ctx.Err() != nil {
					return
				}
				span := sp.EnterSampled()
				ok := pass(t)
				if ok {
					span.Exit(1, 1)
					select {
					case out <- t:
					case <-ctx.Done():
						return
					}
				} else {
					span.Exit(1, 0)
					stats.Dropped.Add(1)
				}
			}
		}()
		return out
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

// ProjectStage evaluates the select list synchronously.
func ProjectStage(ev *Evaluator, items []ProjItem, inSchema *value.Schema, stats *Stats) Stage {
	outSchema := ProjectSchema(items, inSchema)
	fns := bindItems(ev, items, inSchema)
	sp := stats.StageProf("project", strconv.Itoa(len(items))+" items", "row")
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
			for t := range in {
				span := sp.EnterSampled()
				row, err := projectRow(ctx, items, fns, outSchema, t)
				if err != nil {
					span.Exit(1, 0)
					stats.NoteError(err)
					continue
				}
				span.Exit(1, 1)
				select {
				case out <- row:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}
}

// AsyncProjectStage evaluates the select list on a bounded worker pool,
// preserving input order — the §2 "asynchronous iteration" treatment for
// select lists that call high-latency web-service UDFs. workers bounds
// in-flight web requests; callTimeout (0 = none) bounds each row's
// evaluation so a hung web-service call cannot pin a worker slot.
func AsyncProjectStage(ev *Evaluator, items []ProjItem, inSchema *value.Schema, workers int, callTimeout time.Duration, stats *Stats) Stage {
	outSchema := ProjectSchema(items, inSchema)
	fns := bindItems(ev, items, inSchema)
	// Each worker call is a full select-list evaluation including the
	// high-latency web-service UDFs — exactly the latency worth a span
	// per call, so no sampling here.
	sp := stats.StageProf("async-project", strconv.Itoa(len(items))+" items", "call")
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
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
		go func() {
			defer close(out)
			for r := range d.Run(ctx, in) {
				if r.Err != nil {
					if ctx.Err() != nil {
						// The call failed because the query ended (Stop,
						// or a LIMIT cut), not because evaluation did.
						return
					}
					stats.NoteError(r.Err)
					continue
				}
				select {
				case out <- r.Out:
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
	Name     string
	IsAgg    bool
	Index    int
	FromEnd  bool // window metadata columns, filled by the operator
	MetaKind string
}

// AggregateConfig drives AggregateStage.
type AggregateConfig struct {
	GroupExprs []lang.Expr
	Aggs       []AggItem
	Out        []OutCol
	// Window is nil for whole-stream aggregation (emit once at end).
	Window *lang.WindowSpec
	// Confidence enables CONTROL-style early emission.
	Confidence *lang.ConfidenceSpec
	// InSchema is the schema of the stage's input tuples; when set, the
	// group keys and aggregate arguments compile against it (see Bind).
	// nil keeps the interpreter.
	InSchema *value.Schema
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

// aggState folds tuples into per-(window, group) buckets. It is the
// shared core of the tuple-at-a-time AggregateStage and the batched
// BatchAggregateStage: both drive observe/flush against an emit
// callback, so the two paths cannot drift semantically.
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
}

func newAggState(ev *Evaluator, cfg AggregateConfig, stats *Stats) *aggState {
	s := &aggState{ev: ev, cfg: cfg, stats: stats, outSchema: AggSchema(cfg)}
	s.groupFns, s.argFns = bindAggExprs(ev, cfg)
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
// cfg.InSchema, shared by the time-window aggState and the count-window
// operator so both evaluate through the same closures.
func bindAggExprs(ev *Evaluator, cfg AggregateConfig) (groupFns, argFns []CompiledExpr) {
	groupFns = ev.BindAll(cfg.GroupExprs, cfg.InSchema)
	argFns = make([]CompiledExpr, len(cfg.Aggs))
	for i, a := range cfg.Aggs {
		if !a.Star && a.Arg != nil {
			argFns[i] = ev.Bind(a.Arg, cfg.InSchema)
		}
	}
	return groupFns, argFns
}

func (s *aggState) mkAggs() []agg.Func {
	fs := make([]agg.Func, len(s.cfg.Aggs))
	for i, a := range s.cfg.Aggs {
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
	groupVals := make([]value.Value, len(s.cfg.GroupExprs))
	for i, fn := range s.groupFns {
		v, err := fn(ctx, t)
		if err != nil {
			s.stats.NoteError(err)
			return true
		}
		groupVals[i] = v
	}
	// Evaluate aggregate arguments once per tuple; fold adds them to
	// every containing window's bucket.
	argVals := make([]value.Value, len(s.cfg.Aggs))
	for i, fn := range s.argFns {
		if fn == nil { // COUNT(*)
			argVals[i] = value.Int(1)
			continue
		}
		v, err := fn(ctx, t)
		if err != nil {
			s.stats.NoteError(err)
			v = value.Null()
		}
		argVals[i] = v
	}
	early := s.mgr.Observe(t.TS, groupVals, s.mkAggs, func(b *window.Bucket) {
		for i := range b.Aggs {
			b.Aggs[i].Add(argVals[i])
		}
	})
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

// AggregateStage implements windowed grouped aggregation. Tuples fold
// into per-(window, group) buckets; buckets emit when event time passes
// the window end, when the confidence trigger fires (early), or at
// stream end. Count windows (WINDOW n TWEETS) batch every n input rows
// instead — the §2 alternative whose staleness E3's ablation measures.
func AggregateStage(ev *Evaluator, cfg AggregateConfig, stats *Stats) Stage {
	if cfg.Window != nil && cfg.Window.Count > 0 {
		return countWindowStage(ev, cfg, stats)
	}
	sp := stats.StageProf("aggregate", aggLabel(cfg), "row")
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
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
			for t := range in {
				if ctx.Err() != nil {
					return
				}
				span := sp.EnterSampled()
				emitted = 0
				ok := st.observe(ctx, t, emit)
				span.Exit(1, emitted)
				if !ok {
					return
				}
			}
			st.flush(emit)
		}()
		return out
	}
}

// aggLabel names an aggregation stage by its shape.
func aggLabel(cfg AggregateConfig) string {
	l := strconv.Itoa(len(cfg.GroupExprs)) + " groups x " + strconv.Itoa(len(cfg.Aggs)) + " aggs"
	if cfg.Window != nil {
		l += ", windowed"
	}
	return l
}

// JoinConfig drives JoinStage: a windowed stream-stream equi-join.
type JoinConfig struct {
	LeftBinding, RightBinding string
	LeftKey, RightKey         lang.Expr
	// Window bounds how far apart in event time two tuples may be and
	// still join.
	Window time.Duration
	// OutSchema, when set, is used for combined tuples instead of a
	// freshly built JoinSchema — the engine passes the same pointer to
	// downstream stages so their compiled column indices hit the fast
	// path on join output.
	OutSchema *value.Schema
}

// JoinSchema prefixes both sides' columns with their binding.
func JoinSchema(left, right *value.Schema, cfg JoinConfig) *value.Schema {
	var fields []value.Field
	for _, f := range left.Fields() {
		fields = append(fields, value.Field{Name: cfg.LeftBinding + "." + f.Name, Kind: f.Kind})
	}
	for _, f := range right.Fields() {
		fields = append(fields, value.Field{Name: cfg.RightBinding + "." + f.Name, Kind: f.Kind})
	}
	return value.NewSchema(fields...)
}

// JoinStage consumes both inputs and emits combined tuples whose keys
// are equal and whose event times are within the window — a symmetric
// hash join with time-based eviction.
func JoinStage(ev *Evaluator, left, right <-chan value.Tuple, leftSchema, rightSchema *value.Schema, cfg JoinConfig, stats *Stats) <-chan value.Tuple {
	outSchema := cfg.OutSchema
	if outSchema == nil {
		outSchema = JoinSchema(leftSchema, rightSchema, cfg)
	}
	leftKeyFn := ev.Bind(cfg.LeftKey, leftSchema)
	rightKeyFn := ev.Bind(cfg.RightKey, rightSchema)
	sp := stats.StageProf("join", cfg.LeftBinding+"⋈"+cfg.RightBinding, "row")
	out := make(chan value.Tuple, 64)

	type buffered struct {
		key value.Value
		t   value.Tuple
	}
	go func() {
		defer close(out)
		ctx := context.Background()
		leftBuf := make(map[string][]buffered)
		rightBuf := make(map[string][]buffered)
		var leftWM, rightWM time.Time

		evict := func(buf map[string][]buffered, wm time.Time) {
			cutoff := wm.Add(-cfg.Window)
			for k, list := range buf {
				kept := list[:0]
				for _, b := range list {
					if !b.t.TS.Before(cutoff) {
						kept = append(kept, b)
					}
				}
				if len(kept) == 0 {
					delete(buf, k)
				} else {
					buf[k] = kept
				}
			}
		}
		combine := func(l, r value.Tuple) value.Tuple {
			vals := make([]value.Value, 0, outSchema.Len())
			vals = append(vals, l.Values...)
			vals = append(vals, r.Values...)
			ts := l.TS
			if r.TS.After(ts) {
				ts = r.TS
			}
			return value.NewTuple(outSchema, vals, ts)
		}
		process := func(t value.Tuple, keyFn CompiledExpr, own, other map[string][]buffered, isLeft bool) int {
			kv, err := keyFn(ctx, t)
			if err != nil {
				stats.NoteError(err)
				return 0
			}
			if kv.IsNull() {
				return 0 // NULL keys never join
			}
			emitted := 0
			k := kv.Kind().String() + ":" + kv.String()
			own[k] = append(own[k], buffered{key: kv, t: t})
			for _, m := range other[k] {
				if d := t.TS.Sub(m.t.TS); d < 0 && -d > cfg.Window || d > cfg.Window {
					continue
				}
				var row value.Tuple
				if isLeft {
					row = combine(t, m.t)
				} else {
					row = combine(m.t, t)
				}
				out <- row
				emitted++
			}
			return emitted
		}

		l, r := left, right
		for l != nil || r != nil {
			select {
			case t, ok := <-l:
				if !ok {
					l = nil
					continue
				}
				stats.RowsIn.Add(1)
				if t.TS.After(leftWM) {
					leftWM = t.TS
				}
				span := sp.EnterSampled()
				span.Exit(1, process(t, leftKeyFn, leftBuf, rightBuf, true))
				evict(rightBuf, leftWM)
			case t, ok := <-r:
				if !ok {
					r = nil
					continue
				}
				stats.RowsIn.Add(1)
				if t.TS.After(rightWM) {
					rightWM = t.TS
				}
				span := sp.EnterSampled()
				span.Exit(1, process(t, rightKeyFn, rightBuf, leftBuf, false))
				evict(leftBuf, rightWM)
			}
		}
	}()
	return out
}

// PrefixSchema renames every column of s to "<binding>.<name>", used to
// expose join inputs under their aliases.
func PrefixSchema(s *value.Schema, binding string) *value.Schema {
	fields := s.Fields()
	for i := range fields {
		fields[i].Name = binding + "." + fields[i].Name
	}
	return value.NewSchema(fields...)
}

// CountStage ticks RowsIn for every tuple passing through, placed right
// after the source. Its obs stage is the pipeline's "scan" operator:
// the sampled latency is the time spent waiting on the source for the
// next tuple, so a scan-dominated profile reads as ingest-bound.
func CountStage(stats *Stats) Stage {
	sp := stats.StageProf("scan", "source", "row")
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
			for {
				span := sp.EnterSampled()
				t, ok := <-in
				if !ok {
					return
				}
				span.Exit(1, 1)
				stats.RowsIn.Add(1)
				select {
				case out <- t:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}
}

// RenameSchema gives a tuple stream a new schema with identical arity
// (used to expose window metadata columns under user aliases, etc.).
func RenameSchema(newSchema *value.Schema) Stage {
	return func(ctx context.Context, in <-chan value.Tuple) <-chan value.Tuple {
		out := make(chan value.Tuple, 64)
		go func() {
			defer close(out)
			for t := range in {
				select {
				case out <- value.NewTuple(newSchema, t.Values, t.TS):
				case <-ctx.Done():
					return
				}
			}
		}()
		return out
	}
}

// NormalizeAggName upper-cases aggregate names for display.
func NormalizeAggName(name string) string { return strings.ToUpper(name) }
