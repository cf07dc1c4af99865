// Package core is the TweeQL engine: it hands a parsed query to the
// planner (internal/plan) for analysis — select-list shape, WHERE
// conjuncts, streaming-API pushdown candidates scored by sampled
// selectivity (§2 "Uncertain Selectivities"), event-time range, and the
// canonical scan signature — then assembles the operator pipeline
// (adaptive filters, async projection for high-latency UDFs,
// confidence-triggered windowed aggregation) over either a private
// source scan or a ref-counted shared scan serving every query with
// the same signature, and exposes results as a cursor or routes them
// INTO derived streams and tables.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/exec"
	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/plan"
	"tweeql/internal/store"
	"tweeql/internal/value"
)

// Options tune engine behaviour.
type Options struct {
	// AsyncWorkers bounds concurrent high-latency UDF calls in the async
	// projection path. 0 disables the async path entirely (E4 baseline).
	AsyncWorkers int
	// SampleSize bounds the tweets used to estimate candidate filter
	// selectivities at plan time.
	SampleSize int
	// Seed makes eddy lotteries reproducible.
	Seed int64
	// SourceBuffer is the per-connection buffer requested from sources.
	SourceBuffer int
	// BatchSize is the number of tuples moved per channel transfer
	// through the pipeline's batched stages. 1 (or 0 after
	// DefaultOptions) disables batching: every stage is tuple-at-a-time.
	BatchSize int
	// BatchFlushEvery bounds the extra latency batching may add on a
	// trickling stream: a partial batch is flushed downstream after this
	// long even if not full. 0 means partial batches flush only at end
	// of stream.
	BatchFlushEvery time.Duration
	// BatchWorkers shards each batch across a worker pool in the filter
	// and projection stages, for CPU-bound predicates and UDFs. 0 or 1
	// keeps those stages single-threaded. Stages evaluating stateful
	// UDFs always run single-threaded regardless (running state needs
	// stream order).
	BatchWorkers int
	// ScanMaxRestarts supervises shared scans: when the physical source
	// fails mid-stream, the scan reopens it with backoff instead of
	// fanning a fatal error to every attached query, up to this many
	// consecutive failures (a run surviving ScanHealthyAfter resets the
	// streak). 0 disables supervision — the pre-existing fail-fast
	// behavior. DefaultOptions sets 5.
	ScanMaxRestarts int
	// ScanRestartBackoff is the base delay between scan restart
	// attempts (capped exponential). 0 = 200ms.
	ScanRestartBackoff time.Duration
	// ScanHealthyAfter is how long a restarted scan must run before its
	// failure streak resets. 0 = 30s.
	ScanHealthyAfter time.Duration
	// AsyncCallTimeout bounds each in-flight call in the async
	// projection path, so one hung web-service request cannot pin a
	// worker slot forever. 0 disables. DefaultOptions sets 10s.
	AsyncCallTimeout time.Duration
	// UDFCallTimeout / UDFRetries drive the resilient wrappers around
	// the web-service UDFs (geocode family): each call gets a derived
	// deadline and failed calls retry; exhausted retries degrade to
	// NULL + a degraded-counter tick instead of an eval error, the
	// paper's partial-results stance. Zero values mean 5s / 2.
	UDFCallTimeout time.Duration
	UDFRetries     int

	// DataDir roots the persistent table store. When set, INTO TABLE
	// targets become durable time-partitioned tables (one directory of
	// segment files per table under DataDir) that survive restarts and
	// are queryable in FROM clauses; "" keeps tables in memory.
	DataDir string
	// SegmentMaxBytes seals a persistent segment at this data-file
	// size. 0 = store default (64 MiB).
	SegmentMaxBytes int64
	// SegmentMaxAge seals a persistent segment this long after its
	// first append, so retention can reclaim quiet streams. 0 = never.
	SegmentMaxAge time.Duration
	// FsyncPolicy is the persistent appender's durability policy:
	// "seal" (fsync once per segment, the default), "none", or "flush"
	// (fsync every flushed batch).
	FsyncPolicy string
	// TableRetainSegments keeps at most this many sealed segments per
	// persistent table, deleting the oldest. 0 keeps everything.
	TableRetainSegments int
	// TableRetainMaxAge deletes sealed segments whose newest row is
	// older than this. 0 keeps everything.
	TableRetainMaxAge time.Duration
	// TableRetainMaxBytes caps the total bytes of sealed segments per
	// persistent table, deleting the oldest beyond the budget — the
	// natural retention unit for always-on logged system tables
	// ($sys.metrics INTO TABLE). 0 keeps everything.
	TableRetainMaxBytes int64
	// TableMemRows caps each in-memory table: a ring buffer keeping the
	// newest rows, so INTO TABLE without a data dir cannot exhaust
	// memory under firehose load. 0 = catalog default (1Mi rows).
	TableMemRows int

	// SysStreams registers the built-in $sys.metrics and $sys.events
	// catalog streams, making the engine's own telemetry queryable with
	// ordinary TweeQL (windows, GROUP BY, peaks, INTO TABLE). Off by
	// default: when false nothing is registered, no sampler runs, and
	// the hot path is untouched. The serving layer starts the sampler
	// that feeds the streams.
	SysStreams bool
	// SysSampleEvery is the self-observation sampling interval. 0 = 5s.
	SysSampleEvery time.Duration

	// Profiling attaches an observability profile (internal/obs) to
	// every query: per-operator rows/latency/selectivity, the
	// ingest→delivery watermark-lag histogram, and — when
	// TraceSampleEvery > 0 — sampled batch traces. Default on; the cost
	// per batch is two clock reads and a few atomic adds (per-row
	// stages decimate their clock reads 64:1). Off leaves
	// Cursor.Profile nil and every hook a free nil no-op.
	Profiling bool
	// TraceSampleEvery samples every Nth batch observation per stage
	// into the query's bounded trace ring. The sampled set is a
	// deterministic function of (TraceSampleEvery, Seed). 0 disables
	// trace collection (profiling histograms still record).
	// DefaultOptions sets 64.
	TraceSampleEvery int
	// TraceCap bounds retained trace events per query; once full the
	// oldest are overwritten. 0 = 4096.
	TraceCap int
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{
		AsyncWorkers:    16,
		SampleSize:      2000,
		Seed:            1,
		SourceBuffer:    4096,
		BatchSize:       256,
		BatchFlushEvery: 25 * time.Millisecond,
		// Sharding batches across more workers than cores only adds
		// scheduling overhead for CPU-bound stages.
		BatchWorkers:       min(4, runtime.GOMAXPROCS(0)),
		ScanMaxRestarts:    5,
		ScanRestartBackoff: 200 * time.Millisecond,
		AsyncCallTimeout:   10 * time.Second,
		FsyncPolicy:        "seal",
		Profiling:          true,
		TraceSampleEvery:   64,
	}
}

// ablation switches production mechanisms off, each back to the
// simpler path it replaced, so the differential tests can pin the two
// byte-identical. The zero value is production; only tests set it
// (export_test.go).
type ablation struct {
	// Interpret evaluates expressions with the tree-walking AST
	// interpreter instead of closures compiled at query start.
	Interpret bool
	// RowBatches runs batched pipelines on the row-batch stages instead
	// of the vectorized columnar ones, and writes v1 row segments.
	RowBatches bool
	// PrivateScans opens one source subscription per query instead of
	// sharing a scan between queries with equal scan signatures.
	PrivateScans bool
	// StaticFilters evaluates row-path conjuncts in query order instead
	// of routing them through the eddy.
	StaticFilters bool
}

// Engine executes TweeQL queries against a catalog.
type Engine struct {
	cat   *catalog.Catalog
	opts  Options
	abl   ablation
	scans *scanManager
	// qseq numbers query runs for profile/trace/log correlation IDs.
	qseq atomic.Int64
}

// NewEngine builds an engine over the catalog.
func NewEngine(cat *catalog.Catalog, opts Options) *Engine {
	return newEngine(cat, opts, ablation{})
}

func newEngine(cat *catalog.Catalog, opts Options, abl ablation) *Engine {
	if opts.AsyncWorkers < 0 {
		opts.AsyncWorkers = 0
	}
	if opts.BatchSize < 1 {
		opts.BatchSize = 1
	}
	if opts.BatchWorkers < 1 {
		opts.BatchWorkers = 1
	}
	cat.SetTableFactory(tableFactory(opts, !abl.RowBatches))
	if opts.SysStreams {
		cat.EnableSysStreams()
	}
	return &Engine{cat: cat, opts: opts, abl: abl, scans: newScanManager()}
}

// tableFactory builds the table-backend factory the engine installs in
// its catalog: the persistent store under Options.DataDir when one is
// configured, bounded in-memory ring buffers otherwise. Factory errors
// (bad directory, unknown fsync policy, corrupt segment) surface at
// query start via Catalog.OpenTable. Columnar tables seal their
// segments as v2 column blocks; the rest keep v1 row segments.
func tableFactory(opts Options, columnar bool) catalog.TableFactory {
	return func(name string, create bool) (catalog.TableBackend, error) {
		if opts.DataDir == "" {
			if !create {
				return nil, catalog.ErrNoTable
			}
			return catalog.NewMemBackend(opts.TableMemRows), nil
		}
		fsync, err := store.ParseFsync(opts.FsyncPolicy)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(opts.DataDir, tableDirName(name))
		if !create {
			if _, err := os.Stat(dir); err != nil {
				return nil, catalog.ErrNoTable
			}
		}
		return store.Open(store.Options{
			Dir:             dir,
			SegmentMaxBytes: opts.SegmentMaxBytes,
			SegmentMaxAge:   opts.SegmentMaxAge,
			Fsync:           fsync,
			RetainSegments:  opts.TableRetainSegments,
			RetainMaxAge:    opts.TableRetainMaxAge,
			RetainMaxBytes:  opts.TableRetainMaxBytes,
			Columnar:        columnar,
		})
	}
}

// tableDirName maps a table name onto a safe directory name: lower-
// cased (table names are case-insensitive) with anything outside
// [a-z0-9_-] replaced, so a hostile name cannot escape the data dir.
// Names the replacement would alias (the lexer admits idents like
// `#log` and `@log`, both of which would map to `_log`) get a hash of
// the raw name appended, so two distinct live tables can never share
// — and corrupt — one segment directory.
func tableDirName(name string) string {
	lower := strings.ToLower(name)
	out := make([]byte, len(lower))
	mangled := false
	for i := 0; i < len(lower); i++ {
		c := lower[i]
		if ('a' <= c && c <= 'z') || ('0' <= c && c <= '9') || c == '_' || c == '-' {
			out[i] = c
		} else {
			out[i] = '_'
			mangled = true
		}
	}
	if !mangled {
		return string(out)
	}
	h := fnv.New32a()
	h.Write([]byte(lower))
	return fmt.Sprintf("%s-%08x", out, h.Sum32())
}

// Catalog exposes the engine's catalog for registration.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Options reports the engine's effective (normalized) options — the
// serving layer reads batch sizing and the data directory from here so
// its result fan-out and registry journal agree with the engine.
func (e *Engine) Options() Options { return e.opts }

// Close releases the engine's tables, flushing and closing persistent
// backends. Call it before discarding an engine whose Options.DataDir
// is set: the active segment's buffered tail becomes durable here.
func (e *Engine) Close() error { return e.cat.CloseTables() }

// Cursor is a handle on a running query. It carries whichever stream
// its pipeline produces: tuples from a tuple-shaped pipeline (aggregate,
// async projection, join, BatchSize=1), already through
// exec.TerminalRowStage, or batches from a batch-shaped one, whose
// exec.Terminal runs in the goroutine that consumes them. Rows and
// Batches each present the output in one form, converting lazily; a
// consumer uses one of the two, and the other then reports an empty,
// closed stream.
type Cursor struct {
	schema  *value.Schema
	rows    <-chan value.Tuple
	batches <-chan exec.Batch
	limit   int
	cut     context.CancelFunc // the LIMIT cut: cancels the pipeline only
	// stop ends with Stop or the caller's context, but not at a LIMIT
	// cut, so a view never drops rows the terminal stage admitted.
	stop       context.Context
	batchSize  int
	flushEvery time.Duration
	view       sync.Once
	rowsView   <-chan value.Tuple
	batchView  <-chan exec.Batch

	stats   *exec.Stats
	info    *catalog.OpenInfo
	stmt    *lang.SelectStmt
	plan    *plan.Query
	scan    *SharedScan // nil when the query opened a private scan
	cancel  context.CancelFunc
	drained chan struct{}
}

// noRows and noBatches are the closed views: what a routed query's
// cursor offers, and what one view offers once the other has the
// output.
var (
	noRows    = func() chan value.Tuple { c := make(chan value.Tuple); close(c); return c }()
	noBatches = func() chan exec.Batch { c := make(chan exec.Batch); close(c); return c }()
)

// Rows returns the result rows; the channel closes when the stream
// ends, the limit is reached, or the query is stopped. Queries with
// INTO STREAM or INTO TABLE deliver their rows to the target instead,
// and Rows closes immediately.
func (c *Cursor) Rows() <-chan value.Tuple {
	c.view.Do(func() {
		c.rowsView, c.batchView = c.rows, noBatches
		if c.batches == nil {
			return
		}
		out := make(chan value.Tuple, 64)
		c.rowsView = out
		go func() {
			defer close(out)
			c.each(func(b exec.Batch) bool {
				for _, t := range b {
					select {
					case out <- t:
					case <-c.stop.Done():
						return false
					}
				}
				return true
			})
		}()
	})
	return c.rowsView
}

// Batches returns the results as batches, with the same end-of-stream
// rules as Rows. A batch-shaped pipeline's batches arrive as its
// terminal stage emits them; a tuple-shaped pipeline's rows are grouped
// into batches of up to Options.BatchSize, a partial one flushed after
// Options.BatchFlushEvery. Each batch belongs to the receiver.
func (c *Cursor) Batches() <-chan exec.Batch {
	c.view.Do(func() {
		c.rowsView = noRows
		if c.batches == nil {
			c.batchView = exec.ToBatches(c.batchSize, c.flushEvery)(c.stop, c.rows)
			return
		}
		out := make(chan exec.Batch, 4)
		c.batchView = out
		go func() {
			defer close(out)
			c.each(func(b exec.Batch) bool {
				select {
				case out <- b:
					return true
				case <-c.stop.Done():
					return false
				}
			})
		}()
	})
	return c.batchView
}

// each hands the output, batch by batch, to deliver in the calling
// goroutine, until the stream ends or deliver returns false. A
// batch-shaped pipeline's terminal stage runs here. A tuple stream is
// batched until it closes, even after Stop, so an INTO target keeps
// every row the terminal stage counted.
func (c *Cursor) each(deliver func(exec.Batch) bool) {
	if c.batches != nil {
		exec.Terminal(c.batches, c.limit, c.cut, c.stats, deliver)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for b := range exec.ToBatches(c.batchSize, c.flushEvery)(ctx, c.rows) {
		if !deliver(b) {
			return
		}
	}
}

// Schema describes the result columns.
func (c *Cursor) Schema() *value.Schema { return c.schema }

// Stats exposes live execution counters.
func (c *Cursor) Stats() *exec.Stats { return c.stats }

// Profile exposes the query's observability profile: per-operator
// rows, latency, selectivity, watermark lag, and the sampled trace
// ring. Nil when Options.Profiling is off.
func (c *Cursor) Profile() *obs.Profile {
	if c.stats == nil {
		return nil
	}
	return c.stats.Profile
}

// Info reports the source-open decision (pushdown filter, estimates).
func (c *Cursor) Info() *catalog.OpenInfo { return c.info }

// Statement returns the parsed statement.
func (c *Cursor) Statement() *lang.SelectStmt { return c.stmt }

// Plan returns the analyzed plan the cursor is executing.
func (c *Cursor) Plan() *plan.Query { return c.plan }

// ScanSignature reports the canonical identity of the physical scan
// the query reads (plan.Query.Signature), shared or not.
func (c *Cursor) ScanSignature() string {
	if c.plan == nil {
		return ""
	}
	return c.plan.Signature
}

// ScanShared reports whether the query attached to a shared scan
// rather than opening a private source subscription.
func (c *Cursor) ScanShared() bool { return c.scan != nil }

// Drained returns a channel that closes once an INTO STREAM/INTO
// TABLE query's results have been fully delivered to the target (and,
// for persistent tables, flushed). This is the completion/sync hook
// routed queries need — their Rows channel closes immediately, so
// without it a caller cannot tell when the table is complete. Errors
// encountered while routing land in Stats().Err(). For ordinary
// queries Rows itself is the completion signal and Drained is already
// closed.
func (c *Cursor) Drained() <-chan struct{} { return c.drained }

// Routed reports whether results feed a named target (INTO STREAM or
// INTO TABLE) rather than the cursor's Rows channel.
func (c *Cursor) Routed() bool {
	return c.stmt.Into != nil && c.stmt.Into.Kind != lang.IntoStdout
}

// Stop cancels the query.
func (c *Cursor) Stop() { c.cancel() }

// Query parses and runs a TweeQL statement.
func (e *Engine) Query(ctx context.Context, sql string) (*Cursor, error) {
	stmt, err := lang.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.QueryStmt(ctx, stmt)
}

// QueryStmt runs an already-parsed statement.
func (e *Engine) QueryStmt(ctx context.Context, stmt *lang.SelectStmt) (*Cursor, error) {
	p, err := plan.Analyze(stmt, e.cat, e.planOptions())
	if err != nil {
		return nil, err
	}
	qctx, cancel := context.WithCancel(ctx)
	cur, err := e.execute(qctx, cancel, stmt, p)
	if err != nil {
		cancel()
		return nil, err
	}
	return cur, nil
}

// planOptions maps engine options onto the planner's knobs.
func (e *Engine) planOptions() plan.Options {
	return plan.Options{AsyncUDFs: e.opts.AsyncWorkers > 0}
}

// Plan analyzes a statement without running it, exposing the plan IR
// to callers (the serving layer groups queries by scan signature, tests
// assert pushdown decisions).
func (e *Engine) Plan(stmt *lang.SelectStmt) (*plan.Query, error) {
	return plan.Analyze(stmt, e.cat, e.planOptions())
}

// Explain describes the plan for a statement without running it.
func (e *Engine) Explain(sql string) (string, error) {
	stmt, err := lang.Parse(sql)
	if err != nil {
		return "", err
	}
	p, err := plan.Analyze(stmt, e.cat, e.planOptions())
	if err != nil {
		return "", err
	}
	return e.explainText(stmt, p), nil
}

// explainText renders the static EXPLAIN header for an analyzed plan
// (shared by Explain and ExplainAnalyze).
func (e *Engine) explainText(stmt *lang.SelectStmt, p *plan.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", stmt)
	fmt.Fprintf(&b, "source: %s%s\n", stmt.From.Name, e.explainColumns(p))
	fmt.Fprintf(&b, "scan signature: %s\n", p.Signature)
	fmt.Fprintf(&b, "shared scan: %s\n", e.explainSharing(p))
	if len(p.Candidates) > 0 {
		fmt.Fprintf(&b, "pushdown candidates (%d):\n", len(p.Candidates))
		for _, c := range p.Candidates {
			fmt.Fprintf(&b, "  - %s\n", c.Filter)
		}
	} else {
		b.WriteString("pushdown candidates: none (full stream)\n")
	}
	fmt.Fprintf(&b, "residual conjuncts: %d\n", len(p.Conjuncts))
	if !p.TimeFrom.IsZero() || !p.TimeTo.IsZero() {
		fmt.Fprintf(&b, "time range: [%s, %s]\n", fmtBound(p.TimeFrom), fmtBound(p.TimeTo))
	}
	fmt.Fprintf(&b, "execution: batch=%d workers=%d pipeline=%s\n", e.opts.BatchSize, e.opts.BatchWorkers, e.pipeline(p))
	if p.IsAggregate {
		fmt.Fprintf(&b, "aggregate: %d groups x %d aggs, window=%v confidence=%v\n",
			len(p.Agg.GroupExprs), len(p.Agg.Aggs), stmt.Window != nil, stmt.Confidence != nil)
	} else {
		fmt.Fprintf(&b, "projection: %d items, async=%v\n", len(p.Proj), p.Async)
	}
	return b.String()
}

// explainColumns renders " columns=k/n" for a scan of an open table:
// how many of the table's n columns the scan will decode, k < n when
// the plan references fewer and the backend prunes. Empty for stream
// sources, joins (never pruned), and tables not opened yet — EXPLAIN
// must not open one (see explainSharing).
func (e *Engine) explainColumns(p *plan.Query) string {
	t := e.cat.OpenedTable(p.Source)
	if _, stream := e.cat.RegisteredSource(p.Source); stream || t == nil || p.Join != nil {
		return ""
	}
	return fmt.Sprintf(" columns=%d/%d", t.ScanSchema(p.Columns).Len(), t.Schema().Len())
}

// explainSharing renders the sharing status EXPLAIN reports: whether
// this statement would attach to a shared scan, and whether one with
// its signature is live right now. Only registered stream sources are
// consulted — EXPLAIN must stay side-effect free, and resolving a
// durable table here would open it (running recovery against files a
// live writer may hold).
func (e *Engine) explainSharing(p *plan.Query) string {
	switch {
	case e.abl.PrivateScans:
		return "off (private scans)"
	case p.Join != nil:
		return "off (joins open private scans)"
	}
	src, ok := e.cat.RegisteredSource(p.Source)
	if !ok || !isLiveSource(src) {
		return "off (finite or unregistered source, private scan)"
	}
	if queries := e.scans.queries(p.Signature); queries > 0 {
		return fmt.Sprintf("on (would join live scan serving %d queries)", queries)
	}
	return "on (would open the shared scan)"
}

// fmtBound renders one EXPLAIN time bound ("-" = open).
func fmtBound(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format(time.RFC3339)
}
