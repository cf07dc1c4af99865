// Package core is the TweeQL engine: it hands a parsed query to the
// planner (internal/plan) for analysis — select-list shape, WHERE
// conjuncts, streaming-API pushdown candidates scored by sampled
// selectivity (§2 "Uncertain Selectivities"), event-time range, and the
// canonical scan signature — then assembles the operator pipeline
// (fused columnar filter+project or filter+aggregate stages, async
// projection for high-latency UDFs, confidence-triggered windowed
// aggregation, windowed joins) over batches from the sources' one open
// (catalog.Source). A live source is read only through a ref-counted
// shared scan serving every query with the same signature, join sides
// included; a finite one (a table) through a private scan. Results come
// out of a cursor whose iterators run the query as they are read, or
// are routed INTO derived streams and tables.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
	// Seed seeds trace sampling (see TraceSampleEvery); query results
	// do not depend on it.
	Seed int64
	// SourceBuffer is the per-connection buffer requested from sources.
	SourceBuffer int
	// BatchSize is the number of tuples per batch: what a source hands
	// off at once and each operator call takes. 1 (or 0) runs the same
	// pipeline on one-row batches, so each row is delivered as soon as
	// it is out.
	BatchSize int
	// BatchFlushEvery bounds the extra latency batching may add on a
	// trickling stream: a partial batch is flushed downstream after this
	// long even if not full. 0 means partial batches flush only at end
	// of stream.
	BatchFlushEvery time.Duration
	// BatchWorkers shards a batching source's conversion and the
	// projection stage's select list (CPU-bound UDFs) across a worker
	// pool. 0 or 1 keeps both single-threaded. A stage whose
	// expressions call a stateful UDF never shards: it runs row-major.
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
	// RowSegments makes persistent tables seal v1 row segments instead
	// of v2 column blocks.
	RowSegments bool
	// PrivateScans opens one source subscription per query instead of
	// sharing a scan between queries with equal scan signatures.
	PrivateScans bool
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
	cat.SetTableFactory(tableFactory(opts, !abl.RowSegments))
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

// Cursor is a handle on a running query. The query runs in the
// goroutine that reads it: Rows and Batches are iterators, each pull
// takes the next input batch from the scan (or the join, or the async
// pool), runs the query's operator on it and exec.Terminal on what that
// emits. A cursor has one view: the first Rows or Batches loop gets the
// output, and any later one is empty. Breaking out of the loop stops
// the query.
type Cursor struct {
	schema *value.Schema
	// ctx is the pipeline's context: Stop, the caller's context and a
	// LIMIT cut (cut) all end it.
	ctx    context.Context
	cut    context.CancelFunc
	next   func() (exec.Batch, bool)
	op     exec.Operator
	limit  int
	viewed atomic.Bool

	stats   *exec.Stats
	info    *catalog.OpenInfo
	stmt    *lang.SelectStmt
	plan    *plan.Query
	scan    *SharedScan // nil when the query reads private scans only
	cancel  context.CancelFunc
	drained chan struct{}
}

// Rows returns the result rows, in order. The loop ends when the stream
// ends, the limit is reached or the query is stopped; breaking out of it
// stops the query. Queries with INTO STREAM or INTO TABLE deliver their
// rows to the target instead, and Rows yields nothing.
func (c *Cursor) Rows() iter.Seq[value.Tuple] {
	return func(yield func(value.Tuple) bool) {
		c.each(func(b exec.Batch) bool {
			for _, t := range b {
				if !yield(t) {
					return false
				}
			}
			return true
		})
	}
}

// Batches returns the results as batches, as exec.Terminal hands them
// on, with the same rules as Rows. Each batch belongs to the receiver.
func (c *Cursor) Batches() iter.Seq[exec.Batch] {
	return func(yield func(exec.Batch) bool) { c.each(yield) }
}

// each claims the cursor's one view and runs the query into deliver.
func (c *Cursor) each(deliver func(exec.Batch) bool) {
	if !c.viewed.Swap(true) {
		c.run(deliver)
	}
}

// run runs the query in the calling goroutine, handing its output batch
// by batch to deliver until the stream ends or deliver returns false,
// and then ends the query.
func (c *Cursor) run(deliver func(exec.Batch) bool) {
	defer c.cancel()
	exec.Terminal(c.ctx, c.next, c.op, c.limit, c.cut, c.stats, deliver)
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
// routed queries need — their Rows loop ends at once, so without it a
// caller cannot tell when the table is complete. Errors
// encountered while routing land in Stats().Err(). For ordinary
// queries the end of the Rows loop is the completion signal and Drained
// is already closed.
func (c *Cursor) Drained() <-chan struct{} { return c.drained }

// Routed reports whether results feed a named target (INTO STREAM or
// INTO TABLE) rather than the cursor's Rows.
func (c *Cursor) Routed() bool {
	return c.stmt.Into != nil && c.stmt.Into.Kind != lang.IntoStdout
}

// Stop cancels the query, read or not: a loop over Rows or Batches
// ends, and a shared scan loses the query's reference.
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
// its signature (a join's: its left side's) is live right now. Only
// registered stream sources are consulted — EXPLAIN must stay
// side-effect free, and resolving a durable table here would open it
// (running recovery against files a live writer may hold).
func (e *Engine) explainSharing(p *plan.Query) string {
	if e.abl.PrivateScans {
		return "off (private scans)"
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
