// Package catalog holds the named objects a TweeQL engine knows about:
// stream sources (the twitter stream, derived streams), result tables,
// and the user-defined-function registry (§2: TweeQL "facilitates
// user-defined functions for deeper processing of tweets and tweet
// text").
package catalog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tweeql/internal/asyncop"
	"tweeql/internal/resilience"
	"tweeql/internal/selectivity"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// ScalarFn is a scalar UDF implementation.
type ScalarFn func(ctx context.Context, args []value.Value) (value.Value, error)

// ScalarUDF is a registered scalar function.
type ScalarUDF struct {
	Name string
	// Arity is the required argument count; -1 means variadic.
	Arity int
	// HighLatency marks functions that call (simulated) web services;
	// the executor routes them through the asynchronous dispatch path
	// and they count as expensive for eddy cost normalization.
	HighLatency bool
	Fn          ScalarFn
}

// StatefulFactory builds a fresh instance of a stateful UDF for one
// query execution. The returned ScalarFn may carry state across calls
// (e.g. TwitInfo's streaming peak detector, §3.2: "a stateful TweeQL
// UDF that performs streaming mean deviation detection").
type StatefulFactory func() ScalarFn

// OpenRequest carries the planner's pushdown decision inputs to a
// source.
type OpenRequest struct {
	// Candidates are the API-eligible filters extracted from the WHERE
	// clause. The source picks one (sampling for selectivity) since the
	// API accepts only one filter type per connection.
	Candidates []twitterapi.Filter
	// SampleSize bounds how many sampled tweets to score candidates on.
	SampleSize int
	// Buffer is the connection buffer size (0 = source default).
	Buffer int
	// From/To bound the event timestamps the query can accept (zero =
	// open), extracted by the planner from created_at predicates. Table
	// sources use them to prune whole segments; streaming sources may
	// ignore them — the residual WHERE filter still applies exactly.
	From, To time.Time
	// OnError, when non-nil, receives errors the source hits after Open
	// returned (a corrupt segment mid-scan, a lost connection). The
	// engine wires it to the query's stats so a silently truncated
	// stream is never mistaken for a complete one.
	OnError func(error)
}

// OpenInfo reports what the source actually did, for EXPLAIN output and
// experiments.
type OpenInfo struct {
	// Chosen is the filter pushed to the API (zero Filter when the source
	// subscribed to the full stream).
	Chosen twitterapi.Filter
	// ChosenIdx is the index of Chosen within OpenRequest.Candidates.
	// Sources that set Pushed must set it: the planner uses the index
	// (not Chosen's display string, which collapses distinct follow
	// lists onto one rendering) to identify which WHERE conjunct the
	// pushed filter already enforces.
	ChosenIdx int
	// Pushed reports whether any candidate was pushed down.
	Pushed bool
	// Estimates are the sampled selectivities of every candidate.
	Estimates []selectivity.Estimate
	// Schema is the exact schema object the delivered tuples carry —
	// the source's declared schema, or the pruned one when the source
	// honored BatchOptions.Columns. The engine compiles expressions
	// against this pointer so pre-resolved column indices hit the fast
	// path on every row. nil means Source.Schema().
	Schema *value.Schema
}

// Source produces a tuple stream for FROM.
type Source interface {
	Schema() *value.Schema
	Open(ctx context.Context, req OpenRequest) (<-chan value.Tuple, *OpenInfo, error)
}

// BatchOptions shapes a batched source subscription.
type BatchOptions struct {
	// Size is the maximum tuples per batch.
	Size int
	// FlushEvery bounds how long a partial batch may wait before being
	// delivered downstream; 0 means only full batches are delivered
	// (plus the final partial batch at end of stream).
	FlushEvery time.Duration
	// Workers parallelizes any CPU-bound per-batch conversion the
	// source performs (batch order and intra-batch order are preserved
	// regardless). 0 or 1 converts on a single goroutine.
	Workers int
	// Columns, when non-nil, lists the only columns the plan
	// references: the source MAY prune its tuples to (a superset of)
	// them, in its own schema order. Pruning is invisible to
	// evaluation — columns resolve by name — but skips materializing
	// values nothing will read, which dominates conversion cost for
	// narrow queries. nil means all columns.
	Columns []string
}

// LiveSource is implemented by sources with attach-time semantics: an
// unbounded live stream where a subscriber sees the rows published
// after it joined (the streaming-API contract). Only such sources are
// eligible for shared scans — finite replay sources (tables, slice
// sources) hand every opener the full data set from the start, which a
// late attach to a shared scan would violate.
type LiveSource interface {
	Source
	// LiveStream reports that Open attaches to a live stream.
	LiveStream() bool
}

// BatchSource is implemented by sources that can emit pre-batched
// tuples, saving the engine one channel transfer per tuple at the
// source boundary. Tuple order inside and across batches is the stream
// order; batches are never empty. Ownership of each delivered batch
// passes to the receiver, which may mutate it in place (the filter
// stage compacts survivors into it) — sources must not retain, reuse,
// or alias delivered batches.
type BatchSource interface {
	Source
	OpenBatches(ctx context.Context, req OpenRequest, bo BatchOptions) (<-chan []value.Tuple, *OpenInfo, error)
}

// Catalog is the engine's namespace. Safe for concurrent use.
type Catalog struct {
	mu        sync.RWMutex
	sources   map[string]Source
	scalars   map[string]*ScalarUDF
	statefuls map[string]StatefulFactory
	tables    map[string]*Table
	factory   TableFactory
	breakers  []*resilience.Breaker
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		sources:   make(map[string]Source),
		scalars:   make(map[string]*ScalarUDF),
		statefuls: make(map[string]StatefulFactory),
		tables:    make(map[string]*Table),
	}
}

// RegisterSource names a stream source. Re-registration replaces.
func (c *Catalog) RegisterSource(name string, s Source) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sources[strings.ToLower(name)] = s
}

// Source resolves a FROM name: a registered stream source first, then
// a result table — INTO TABLE targets are queryable, and with a
// persistent backend a table logged by an earlier process resolves
// here too (the factory reopens its durable state on demand).
func (c *Catalog) Source(name string) (Source, error) {
	key := strings.ToLower(name)
	c.mu.RLock()
	s, ok := c.sources[key]
	if !ok {
		var t *Table
		if t, ok = c.tables[key]; ok {
			s = t
		}
	}
	factory := c.factory
	c.mu.RUnlock()
	if ok {
		return s, nil
	}
	if factory != nil {
		t, err := c.openTable(name, false)
		if err == nil {
			return t, nil
		}
		if err != ErrNoTable {
			return nil, err
		}
	}
	return nil, fmt.Errorf("tweeql: unknown stream %q", name)
}

// RegisteredSource resolves a name against the registered stream
// sources ONLY — no table fallthrough, no factory probe. Plan
// inspection (EXPLAIN's sharing status) uses it because resolving a
// durable table via Source has side effects: the factory opens the
// table and its recovery may truncate a torn tail, which must never
// happen on a describe-only path.
func (c *Catalog) RegisteredSource(name string) (Source, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sources[strings.ToLower(name)]
	return s, ok
}

// SourceNames lists registered sources, for the REPL's catalog listing.
func (c *Catalog) SourceNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.sources))
	for n := range c.sources {
		names = append(names, n)
	}
	return names
}

// RegisterScalar adds a scalar UDF; it returns an error on duplicate
// names so user registrations cannot silently shadow built-ins.
func (c *Catalog) RegisterScalar(u *ScalarUDF) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(u.Name)
	if _, dup := c.scalars[key]; dup {
		return fmt.Errorf("tweeql: UDF %q already registered", u.Name)
	}
	c.scalars[key] = u
	return nil
}

// Scalar resolves a scalar UDF by name.
func (c *Catalog) Scalar(name string) (*ScalarUDF, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	u, ok := c.scalars[strings.ToLower(name)]
	return u, ok
}

// ScalarNames lists registered scalar UDFs.
func (c *Catalog) ScalarNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.scalars))
	for n := range c.scalars {
		names = append(names, n)
	}
	return names
}

// RegisterStateful adds a stateful UDF factory.
func (c *Catalog) RegisterStateful(name string, f StatefulFactory) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := c.statefuls[key]; dup {
		return fmt.Errorf("tweeql: stateful UDF %q already registered", name)
	}
	c.statefuls[key] = f
	return nil
}

// Stateful resolves a stateful UDF factory.
func (c *Catalog) Stateful(name string) (StatefulFactory, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.statefuls[strings.ToLower(name)]
	return f, ok
}

// TableBackend is the storage engine behind one result table. The
// in-memory ring buffer (NewMemBackend) is the default; internal/store
// provides the persistent, time-partitioned implementation. Backends
// must be safe for concurrent use and must not retain slices passed to
// AppendBatch.
type TableBackend interface {
	// AppendBatch appends rows in order. No backend retains the rows
	// slice. A backend may keep the rows themselves, Values arrays
	// included (MemBackend does), so a caller must not hand it cells it
	// will overwrite or shares with rows someone else keeps. The
	// persistent store (internal/store) instead copies every cell
	// before AppendBatch returns: its caller may then overwrite the
	// slice and each row's cells (TestAppendBatchDoesNotAlias), which is
	// what lets INTO TABLE projection share cells with its input rows.
	AppendBatch(rows []value.Tuple) error
	// Flush makes pending appends readable and (per the backend's
	// durability policy) durable.
	Flush() error
	// Scan streams rows whose event timestamp falls in [from, to]
	// (zero bounds open; rows without an event time always match), in
	// append order, in freshly allocated batches of at most batchHint
	// rows. fn owns each batch; its error stops the scan.
	Scan(from, to time.Time, batchHint int, fn func([]value.Tuple) error) error
	// Schema reports the schema of the newest appended row, nil while
	// empty.
	Schema() *value.Schema
	// Len reports the stored row count.
	Len() int
	// Close releases the backend; further operations may error.
	Close() error
}

// ColumnScanner is optionally implemented by table backends that can
// read only the columns a plan references (the persistent store skips
// the other columns' chunks undecoded). ScanColumns is Scan delivering
// rows narrowed to cols, by value.Schema.Prune's rule; nil cols means
// all, and Scan is ScanColumns with nil. PrunedSchema reports the exact
// schema object such rows carry for the newest appended schema — nil
// while empty — so expressions compiled against it resolve columns by
// index.
type ColumnScanner interface {
	ScanColumns(from, to time.Time, batchHint int, cols []string, fn func([]value.Tuple) error) error
	PrunedSchema(cols []string) *value.Schema
}

// HealthReporter is optionally implemented by table backends that can
// degrade without failing (the persistent store flips read-only after
// exhausted write retries). Healthy returns nil while fully writable
// and the reason otherwise.
type HealthReporter interface {
	Healthy() error
}

// ErrNoTable is returned by a TableFactory asked to open (not create) a
// table that has no durable state.
var ErrNoTable = errors.New("catalog: no such table")

// TableFactory builds the backend for a named table. With create=false
// it must only open pre-existing durable state, returning ErrNoTable
// when there is none (the FROM-clause resolution path probes unknown
// names and must not litter the data directory with empty tables).
type TableFactory func(name string, create bool) (TableBackend, error)

// SetTableFactory installs the backend factory used for tables created
// after this call. The engine installs one at construction: in-memory
// ring buffers by default, the persistent store when a data directory
// is configured.
func (c *Catalog) SetTableFactory(f TableFactory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.factory = f
}

// OpenTable returns the named result table, creating its backend via
// the table factory if it does not exist yet. This is the INTO TABLE
// path: factory errors (bad data directory, corrupt segment) surface
// here, at query-start time.
func (c *Catalog) OpenTable(name string) (*Table, error) {
	return c.openTable(name, true)
}

func (c *Catalog) openTable(name string, create bool) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if t, ok := c.tables[key]; ok {
		return t, nil
	}
	var backend TableBackend
	if c.factory != nil {
		//tweeqlvet:ignore lockscope -- the factory does disk I/O, not cross-goroutine waits; holding c.mu serializes creation so two queries cannot double-open one table
		b, err := c.factory(name, create)
		if err != nil {
			return nil, err
		}
		backend = b
	} else if create {
		backend = NewMemBackend(0)
	} else {
		return nil, ErrNoTable
	}
	t := &Table{Name: name, backend: backend}
	c.tables[key] = t
	return t, nil
}

// Table returns (creating an in-memory-backed one if needed) the named
// result table — the historical lookup API. When a configured factory
// fails, the returned table is a throwaway in-memory stand-in that is
// deliberately NOT cached: a later OpenTable (the INTO TABLE path)
// must retry the factory and surface its error rather than silently
// writing to memory under a data dir.
func (c *Catalog) Table(name string) *Table {
	t, err := c.OpenTable(name)
	if err == nil {
		return t
	}
	return &Table{Name: name, backend: NewMemBackend(0)}
}

// OpenedTable returns the already-open table with the given name (nil
// if none) — a side-effect-free lookup for health checks and status
// rendering, which must never trigger the factory probe Source/
// OpenTable run.
func (c *Catalog) OpenedTable(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[strings.ToLower(name)]
}

// RegisterBreaker records a circuit breaker in this catalog's
// namespace so status and metrics endpoints can report breaker state
// per engine (a process hosting two engines must not blend their
// breakers).
func (c *Catalog) RegisterBreaker(b *resilience.Breaker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.breakers = append(c.breakers, b)
}

// Breakers snapshots the registered breakers.
func (c *Catalog) Breakers() []*resilience.Breaker {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*resilience.Breaker(nil), c.breakers...)
}

// Tables snapshots the open result tables, for metrics and
// introspection.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// CloseTables closes every table backend (flushing persistent ones)
// and empties the table namespace. The first error wins; closing
// continues regardless.
func (c *Catalog) CloseTables() error {
	c.mu.Lock()
	tables := c.tables
	c.tables = make(map[string]*Table)
	c.mu.Unlock()
	var first error
	for _, t := range tables {
		if err := t.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Table is a named result table fed by INTO TABLE and readable from a
// FROM clause. Storage is delegated to a TableBackend; the Table layer
// adds the catalog identity and the Source/BatchSource adaptation.
type Table struct {
	Name    string
	backend TableBackend
}

// Backend exposes the storage engine, for introspection (segment
// counts, scan counters) and tests.
func (t *Table) Backend() TableBackend { return t.backend }

// Append adds one row.
func (t *Table) Append(row value.Tuple) error {
	return t.backend.AppendBatch([]value.Tuple{row})
}

// AppendBatch adds rows in order. The slice is not retained.
func (t *Table) AppendBatch(rows []value.Tuple) error {
	return t.backend.AppendBatch(rows)
}

// Flush makes pending appends readable and, per the backend's policy,
// durable.
func (t *Table) Flush() error { return t.backend.Flush() }

// Rows returns a copy of the stored rows.
func (t *Table) Rows() []value.Tuple {
	var out []value.Tuple
	_ = t.backend.Scan(time.Time{}, time.Time{}, 256, func(b []value.Tuple) error {
		out = append(out, b...)
		return nil
	})
	return out
}

// Len reports the row count.
func (t *Table) Len() int { return t.backend.Len() }

// Healthy reports the backend's write health: nil for backends that
// never degrade, the degradation reason otherwise (see HealthReporter).
func (t *Table) Healthy() error {
	if h, ok := t.backend.(HealthReporter); ok {
		return h.Healthy()
	}
	return nil
}

// emptySchema backs Schema() for tables nothing has been written to:
// the planner needs a non-nil schema to compile against, and every
// column of an empty table resolves to NULL.
var emptySchema = value.NewSchema()

// Schema implements Source: the schema of the newest appended row.
func (t *Table) Schema() *value.Schema {
	if s := t.backend.Schema(); s != nil {
		return s
	}
	return emptySchema
}

// Open implements Source: a snapshot scan of the table's rows within
// the request's time range, closing at the end — historical replay,
// not a live tail. A scan error ends the stream early and is reported
// through req.OnError (cancellation is not an error).
func (t *Table) Open(ctx context.Context, req OpenRequest) (<-chan value.Tuple, *OpenInfo, error) {
	out := make(chan value.Tuple, 64)
	go func() {
		defer close(out)
		err := t.backend.Scan(req.From, req.To, 64, func(batch []value.Tuple) error {
			for _, row := range batch {
				select {
				case out <- row:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
		})
		reportScanErr(req, err)
	}()
	return out, &OpenInfo{Schema: t.Schema()}, nil
}

// ScanSchema reports the schema object the rows of a batched scan for
// cols carry: the pruned schema when the backend prunes, the table's
// full schema otherwise (nil cols, or a backend that ignores them).
func (t *Table) ScanSchema(cols []string) *value.Schema {
	if cs, ok := t.backend.(ColumnScanner); ok {
		if s := cs.PrunedSchema(cols); s != nil {
			return s
		}
	}
	return t.Schema()
}

// OpenBatches implements BatchSource: the same snapshot scan, one
// channel transfer per batch, reading only bo.Columns when the backend
// can prune. Each delivered batch is freshly allocated by the backend,
// so ownership passes cleanly.
func (t *Table) OpenBatches(ctx context.Context, req OpenRequest, bo BatchOptions) (<-chan []value.Tuple, *OpenInfo, error) {
	if bo.Size < 1 {
		bo.Size = 1
	}
	info := &OpenInfo{Schema: t.ScanSchema(bo.Columns)}
	out := make(chan []value.Tuple, 4)
	go func() {
		defer close(out)
		deliver := func(batch []value.Tuple) error {
			select {
			case out <- batch:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		var err error
		if cs, ok := t.backend.(ColumnScanner); ok {
			err = cs.ScanColumns(req.From, req.To, bo.Size, bo.Columns, deliver)
		} else {
			err = t.backend.Scan(req.From, req.To, bo.Size, deliver)
		}
		reportScanErr(req, err)
	}()
	return out, info, nil
}

// reportScanErr forwards a mid-stream scan failure to the request's
// error hook; context cancellation is the consumer's doing, not a
// table failure.
func reportScanErr(req OpenRequest, err error) {
	if err == nil || req.OnError == nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	req.OnError(err)
}

// DefaultMemTableRows caps in-memory tables when no explicit cap is
// configured, so INTO TABLE under firehose load degrades to a sliding
// window instead of exhausting memory. A full tweet row there is 536
// bytes before its strings (the tuple header and twelve 40-byte
// cells), so the default holds ~560 MB of cells.
const DefaultMemTableRows = 1 << 20

// MemBackend is the in-memory TableBackend: a bounded ring buffer that
// keeps the newest capRows rows.
type MemBackend struct {
	cap int

	mu     sync.RWMutex
	schema *value.Schema
	rows   []value.Tuple
	start  int // ring read position once len(rows) == cap
}

// NewMemBackend builds an in-memory backend keeping at most capRows
// rows (<= 0 means DefaultMemTableRows).
func NewMemBackend(capRows int) *MemBackend {
	if capRows <= 0 {
		capRows = DefaultMemTableRows
	}
	return &MemBackend{cap: capRows}
}

// AppendBatch implements TableBackend.
func (m *MemBackend) AppendBatch(rows []value.Tuple) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range rows {
		if r.Schema != nil {
			m.schema = r.Schema
		}
		if len(m.rows) < m.cap {
			m.rows = append(m.rows, r)
		} else {
			m.rows[m.start] = r
			m.start = (m.start + 1) % m.cap
		}
	}
	return nil
}

// Flush implements TableBackend (appends are immediately readable).
func (m *MemBackend) Flush() error { return nil }

// Schema implements TableBackend.
func (m *MemBackend) Schema() *value.Schema {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.schema
}

// Len implements TableBackend.
func (m *MemBackend) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// Scan implements TableBackend over a snapshot of the ring.
func (m *MemBackend) Scan(from, to time.Time, batchHint int, fn func([]value.Tuple) error) error {
	if batchHint < 1 {
		batchHint = 256
	}
	m.mu.RLock()
	snap := make([]value.Tuple, 0, len(m.rows))
	snap = append(snap, m.rows[m.start:]...)
	snap = append(snap, m.rows[:m.start]...)
	m.mu.RUnlock()
	var batch []value.Tuple
	for _, r := range snap {
		if !r.TS.IsZero() {
			if !from.IsZero() && r.TS.Before(from) {
				continue
			}
			if !to.IsZero() && r.TS.After(to) {
				continue
			}
		}
		if batch == nil {
			batch = make([]value.Tuple, 0, batchHint)
		}
		batch = append(batch, r)
		if len(batch) >= batchHint {
			if err := fn(batch); err != nil {
				return err
			}
			batch = nil
		}
	}
	if len(batch) > 0 {
		return fn(batch)
	}
	return nil
}

// Close implements TableBackend.
func (m *MemBackend) Close() error { return nil }

// TweetSchema is the schema of the base twitter stream. Field names
// follow the paper's examples: `text`, `loc` (the free-text profile
// location the geocoding UDFs take), `location` (alias column carrying
// the same string), GPS lat/lon (NULL unless the tweet is geo-tagged).
var TweetSchema = value.NewSchema(
	value.Field{Name: "id", Kind: value.KindInt},
	value.Field{Name: "user_id", Kind: value.KindInt},
	value.Field{Name: "username", Kind: value.KindString},
	value.Field{Name: "text", Kind: value.KindString},
	value.Field{Name: "created_at", Kind: value.KindTime},
	value.Field{Name: "loc", Kind: value.KindString},
	value.Field{Name: "location", Kind: value.KindString},
	value.Field{Name: "lat", Kind: value.KindFloat},
	value.Field{Name: "lon", Kind: value.KindFloat},
	value.Field{Name: "has_geo", Kind: value.KindBool},
	value.Field{Name: "followers", Kind: value.KindInt},
	value.Field{Name: "retweet", Kind: value.KindBool},
)

// TweetTuple converts a tweet into a row of TweetSchema.
func TweetTuple(t *tweet.Tweet) value.Tuple {
	_, row := AppendTweetTuple(nil, t)
	return row
}

// AppendTweetTuple converts a tweet into a row of TweetSchema whose
// values live in arena, growing and returning it. Batched sources pass
// one arena per batch so a whole batch of rows costs one values
// allocation instead of one per tweet — the value slices dominate the
// conversion's allocation profile. The column mapping itself lives in
// appendTweetCol, so full and pruned conversion cannot drift.
func AppendTweetTuple(arena []value.Value, t *tweet.Tweet) ([]value.Value, value.Tuple) {
	start := len(arena)
	for ci := 0; ci < TweetSchema.Len(); ci++ {
		arena = appendTweetCol(arena, t, ci)
	}
	// The three-index slice caps the row at its own cells, so later
	// arena appends cannot alias it.
	return arena, value.NewTuple(TweetSchema, arena[start:len(arena):len(arena)], t.CreatedAt)
}

// TweetFromTuple reconstructs a Tweet from a TweetSchema row (or any
// row carrying the same column names), the inverse of TweetTuple.
// Applications like TwitInfo consume TweeQL query output as tweets.
func TweetFromTuple(row value.Tuple) *tweet.Tweet {
	return ResolveTweetColumns(row.Schema).Tweet(row)
}

// TweetColumns is where one schema keeps the tweet columns (-1 where it
// lacks one), so a consumer of many rows of that schema resolves the
// names once instead of once per row and column.
type TweetColumns struct {
	id, userID, username, text, createdAt, loc, hasGeo, lat, lon, followers, retweet int
}

// ResolveTweetColumns looks the tweet columns up by name in s.
func ResolveTweetColumns(s *value.Schema) TweetColumns {
	at := func(name string) int {
		if i, ok := s.Index(name); ok {
			return i
		}
		return -1
	}
	return TweetColumns{
		id: at("id"), userID: at("user_id"), username: at("username"), text: at("text"),
		createdAt: at("created_at"), loc: at("loc"), hasGeo: at("has_geo"), lat: at("lat"),
		lon: at("lon"), followers: at("followers"), retweet: at("retweet"),
	}
}

func (c TweetColumns) get(row value.Tuple, i int) value.Value {
	if i < 0 {
		return value.Null()
	}
	return row.Values[i]
}

// TextAndTime reads just the two columns an event filter tests — the
// text and created_at (the row's own timestamp when the column is
// absent or not a time) — without building the tweet.
func (c TweetColumns) TextAndTime(row value.Tuple) (string, time.Time) {
	text, _ := c.get(row, c.text).StringVal()
	if ts, err := c.get(row, c.createdAt).TimeVal(); err == nil {
		return text, ts
	}
	return text, row.TS
}

// Tweet reconstructs the whole tweet from a row of the resolved schema;
// columns that are absent, NULL or of another kind stay zero.
func (c TweetColumns) Tweet(row value.Tuple) *tweet.Tweet {
	t := &tweet.Tweet{}
	t.Text, t.CreatedAt = c.TextAndTime(row)
	if v, err := c.get(row, c.id).IntVal(); err == nil {
		t.ID = v
	}
	if v, err := c.get(row, c.userID).IntVal(); err == nil {
		t.UserID = v
	}
	if v, err := c.get(row, c.username).StringVal(); err == nil {
		t.Username = v
	}
	if v, err := c.get(row, c.loc).StringVal(); err == nil {
		t.Location = v
	}
	if v, err := c.get(row, c.hasGeo).BoolVal(); err == nil {
		t.HasGeo = v
	}
	if t.HasGeo {
		if v, err := c.get(row, c.lat).FloatVal(); err == nil {
			t.Lat = v
		}
		if v, err := c.get(row, c.lon).FloatVal(); err == nil {
			t.Lon = v
		}
	}
	if v, err := c.get(row, c.followers).IntVal(); err == nil {
		t.Followers = int(v)
	}
	if v, err := c.get(row, c.retweet).BoolVal(); err == nil {
		t.Retweet = v
	}
	return t
}

// TwitterSource adapts a simulated streaming-API hub into a Source,
// performing the §2 selectivity-sampling pushdown on Open.
type TwitterSource struct {
	hub *twitterapi.Hub
	// sample is recent stream history used to estimate candidate filter
	// selectivities before connecting (the paper samples the live
	// streams; a replayed simulation estimates from the warm-up prefix).
	sample []*tweet.Tweet
}

// NewTwitterSource wraps a hub. sample may be nil (no pushdown stats:
// the first candidate wins ties at selectivity 0).
func NewTwitterSource(hub *twitterapi.Hub, sample []*tweet.Tweet) *TwitterSource {
	return &TwitterSource{hub: hub, sample: sample}
}

// Schema implements Source.
func (s *TwitterSource) Schema() *value.Schema { return TweetSchema }

// LiveStream implements LiveSource: the twitter stream is live, so N
// queries with one scan signature can share one API connection.
func (s *TwitterSource) LiveStream() bool { return true }

// connect applies the §2 pushdown decision shared by Open and
// OpenBatches — choose the lowest-selectivity candidate (if any) by
// sampling, and open the streaming connection with it — so the batched
// and tuple paths can never pick different pushed filters.
func (s *TwitterSource) connect(req OpenRequest) (*twitterapi.Connection, *OpenInfo, error) {
	info := &OpenInfo{Schema: TweetSchema}
	filter := twitterapi.Filter{SampleRate: 1} // full stream by default
	if len(req.Candidates) > 0 {
		sample := s.sample
		if req.SampleSize > 0 && len(sample) > req.SampleSize {
			sample = sample[:req.SampleSize]
		}
		best, ests := selectivity.Choose(sample, req.Candidates)
		info.Estimates = ests
		info.Chosen = req.Candidates[best]
		info.ChosenIdx = best
		info.Pushed = true
		filter = req.Candidates[best]
	}
	opts := []twitterapi.ConnectOpt{}
	if req.Buffer > 0 {
		opts = append(opts, twitterapi.WithBuffer(req.Buffer))
	}
	conn, err := s.hub.Connect(filter, opts...)
	if err != nil {
		return nil, nil, err
	}
	return conn, info, nil
}

// Open implements Source: choose the lowest-selectivity candidate (if
// any), connect with it, and convert tweets to tuples.
func (s *TwitterSource) Open(ctx context.Context, req OpenRequest) (<-chan value.Tuple, *OpenInfo, error) {
	conn, info, err := s.connect(req)
	if err != nil {
		return nil, nil, err
	}
	out := make(chan value.Tuple, 64)
	go func() {
		defer close(out)
		defer conn.Close()
		for {
			select {
			case t, ok := <-conn.C():
				if !ok {
					return
				}
				select {
				case out <- TweetTuple(t):
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, info, nil
}

// OpenBatches implements BatchSource: the same pushdown decision as
// Open, with arriving tweets grouped into batches of up to bo.Size
// tuples and partial batches flushed every bo.FlushEvery.
func (s *TwitterSource) OpenBatches(ctx context.Context, req OpenRequest, bo BatchOptions) (<-chan []value.Tuple, *OpenInfo, error) {
	if bo.Size < 1 {
		bo.Size = 1
	}
	conn, info, err := s.connect(req)
	if err != nil {
		return nil, nil, err
	}
	// Detach from the hub if the query is cancelled mid-stream (natural
	// stream end means the hub closed and already dropped us).
	context.AfterFunc(ctx, conn.Close)
	// Ingestion and conversion pipeline: stage 1 only accumulates tweet
	// pointers off the connection (so the stream-facing goroutine is
	// never behind on a burst), stage 2 converts whole chunks to tuple
	// batches — on a worker pool when bo.Workers > 1, reassembled in
	// order — with one value-cell arena per batch, so conversion costs
	// two allocations per batch instead of one per tweet.
	raw := asyncop.Chunk(ctx, conn.C(), bo.Size, bo.FlushEvery)

	workers := bo.Workers
	if workers < 1 {
		workers = 1
	}
	schema, colIdx := TweetSchema.Prune(bo.Columns)
	info.Schema = schema
	convert := func(_ context.Context, ts []*tweet.Tweet) ([]value.Tuple, error) {
		arena := make([]value.Value, 0, len(ts)*len(colIdx))
		rows := make([]value.Tuple, 0, len(ts))
		for _, t := range ts {
			start := len(arena)
			for _, ci := range colIdx {
				arena = appendTweetCol(arena, t, ci)
			}
			rows = append(rows, value.NewTuple(schema, arena[start:len(arena):len(arena)], t.CreatedAt))
		}
		return rows, nil
	}
	d := asyncop.New(convert, asyncop.WithWorkers(workers), asyncop.WithOrderPreserved())
	out := make(chan []value.Tuple, 4)
	go func() {
		defer close(out)
		for r := range d.Run(ctx, raw) {
			select {
			case out <- r.Out:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, info, nil
}

// appendTweetCol materializes the col-th TweetSchema column of t.
func appendTweetCol(arena []value.Value, t *tweet.Tweet, col int) []value.Value {
	switch col {
	case 0:
		return append(arena, value.Int(t.ID))
	case 1:
		return append(arena, value.Int(t.UserID))
	case 2:
		return append(arena, value.String(t.Username))
	case 3:
		return append(arena, value.String(t.Text))
	case 4:
		return append(arena, value.Time(t.CreatedAt))
	case 5, 6:
		return append(arena, value.String(t.Location))
	case 7:
		if t.HasGeo {
			return append(arena, value.Float(t.Lat))
		}
		return append(arena, value.Null())
	case 8:
		if t.HasGeo {
			return append(arena, value.Float(t.Lon))
		}
		return append(arena, value.Null())
	case 9:
		return append(arena, value.Bool(t.HasGeo))
	case 10:
		return append(arena, value.Int(int64(t.Followers)))
	case 11:
		return append(arena, value.Bool(t.Retweet))
	default:
		return append(arena, value.Null())
	}
}

// SliceSource replays a fixed set of tuples, for tests and derived
// streams materialized from tables.
type SliceSource struct {
	schema *value.Schema
	rows   []value.Tuple
}

// NewSliceSource builds a source over rows (all must share schema).
func NewSliceSource(schema *value.Schema, rows []value.Tuple) *SliceSource {
	return &SliceSource{schema: schema, rows: rows}
}

// Schema implements Source.
func (s *SliceSource) Schema() *value.Schema { return s.schema }

// Open implements Source; candidates are ignored (nothing to push down).
func (s *SliceSource) Open(ctx context.Context, _ OpenRequest) (<-chan value.Tuple, *OpenInfo, error) {
	out := make(chan value.Tuple, 64)
	go func() {
		defer close(out)
		for _, r := range s.rows {
			// Check cancellation before the send: with buffer available
			// and ctx already done, the select below picks a ready case
			// at random and could leak rows past cancellation.
			if ctx.Err() != nil {
				return
			}
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, &OpenInfo{Schema: s.schema}, nil
}

// OpenBatches implements BatchSource: the fixed rows are pre-chunked,
// so replay costs one channel transfer per bo.Size tuples. Each chunk
// is copied out of s.rows — batch ownership passes to the receiver,
// which may compact batches in place, and the source's stored rows
// must survive for the next query.
func (s *SliceSource) OpenBatches(ctx context.Context, _ OpenRequest, bo BatchOptions) (<-chan []value.Tuple, *OpenInfo, error) {
	if bo.Size < 1 {
		bo.Size = 1
	}
	out := make(chan []value.Tuple, 4)
	go func() {
		defer close(out)
		for lo := 0; lo < len(s.rows); lo += bo.Size {
			hi := min(lo+bo.Size, len(s.rows))
			if ctx.Err() != nil {
				return
			}
			batch := make([]value.Tuple, hi-lo)
			copy(batch, s.rows[lo:hi])
			select {
			case out <- batch:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, &OpenInfo{Schema: s.schema}, nil
}

// DerivedStream lives in stream.go: a live stream fed by a query's
// INTO STREAM clause (or a server-side result broadcaster), consumable
// by later FROM clauses and by fan-out subscribers.
