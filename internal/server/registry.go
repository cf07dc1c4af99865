// Package server is tweeqld's query-serving subsystem: a registry of
// named continuous TweeQL queries over one engine, a JSON REST API to
// manage them, SSE/NDJSON result streaming with per-subscriber
// backpressure, one-shot snapshot queries over persistent tables, and
// a /metrics endpoint. The paper demos TweeQL+TwitInfo as a *service*
// — users register queries against the live stream and browse results
// in a browser — and this package is that serving shape: many
// concurrent continuous queries, many subscribers per query, one
// process.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/lang"
	"tweeql/internal/obs"
)

// QueryState is a registered query's lifecycle state.
type QueryState string

const (
	// StateRunning: the query's cursor is live.
	StateRunning QueryState = "running"
	// StatePaused: stopped by request; the definition (and, for plain
	// SELECTs, the fan-out stream and its subscribers) is retained.
	StatePaused QueryState = "paused"
	// StateDone: the source stream ended without error.
	StateDone QueryState = "done"
	// StateError: the query died and the restart policy gave up.
	StateError QueryState = "error"
)

// QuerySpec defines one registered continuous query.
type QuerySpec struct {
	// Name identifies the query in the API and the journal.
	Name string `json:"name"`
	// SQL is the TweeQL statement.
	SQL string `json:"sql"`
	// Restart re-issues the query after a mid-stream error, with
	// backoff, up to the registry policy's cap.
	Restart bool `json:"restart,omitempty"`
}

// RestartPolicy bounds error-triggered restarts of Restart-flagged
// queries.
type RestartPolicy struct {
	// MaxRestarts caps consecutive restarts per query (0 = default 5);
	// the counter resets once a restarted run stays healthy for
	// HealthyAfter, so lifetime blips never exhaust it.
	MaxRestarts int
	// Backoff is the delay before each restart (0 = default 500ms).
	Backoff time.Duration
	// HealthyAfter is how long a restarted run must survive before the
	// restart counter resets (0 = default 1 minute).
	HealthyAfter time.Duration
	// Now is the clock the streak logic reads (nil = time.Now). Tests
	// inject a fake clock so "ran healthy for a minute" is assertable
	// without waiting a minute.
	Now func() time.Time
}

func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 5
	}
	if p.Backoff <= 0 {
		p.Backoff = 500 * time.Millisecond
	}
	if p.HealthyAfter <= 0 {
		p.HealthyAfter = healthyRunDuration
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// QueryStatus is the API/metrics snapshot of one registered query.
type QueryStatus struct {
	Name      string     `json:"name"`
	SQL       string     `json:"sql"`
	State     QueryState `json:"state"`
	Error     string     `json:"error,omitempty"`
	Into      string     `json:"into,omitempty"` // "stream:x" or "table:x"
	Restart   bool       `json:"restart,omitempty"`
	Restarts  int        `json:"restarts"`
	CreatedAt time.Time  `json:"created_at"`
	StartedAt time.Time  `json:"started_at,omitempty"` // current run

	// Health is the honest one-word answer to "is this query fine":
	// "ok" (running clean), "degraded" (still serving, but values were
	// NULLed by exhausted retries, rows were dropped on a read-only
	// table, the run is inside a restart streak, or its INTO TABLE
	// target went read-only), or "failed" (dead, restart policy gave
	// up). A paused/done query with no residue reports "ok".
	Health string `json:"health"`
	// Degraded counts NULL substitutions and rows dropped on unhealthy
	// sinks in the current run.
	Degraded int64 `json:"degraded"`

	// Scan is the canonical signature of the physical scan the query
	// reads; ScanShared reports whether the current run attached to a
	// shared scan (one source subscription serving every query with
	// this signature) rather than opening a private one.
	Scan       string `json:"scan,omitempty"`
	ScanShared bool   `json:"scan_shared,omitempty"`

	RowsIn     int64   `json:"rows_in"`
	RowsOut    int64   `json:"rows_out"`
	FilterDrop int64   `json:"filter_dropped"`
	EvalErrors int64   `json:"eval_errors"`
	RowsPerSec float64 `json:"rows_per_sec"`

	Subscribers    int   `json:"subscribers"`
	Published      int64 `json:"published"`
	SubscriberDrop int64 `json:"subscriber_dropped"`
}

// Query is one registered continuous query: its spec, the current run's
// cursor, and the fan-out stream subscribers attach to.
type Query struct {
	reg  *Registry
	spec QuerySpec
	stmt *lang.SelectStmt

	mu        sync.Mutex
	state     QueryState
	stateErr  string
	cur       *core.Cursor
	bcast     *catalog.DerivedStream
	epoch     int // increments per (re)start; stale run-end reports are ignored
	restarts  int
	createdAt time.Time
	startedAt time.Time
	// lastProf retains the newest run's profile past the run itself, so
	// /profile can serve a paused or completed query's numbers (marked
	// stale) instead of erroring.
	lastProf *obs.Profile
}

// nameRe bounds query (and snapshot-table) names: they appear in URLs,
// the journal, and metrics labels.
var nameRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_-]{0,63}$`)

// ErrUnknownQuery marks lookups of names the registry doesn't hold, so
// the HTTP layer can tell not-found (404) apart from real failures
// (e.g. a journal write error on a drop that already happened).
var ErrUnknownQuery = errors.New("server: unknown query")

// errBadState marks lifecycle transitions invalid for the query's
// current state (pausing a paused query, resuming a running one) —
// HTTP 409, not 404/500.
var errBadState = errors.New("server: invalid state transition")

// errDuplicate marks creates of names already registered — HTTP 409.
var errDuplicate = errors.New("server: query already exists")

// errJournal marks a create whose journal append failed: the query was
// started, then rolled back, because an unjournaled query would
// silently vanish on the next daemon restart — an honest 500 now beats
// a quiet disappearance later.
var errJournal = errors.New("server: journal write failed, query rolled back")

// maxSQLLen bounds a registered statement. The journal replayer reads
// line-wise with a 1 MiB cap; bounding SQL well below that guarantees
// a journaled create can always be replayed.
const maxSQLLen = 64 << 10

// healthyRunDuration is the RestartPolicy.HealthyAfter default: how
// long a restarted run must survive before the restart counter resets
// — MaxRestarts caps *consecutive* rapid failures, not lifetime blips
// spread over days.
const healthyRunDuration = time.Minute

// Registry owns the set of registered queries over one engine, their
// lifecycle, and (when durable) the journal that restores them on
// restart.
type Registry struct {
	eng     *core.Engine
	journal *journal // nil when the registry is not durable
	policy  RestartPolicy
	log     *slog.Logger // never nil; discards when no logger was given
	// events receives lifecycle events for the $sys.events stream and
	// the debug bundle. Nil (the default) disables emission for free —
	// obs.EventLog is nil-receiver safe.
	events *obs.EventLog

	// opMu serializes the mutating control-plane operations end-to-end
	// (state change + journal append), so the journal's record order can
	// never contradict the order the operations took effect in — a drop
	// racing a create must not journal first and resurrect the query on
	// replay. Control-plane ops are rare; a coarse lock is fine.
	opMu sync.Mutex

	mu      sync.Mutex
	queries map[string]*Query
	order   []string
	closed  bool
	wg      sync.WaitGroup
}

// discardLogger swallows records; the registry logs unconditionally
// and this is the "no logger configured" sink.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

// NewRegistry builds a registry over eng. dataDir roots the durable
// journal ("" keeps the registry in memory only); queries journaled by
// an earlier process are restored — re-issued against the engine, which
// in turn reopens their INTO TABLE targets from the engine's data dir
// and re-registers their INTO STREAM targets. log receives structured
// lifecycle events (nil discards them).
func NewRegistry(eng *core.Engine, dataDir string, policy RestartPolicy, log *slog.Logger) (*Registry, error) {
	if log == nil {
		log = discardLogger
	}
	r := &Registry{
		eng:     eng,
		policy:  policy.withDefaults(),
		log:     log,
		queries: make(map[string]*Query),
	}
	if dataDir == "" {
		return r, nil
	}
	j, specs, err := openJournal(dataDir)
	if err != nil {
		return nil, err
	}
	r.journal = j
	for _, js := range specs {
		q, err := r.create(js.QuerySpec, false)
		if err != nil {
			r.log.Warn("journaled query failed to restore",
				"query", js.Name, "error", err.Error())
			// A journaled query the engine now rejects (e.g. its source is
			// gone) must not brick the daemon; surface it as an errored
			// registry entry instead. Keep the parsed statement when the
			// SQL itself is fine, so a later Resume (after the operator
			// fixes the environment) has the Into metadata it needs.
			stmt, _ := lang.Parse(js.SQL)
			q = &Query{reg: r, spec: js.QuerySpec, stmt: stmt, state: StateError,
				stateErr: err.Error(), createdAt: r.policy.Now()}
			r.mu.Lock()
			r.queries[strings.ToLower(js.Name)] = q
			r.order = append(r.order, js.Name)
			r.mu.Unlock()
			continue
		}
		if js.Paused {
			_ = r.pauseLocked(q, false)
		}
	}
	return r, nil
}

// SetEventLog attaches the registry's lifecycle-event sink. Call it
// before serving traffic: emission sites read the field without
// locking, relying on EventLog's nil-safety when never set.
func (r *Registry) SetEventLog(l *obs.EventLog) { r.events = l }

// Create registers and starts a new continuous query.
func (r *Registry) Create(spec QuerySpec) (*Query, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	return r.create(spec, true)
}

func (r *Registry) create(spec QuerySpec, journal bool) (*Query, error) {
	if !nameRe.MatchString(spec.Name) {
		return nil, fmt.Errorf("server: invalid query name %q", spec.Name)
	}
	if len(spec.SQL) > maxSQLLen {
		return nil, fmt.Errorf("server: statement too long (%d bytes, max %d)", len(spec.SQL), maxSQLLen)
	}
	stmt, err := lang.Parse(spec.SQL)
	if err != nil {
		return nil, err
	}
	// Registered as running before start() so no concurrent List or
	// metrics scrape ever observes a query without a lifecycle state;
	// a start failure removes the entry again below.
	q := &Query{reg: r, spec: spec, stmt: stmt, state: StateRunning, createdAt: r.policy.Now()}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("server: registry closed")
	}
	key := strings.ToLower(spec.Name)
	if _, dup := r.queries[key]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", errDuplicate, spec.Name)
	}
	r.queries[key] = q
	r.order = append(r.order, spec.Name)
	r.mu.Unlock()

	if err := q.start(); err != nil {
		r.removeEntry(spec.Name)
		return nil, err
	}
	if journal && r.journal != nil {
		if err := r.journal.append(journalRecord{Op: opCreate, Name: spec.Name,
			SQL: spec.SQL, Restart: spec.Restart}); err != nil {
			// The query started but its definition didn't land durably; on
			// the next daemon restart it would silently not exist. Roll the
			// create back completely — stop the run, remove the entry, end
			// its fan-out — so the registry and the journal agree again and
			// the client gets an error it can retry.
			r.removeEntry(spec.Name)
			q.mu.Lock()
			q.state = StateDone
			cur, bcast := q.cur, q.bcast
			q.cur = nil
			q.mu.Unlock()
			if cur != nil {
				cur.Stop()
			}
			if bcast != nil {
				bcast.CloseStream()
			}
			return nil, fmt.Errorf("%w: %v", errJournal, err)
		}
	}
	r.log.Info("query created", "query", spec.Name, "restart", spec.Restart, "sql", spec.SQL)
	r.events.Emit("query_created", spec.Name, spec.SQL)
	return q, nil
}

// removeEntry unregisters name from the query map and creation order.
func (r *Registry) removeEntry(name string) {
	r.mu.Lock()
	delete(r.queries, strings.ToLower(name))
	for i := len(r.order) - 1; i >= 0; i-- {
		if strings.EqualFold(r.order[i], name) {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// Get resolves a registered query by name.
func (r *Registry) Get(name string) (*Query, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queries[strings.ToLower(name)]
	return q, ok
}

// Closed reports whether the registry has shut down — the one state in
// which the daemon is not ready to serve at all.
func (r *Registry) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// List snapshots every registered query's status, in creation order.
func (r *Registry) List() []QueryStatus {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	queries := make([]*Query, 0, len(names))
	for _, n := range names {
		if q, ok := r.queries[strings.ToLower(n)]; ok {
			queries = append(queries, q)
		}
	}
	r.mu.Unlock()
	out := make([]QueryStatus, 0, len(queries))
	for _, q := range queries {
		out = append(out, q.Status())
	}
	return out
}

// Pause stops the named query's cursor, keeping its definition (and
// its fan-out stream: subscribers stay attached, idle).
func (r *Registry) Pause(name string) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	q, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownQuery, name)
	}
	return r.pauseLocked(q, true)
}

func (r *Registry) pauseLocked(q *Query, journal bool) error {
	q.mu.Lock()
	if q.state != StateRunning {
		q.mu.Unlock()
		return fmt.Errorf("%w: query %q is %s, not running", errBadState, q.spec.Name, q.state)
	}
	q.state = StatePaused
	cur := q.cur
	q.mu.Unlock()
	if cur != nil {
		cur.Stop()
	}
	r.log.Info("query paused", "query", q.spec.Name)
	r.events.Emit("query_paused", q.spec.Name, "")
	if journal && r.journal != nil {
		return r.journal.append(journalRecord{Op: opPause, Name: q.spec.Name})
	}
	return nil
}

// Resume restarts a paused (or errored/done) query.
func (r *Registry) Resume(name string) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	q, ok := r.Get(name)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownQuery, name)
	}
	q.mu.Lock()
	if q.state == StateRunning {
		q.mu.Unlock()
		return fmt.Errorf("%w: query %q is already running", errBadState, name)
	}
	q.restarts = 0
	q.mu.Unlock()
	if err := q.start(); err != nil {
		return err
	}
	r.log.Info("query resumed", "query", q.spec.Name)
	r.events.Emit("query_resumed", q.spec.Name, "")
	if r.journal != nil {
		return r.journal.append(journalRecord{Op: opResume, Name: q.spec.Name})
	}
	return nil
}

// Drop stops and removes the named query; its fan-out subscribers see
// end-of-stream.
func (r *Registry) Drop(name string) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	key := strings.ToLower(name)
	q, ok := r.queries[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownQuery, name)
	}
	delete(r.queries, key)
	for i, n := range r.order {
		if strings.EqualFold(n, name) {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.mu.Unlock()

	q.mu.Lock()
	q.state = StateDone
	cur, bcast := q.cur, q.bcast
	q.cur = nil
	q.mu.Unlock()
	if cur != nil {
		cur.Stop()
	}
	if bcast != nil {
		bcast.CloseStream()
	}
	r.log.Info("query dropped", "query", name)
	r.events.Emit("query_dropped", name, "")
	if r.journal != nil {
		return r.journal.append(journalRecord{Op: opDrop, Name: name})
	}
	return nil
}

// Close stops every query, waits (bounded by ctx) for their routing to
// drain, closes fan-out streams, and closes the journal. The engine is
// NOT closed — its owner does that after Close returns, so persistent
// table buffers flush once everything stopped writing.
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	queries := make([]*Query, 0, len(r.queries))
	for _, q := range r.queries {
		queries = append(queries, q)
	}
	r.mu.Unlock()

	for _, q := range queries {
		q.mu.Lock()
		if q.state == StateRunning {
			q.state = StatePaused // suppress restart-on-error during teardown
		}
		cur := q.cur
		q.mu.Unlock()
		if cur != nil {
			cur.Stop()
		}
	}
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = fmt.Errorf("server: shutdown timed out waiting for queries: %w", ctx.Err())
	}
	for _, q := range queries {
		q.mu.Lock()
		bcast := q.bcast
		q.mu.Unlock()
		if bcast != nil {
			bcast.CloseStream()
		}
	}
	if r.journal != nil {
		if err := r.journal.close(); err != nil && waitErr == nil {
			waitErr = err
		}
	}
	return waitErr
}

// start issues the query against the engine and launches its pump.
// Callers must not hold q.mu. Concurrent starts (e.g. two racing
// Resumes) are safe: the loser stops its cursor and reports a
// conflict, so exactly one run owns the query.
func (q *Query) start() error {
	cur, err := q.reg.eng.Query(context.Background(), q.spec.SQL)
	if err != nil {
		q.mu.Lock()
		q.state = StateError
		q.stateErr = err.Error()
		q.mu.Unlock()
		return err
	}

	now := q.reg.policy.Now() // read the clock outside q.mu
	q.mu.Lock()
	if q.state == StateRunning && q.cur != nil {
		q.mu.Unlock()
		cur.Stop()
		return fmt.Errorf("%w: query %q is already running", errBadState, q.spec.Name)
	}
	q.cur = cur
	if prof := cur.Profile(); prof != nil {
		q.lastProf = prof
	}
	q.state = StateRunning
	q.stateErr = ""
	q.startedAt = now
	q.epoch++
	epoch := q.epoch
	routed := cur.Routed()
	switch {
	case !routed:
		// Plain SELECT: the registry owns the fan-out stream, and it
		// survives restarts so subscribers keep streaming across an
		// error-triggered re-issue.
		if q.bcast == nil {
			q.bcast = catalog.NewDerivedStream(q.spec.Name, cur.Schema())
		}
	case q.stmt != nil && q.stmt.Into.Kind == lang.IntoStream:
		// INTO STREAM: the engine registered a fresh DerivedStream in the
		// catalog for this run; fan out from it directly. Subscribers of a
		// previous run's stream see end-of-stream and reconnect.
		if src, err := q.reg.eng.Catalog().Source(q.stmt.Into.Name); err == nil {
			if ds, ok := src.(*catalog.DerivedStream); ok {
				q.bcast = ds
			}
		}
	default:
		// INTO TABLE: rows land in the table; there is no live stream to
		// fan out. Subscribers use the snapshot endpoint.
		q.bcast = nil
	}
	bcast := q.bcast
	q.mu.Unlock()

	profileID := ""
	if prof := cur.Profile(); prof != nil {
		profileID = prof.ID
	}
	q.reg.log.Info("query run started",
		"query", q.spec.Name, "epoch", epoch, "profile", profileID,
		"scan", cur.ScanSignature(), "scan_shared", cur.ScanShared())

	q.reg.wg.Add(1)
	go q.pump(epoch, cur, routed, bcast)
	return nil
}

// pump moves one run's results into the fan-out stream (for plain
// SELECTs) or waits for routed delivery, then reports the run's end.
func (q *Query) pump(epoch int, cur *core.Cursor, routed bool, bcast *catalog.DerivedStream) {
	defer q.reg.wg.Done()
	if routed {
		<-cur.Drained()
	} else {
		// The delivery hop is the last instrumented stage: latency of
		// one fan-out publish (subscriber-set traversal plus any Block
		// backpressure), closing the ingest→delivery span the profile's
		// lag histogram measures.
		sp := cur.Profile().Stage("deliver", "subscribers", "batch")
		for batch := range cur.Batches() {
			span := sp.Enter()
			bcast.PublishBatch(batch)
			span.Exit(len(batch), len(batch))
		}
	}
	q.onRunEnd(epoch, cur.Stats().Err())
}

// onRunEnd settles the query's state after a run and applies the
// restart policy.
func (q *Query) onRunEnd(epoch int, err error) {
	now := q.reg.policy.Now() // read the clock outside q.mu
	q.mu.Lock()
	if epoch != q.epoch {
		q.mu.Unlock()
		return // a newer run superseded this one
	}
	if q.state != StateRunning {
		q.mu.Unlock()
		return // paused or dropped on purpose
	}
	if err == nil {
		q.state = StateDone
		q.mu.Unlock()
		q.reg.log.Info("query run ended", "query", q.spec.Name, "epoch", epoch)
		q.reg.events.Emit("query_done", q.spec.Name, "")
		return
	}
	q.stateErr = err.Error()
	policy := q.reg.policy
	// A run that survived a healthy interval ends the current failure
	// streak: MaxRestarts bounds consecutive rapid failures only.
	if !q.startedAt.IsZero() && now.Sub(q.startedAt) > policy.HealthyAfter {
		q.restarts = 0
	}
	if !q.spec.Restart || q.restarts >= policy.MaxRestarts {
		q.state = StateError
		q.mu.Unlock()
		q.reg.log.Warn("query run failed", "query", q.spec.Name, "epoch", epoch,
			"error", err.Error(), "restarts_exhausted", q.spec.Restart)
		q.reg.events.Emit("query_failed", q.spec.Name, err.Error())
		return
	}
	q.restarts++
	q.reg.log.Warn("query restart scheduled", "query", q.spec.Name, "epoch", epoch,
		"error", err.Error(), "attempt", q.restarts, "backoff", policy.Backoff)
	q.reg.events.Emit("query_restart", q.spec.Name,
		fmt.Sprintf("attempt %d: %s", q.restarts, err.Error()))
	// Clear the dead run's cursor so the restart passes start()'s
	// duplicate-run guard (per-run stats reset with it; cumulative
	// restart counts survive on the query).
	q.cur = nil
	q.mu.Unlock()
	time.AfterFunc(policy.Backoff, func() {
		q.mu.Lock()
		stale := epoch != q.epoch || q.state != StateRunning
		q.mu.Unlock()
		if stale {
			return
		}
		_ = q.start() // failure lands in q.state/q.stateErr
	})
}

// Broadcaster returns the query's current fan-out stream, nil when the
// query routes INTO TABLE (snapshot-only).
func (q *Query) Broadcaster() *catalog.DerivedStream {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bcast
}

// Spec returns the query's definition.
func (q *Query) Spec() QuerySpec { return q.spec }

// Profile returns the current run's observability profile: per-
// operator rows/latency/selectivity, output watermark lag, and the
// sampled trace ring. Nil when the query has no live run or the
// engine's profiling is off.
func (q *Query) Profile() *obs.Profile {
	q.mu.Lock()
	cur := q.cur
	q.mu.Unlock()
	if cur == nil {
		return nil
	}
	return cur.Profile()
}

// ProfileForServing resolves the profile /profile should serve: the
// live run's when one exists, otherwise the retained last run's with
// stale=true — a paused or completed query's numbers are still the
// numbers an operator debugging it needs. (nil, false) only when the
// query never ran with profiling on.
func (q *Query) ProfileForServing() (prof *obs.Profile, stale bool) {
	q.mu.Lock()
	running := q.state == StateRunning
	cur, last := q.cur, q.lastProf
	q.mu.Unlock()
	if running && cur != nil {
		if p := cur.Profile(); p != nil {
			return p, false
		}
	}
	return last, last != nil
}

// Status snapshots the query for the API and metrics.
func (q *Query) Status() QueryStatus {
	now := q.reg.policy.Now() // read the clock outside q.mu
	q.mu.Lock()
	st := QueryStatus{
		Name:      q.spec.Name,
		SQL:       q.spec.SQL,
		State:     q.state,
		Error:     q.stateErr,
		Restart:   q.spec.Restart,
		Restarts:  q.restarts,
		CreatedAt: q.createdAt,
	}
	if q.state == StateRunning || q.state == StateDone {
		st.StartedAt = q.startedAt
	}
	if q.stmt != nil && q.stmt.Into != nil {
		switch q.stmt.Into.Kind {
		case lang.IntoStream:
			st.Into = "stream:" + q.stmt.Into.Name
		case lang.IntoTable:
			st.Into = "table:" + q.stmt.Into.Name
		}
	}
	cur, bcast, started := q.cur, q.bcast, q.startedAt
	q.mu.Unlock()

	if cur != nil {
		st.Scan = cur.ScanSignature()
		st.ScanShared = cur.ScanShared()
		s := cur.Stats()
		st.RowsIn = s.RowsIn.Load()
		st.RowsOut = s.RowsOut.Load()
		st.FilterDrop = s.Dropped.Load()
		st.EvalErrors = s.EvalErrors.Load()
		st.Degraded = s.Degraded.Load()
		if st.State == StateRunning && !started.IsZero() {
			if secs := now.Sub(started).Seconds(); secs > 0 {
				st.RowsPerSec = float64(st.RowsOut) / secs
			}
		}
	}
	if bcast != nil {
		bs := bcast.Stats()
		st.Subscribers = bs.Subscribers
		st.Published = bs.Published
		st.SubscriberDrop = bs.Dropped
	}
	// Health: failed beats degraded beats ok. A query can be degraded
	// without a single eval error — NULLed UDF values and rows dropped
	// on a read-only sink keep results flowing by design, and this
	// field is where that residue shows up.
	switch {
	case st.State == StateError:
		st.Health = "failed"
	case st.Degraded > 0 || st.Restarts > 0 || st.Error != "",
		q.stmt != nil && q.stmt.Into != nil && q.stmt.Into.Kind == lang.IntoTable &&
			q.reg.tableUnhealthy(q.stmt.Into.Name):
		st.Health = "degraded"
	default:
		st.Health = "ok"
	}
	return st
}

// tableUnhealthy reports whether an already-open table backend is
// degraded (e.g. flipped read-only after persistent append failures):
// the query keeps running, but its rows are going nowhere durable.
func (r *Registry) tableUnhealthy(name string) bool {
	t := r.eng.Catalog().OpenedTable(name)
	return t != nil && t.Healthy() != nil
}
