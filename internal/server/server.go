package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/obs"
	"tweeql/internal/resilience"
)

// Options tune the serving layer.
type Options struct {
	// DataDir roots the durable registry journal. "" keeps the registry
	// in memory (queries die with the process). Point it at the engine's
	// data dir so the journal and the tables it references travel
	// together.
	DataDir string
	// Restart bounds error-triggered restarts of Restart-flagged queries.
	Restart RestartPolicy
	// StreamBuffer is the default per-subscriber row budget for
	// /stream endpoints (0 = 256). Clients override with ?buffer=.
	StreamBuffer int
	// BlockDefault makes /stream subscribers block the publisher instead
	// of dropping when their ring fills. Clients override with ?policy=.
	BlockDefault bool
	// SnapshotLimit caps rows returned by one snapshot call when the
	// client sends no ?limit= (0 = 10000).
	SnapshotLimit int
	// Logger receives the registry's structured lifecycle events
	// (create/start/pause/resume/drop/restart, with query and profile
	// IDs). nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.StreamBuffer <= 0 {
		o.StreamBuffer = 256
	}
	if o.SnapshotLimit <= 0 {
		o.SnapshotLimit = 10000
	}
	return o
}

// Server is the HTTP face of one engine: the query registry API,
// result streaming, table snapshots, alerting, self-observation, and
// metrics.
type Server struct {
	eng     *core.Engine
	reg     *Registry
	opts    Options
	mux     *http.ServeMux
	started time.Time
	alerts  *alertManager
	sys     *sysObserver // nil unless the engine enabled $sys streams
}

// New builds a server over eng, restoring journaled queries and alerts
// when opts.DataDir is set. When the engine registered the $sys
// streams (core.Options.SysStreams), the server starts the sampler
// feeding them and routes registry lifecycle events onto $sys.events.
func New(eng *core.Engine, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	reg, err := NewRegistry(eng, opts.DataDir, opts.Restart, opts.Logger)
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, reg: reg, opts: opts, mux: http.NewServeMux(), started: time.Now()}
	var events *obs.EventLog
	if ms, _ := eng.Catalog().SysStreams(); ms != nil {
		s.sys = newSysObserver(s)
		events = s.sys.eventLog
		reg.SetEventLog(events)
	}
	s.alerts, err = newAlertManager(eng, opts.DataDir, opts.Logger, events)
	if err != nil {
		return nil, err
	}
	if s.sys != nil {
		s.sys.start()
	}
	s.mux.HandleFunc("GET /api/queries", s.listQueries)
	s.mux.HandleFunc("POST /api/queries", s.createQuery)
	s.mux.HandleFunc("GET /api/queries/{name}", s.getQuery)
	s.mux.HandleFunc("POST /api/queries/{name}/pause", s.pauseQuery)
	s.mux.HandleFunc("POST /api/queries/{name}/resume", s.resumeQuery)
	s.mux.HandleFunc("DELETE /api/queries/{name}", s.dropQuery)
	s.mux.HandleFunc("GET /api/queries/{name}/stream", s.streamQuery)
	s.mux.HandleFunc("GET /api/queries/{name}/profile", s.profileQuery)
	s.mux.HandleFunc("GET /api/queries/{name}/trace", s.traceQuery)
	s.mux.HandleFunc("GET /api/tables/{name}/snapshot", s.snapshotTable)
	s.mux.HandleFunc("GET /api/alerts", s.listAlerts)
	s.mux.HandleFunc("POST /api/alerts", s.createAlert)
	s.mux.HandleFunc("GET /api/alerts/stream", s.streamAlerts)
	s.mux.HandleFunc("GET /api/alerts/{name}", s.getAlert)
	s.mux.HandleFunc("DELETE /api/alerts/{name}", s.dropAlert)
	s.mux.HandleFunc("GET /debug/bundle", s.debugBundle)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s, nil
}

// Registry exposes the query registry (tests, embedding daemons).
func (s *Server) Registry() *Registry { return s.reg }

// BootstrapAlerts registers alert rules at startup (the daemon's
// -alerts-file). Names that already exist are skipped, not errors:
// journaled rules survive restarts, so re-running the same bootstrap
// must be idempotent. It returns how many rules were newly added.
func (s *Server) BootstrapAlerts(specs []AlertSpec) (int, error) {
	added := 0
	for _, spec := range specs {
		if _, err := s.alerts.Create(spec); err != nil {
			if errors.Is(err, errDuplicate) {
				continue
			}
			return added, fmt.Errorf("alert %q: %w", spec.Name, err)
		}
		added++
	}
	return added, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the self-observation sampler and every alert rule, then
// every registered query — waiting (bounded by ctx) for routing to
// drain — ends all subscriber streams, and closes the journals. Call
// the engine's Close after this returns.
func (s *Server) Close(ctx context.Context) error {
	if s.sys != nil {
		s.sys.close()
	}
	var err error
	if s.alerts != nil {
		err = s.alerts.Close()
	}
	if rerr := s.reg.Close(ctx); err == nil {
		err = rerr
	}
	return err
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil && code < 500 {
		// Too late for an error status; nothing useful left to do.
		_ = err
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

// readyz is the honest readiness probe: 503 only when the registry has
// shut down (nothing can be served), otherwise 200 with status "ok" or
// "degraded" plus the specific residue — read-only tables, open
// breakers, failed queries. Degraded is deliberately still ready: the
// daemon serves partial results rather than dropping out of rotation.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	if s.reg.Closed() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "closed"})
		return
	}
	var checks []string
	for _, t := range s.eng.Catalog().Tables() {
		if err := t.Healthy(); err != nil {
			checks = append(checks, fmt.Sprintf("table %s: %v", t.Name, err))
		}
	}
	for _, br := range s.eng.Catalog().Breakers() {
		if st := br.State(); st != resilience.BreakerClosed {
			checks = append(checks, fmt.Sprintf("breaker %s: %s", br.Name(), st))
		}
	}
	for _, st := range s.reg.List() {
		if st.Health != "ok" {
			checks = append(checks, fmt.Sprintf("query %s: %s", st.Name, st.Health))
		}
	}
	status := "ok"
	if len(checks) > 0 {
		status = "degraded"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": status, "checks": checks})
}

func (s *Server) listQueries(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"queries": s.reg.List()})
}

func (s *Server) createQuery(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	q, err := s.reg.Create(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, errJournal):
			code = http.StatusInternalServerError // started, then rolled back
		case errors.Is(err, errDuplicate):
			code = http.StatusConflict
		}
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, q.Status())
}

func (s *Server) getQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("name")))
		return
	}
	s.writeJSON(w, http.StatusOK, q.Status())
}

// lifecycleCode maps a registry lifecycle error onto a status: unknown
// names are 404, invalid transitions (pause a paused query) are 409,
// and anything else — e.g. a journal write failing AFTER the operation
// took effect — is a 500 the client must not mistake for "no such
// query".
func lifecycleCode(err error) int {
	switch {
	case errors.Is(err, ErrUnknownQuery):
		return http.StatusNotFound
	case errors.Is(err, errBadState):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) pauseQuery(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Pause(r.PathValue("name")); err != nil {
		s.writeError(w, lifecycleCode(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"state": string(StatePaused)})
}

func (s *Server) resumeQuery(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Resume(r.PathValue("name")); err != nil {
		s.writeError(w, lifecycleCode(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"state": string(StateRunning)})
}

func (s *Server) dropQuery(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Drop(r.PathValue("name")); err != nil {
		s.writeError(w, lifecycleCode(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"dropped": r.PathValue("name")})
}

// profileQuery serves the current run's per-operator profile as JSON:
//
//	GET /api/queries/{name}/profile
//
// Stages appear in pipeline order with rows in/out, selectivity,
// observation counts, and latency count/sum/p50/p99; output_lag is the
// ingest→delivery watermark-lag histogram. Paused and completed
// queries serve their last run's profile marked "stale": true; 409
// only when the query never ran with profiling enabled.
func (s *Server) profileQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("name")))
		return
	}
	prof, stale := q.ProfileForServing()
	if prof == nil {
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("query %q has no profile (never ran, or profiling disabled)", q.Spec().Name))
		return
	}
	snap := prof.Snapshot()
	type stageView struct {
		obs.StageSnapshot
		Selectivity float64 `json:"selectivity"`
	}
	stages := make([]stageView, 0, len(snap.Stages))
	for _, st := range snap.Stages {
		stages = append(stages, stageView{StageSnapshot: st, Selectivity: st.Selectivity()})
	}
	resp := map[string]any{
		"query":      q.Spec().Name,
		"profile_id": snap.ID,
		"stale":      stale,
		"stages":     stages,
		"output_lag": snap.Lag,
	}
	if tr := prof.Tracer(); tr != nil {
		resp["trace"] = map[string]any{
			"events":  len(tr.Events()),
			"dropped": tr.Dropped(),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// traceQuery exports the current run's sampled batch spans:
//
//	GET /api/queries/{name}/trace?format=jsonl|chrome
//
// jsonl (default) is one span object per line; chrome is the Chrome
// trace-event JSON array, loadable in chrome://tracing or Perfetto.
// 409 when the query has no live run or trace sampling is disabled.
func (s *Server) traceQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("name")))
		return
	}
	prof, _ := q.ProfileForServing()
	var tr *obs.Tracer
	if prof != nil {
		tr = prof.Tracer()
	}
	if tr == nil {
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("query %q has no trace (never ran, or trace sampling disabled)", q.Spec().Name))
		return
	}
	events := tr.Events()
	switch r.URL.Query().Get("format") {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = obs.WriteJSONL(w, events)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, prof.ID, events)
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad format %q: want jsonl or chrome", r.URL.Query().Get("format")))
	}
}

// snapshotTable runs a one-shot time-ranged SELECT over a result table
// (in-memory or persistent) and returns the rows as JSON. Query params:
// from/to (RFC3339, open when absent), limit.
//
//	GET /api/tables/goals/snapshot?from=2011-06-01T00:00:00Z&limit=100
func (s *Server) snapshotTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !nameRe.MatchString(name) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid table name %q", name))
		return
	}
	// Only tables snapshot. A registered stream source under this name
	// (the live hub, a derived stream) would make the SELECT below tail
	// a continuous stream until the row limit or timeout — refuse it.
	for _, src := range s.eng.Catalog().SourceNames() {
		if strings.EqualFold(src, name) {
			s.writeError(w, http.StatusConflict,
				fmt.Errorf("%q is a stream source, not a table; subscribe via a query's /stream endpoint", name))
			return
		}
	}
	limit := s.opts.SnapshotLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	sql := "SELECT * FROM " + name
	var conds []string
	for _, bound := range []struct{ param, op string }{{"from", ">="}, {"to", "<="}} {
		v := r.URL.Query().Get(bound.param)
		if v == "" {
			continue
		}
		if _, err := time.Parse(time.RFC3339, v); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q: want RFC3339", bound.param, v))
			return
		}
		conds = append(conds, "created_at "+bound.op+" '"+v+"'")
	}
	for i, c := range conds {
		if i == 0 {
			sql += " WHERE " + c
		} else {
			sql += " AND " + c
		}
	}
	sql += fmt.Sprintf(" LIMIT %d", limit)

	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	cur, err := s.eng.Query(ctx, sql)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	defer cur.Stop()
	// Rows go through the stream encoder, so a snapshot and a stream of
	// the same row carry the same bytes.
	var enc rowEncoder
	rows := make([]json.RawMessage, 0, 64)
	for row := range cur.Rows() {
		rows = append(rows, enc.appendRow(nil, row))
	}
	if err := cur.Stats().Err(); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"table":   name,
		"columns": cur.Schema().Names(),
		"count":   len(rows),
		"rows":    rows,
	})
}

// listAlerts reports every alert rule's status in creation order.
func (s *Server) listAlerts(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"alerts": s.alerts.List()})
}

// createAlert registers a new alert rule:
//
//	POST /api/alerts
//	{"name":"lag","sql":"SELECT * FROM $sys.metrics WHERE name = 'output_lag_p99'",
//	 "condition":"above","threshold":0.5,"for":"10s"}
func (s *Server) createAlert(w http.ResponseWriter, r *http.Request) {
	var spec AlertSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	st, err := s.alerts.Create(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, errJournal):
			code = http.StatusInternalServerError
		case errors.Is(err, errDuplicate):
			code = http.StatusConflict
		}
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, st)
}

func (s *Server) getAlert(w http.ResponseWriter, r *http.Request) {
	st, ok := s.alerts.Get(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown alert %q", r.PathValue("name")))
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) dropAlert(w http.ResponseWriter, r *http.Request) {
	if err := s.alerts.Drop(r.PathValue("name")); err != nil {
		s.writeError(w, lifecycleCode(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"dropped": r.PathValue("name")})
}

// streamAlerts serves alert state transitions as SSE: one event per
// pending/firing/resolved/inactive transition across every rule, rows
// shaped {alert, state, value, created_at}.
//
//	GET /api/alerts/stream
func (s *Server) streamAlerts(w http.ResponseWriter, r *http.Request) {
	bcast := s.alerts.Broadcaster()
	s.pump(w, r, bcast, streamSpec{name: bcast.Name(), sse: true, heartbeat: heartbeatEvery,
		sub: catalog.SubOptions{Buffer: s.opts.StreamBuffer}})
}
