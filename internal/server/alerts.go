package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/obs"
	"tweeql/internal/peaks"
	"tweeql/internal/value"
)

// Alert rules are named TweeQL queries with a condition attached: the
// manager runs each rule's SQL as an ordinary engine cursor (typically
// over the $sys.metrics stream — the engine monitoring itself) and
// steps a Prometheus-style state machine over the result rows. The
// for-duration applies hysteresis in BOTH directions — a breach must
// hold `for` before firing, and clear for `for` before resolving — so
// a flapping signal never flaps the alert. All durations are measured
// in event time (row timestamps), which makes the machine
// deterministic under test and replay.

// Alert conditions.
const (
	CondAbove = "above" // value > threshold
	CondBelow = "below" // value < threshold
	CondPeak  = "peak"  // TwitInfo peak detection over the value series
)

// Alert states. The lifecycle is inactive → pending → firing →
// resolved → (pending on the next breach). Resolved is distinct from
// inactive so operators can see "this fired recently and recovered"
// at a glance.
const (
	AlertInactive = "inactive"
	AlertPending  = "pending"
	AlertFiring   = "firing"
	AlertResolved = "resolved"
)

// AlertSpec defines one alert rule.
type AlertSpec struct {
	// Name identifies the alert in the API, journal, and metrics.
	Name string `json:"name"`
	// SQL is the TweeQL query producing the evaluated rows, e.g.
	// SELECT * FROM $sys.metrics WHERE name = 'output_lag_p99'.
	SQL string `json:"sql"`
	// Column is the row column holding the evaluated value (default
	// "value", the $sys.metrics value column). Ignored by peak alerts,
	// which still read it for the peak magnitude signal.
	Column string `json:"column,omitempty"`
	// Condition is above, below, or peak.
	Condition string `json:"condition"`
	// Threshold is the boundary for above/below.
	Threshold float64 `json:"threshold,omitempty"`
	// For is the hysteresis window, a Go duration string ("30s"). The
	// breach must hold this long (event time) before firing, and clear
	// this long before resolving. "" or "0s" transitions immediately.
	For string `json:"for,omitempty"`
	// PeakBin is the peak detector's bin width for Condition "peak"
	// (default 1s — system metrics arrive on second-scale sampling, not
	// TwitInfo's minute-scale tweet bins).
	PeakBin string `json:"peak_bin,omitempty"`
}

// forDuration parses the spec's For field (validated at create).
func (a AlertSpec) forDuration() time.Duration {
	if a.For == "" {
		return 0
	}
	d, _ := time.ParseDuration(a.For)
	return d
}

// validate normalizes and checks a spec.
func (a *AlertSpec) validate() error {
	if !nameRe.MatchString(a.Name) {
		return fmt.Errorf("server: invalid alert name %q", a.Name)
	}
	if strings.TrimSpace(a.SQL) == "" {
		return fmt.Errorf("server: alert %q has no sql", a.Name)
	}
	if len(a.SQL) > maxSQLLen {
		return fmt.Errorf("server: alert statement too long (%d bytes, max %d)", len(a.SQL), maxSQLLen)
	}
	if a.Column == "" {
		a.Column = "value"
	}
	switch a.Condition {
	case CondAbove, CondBelow:
	case CondPeak:
	case "":
		return fmt.Errorf("server: alert %q has no condition (want above, below, or peak)", a.Name)
	default:
		return fmt.Errorf("server: alert %q: unknown condition %q (want above, below, or peak)", a.Name, a.Condition)
	}
	if a.For != "" {
		d, err := time.ParseDuration(a.For)
		if err != nil || d < 0 {
			return fmt.Errorf("server: alert %q: bad for duration %q", a.Name, a.For)
		}
	}
	if a.PeakBin != "" {
		d, err := time.ParseDuration(a.PeakBin)
		if err != nil || d <= 0 {
			return fmt.Errorf("server: alert %q: bad peak_bin %q", a.Name, a.PeakBin)
		}
	}
	return nil
}

// AlertStatus is the API snapshot of one alert rule.
type AlertStatus struct {
	AlertSpec
	State string `json:"state"`
	// Since is the event time the current state was entered (zero for a
	// never-evaluated inactive alert).
	Since time.Time `json:"since,omitempty"`
	// FiredAt / ResolvedAt are the most recent transition times into
	// firing and resolved, exact to the row that caused them.
	FiredAt    time.Time `json:"fired_at,omitempty"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
	// LastValue / LastEventAt describe the newest evaluated row.
	LastValue   float64   `json:"last_value"`
	LastEventAt time.Time `json:"last_event_at,omitempty"`
	// Evaluations counts evaluated rows; Transitions counts state
	// changes (both monotonic for this rule's lifetime in-process).
	Evaluations int64 `json:"evaluations"`
	Transitions int64 `json:"transitions"`
	// Error reports an evaluation-query failure (the manager re-issues
	// the query with backoff; the alert keeps its last state meanwhile).
	Error string `json:"error,omitempty"`
}

// alertTransitionSchema shapes the SSE transition stream's rows.
var alertTransitionSchema = value.NewSchema(
	value.Field{Name: "alert", Kind: value.KindString},
	value.Field{Name: "state", Kind: value.KindString},
	value.Field{Name: "value", Kind: value.KindFloat},
	value.Field{Name: "created_at", Kind: value.KindTime},
)

// alert is one managed rule: spec, state machine, and the goroutine
// running its evaluation query.
type alert struct {
	mgr  *alertManager
	spec AlertSpec

	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  string
	since  time.Time // event time current state was entered
	fired  time.Time
	cleans time.Time // event time the breach last cleared (firing side)
	breach time.Time // event time the breach began (pending side)

	firedAt    time.Time
	resolvedAt time.Time
	lastVal    float64
	lastAt     time.Time
	evals      int64
	trans      int64
	lastErr    string

	det *peaks.Detector // peak-condition state, nil otherwise
}

// alertManager owns the alert rules over one engine: lifecycle, the
// durable alerts journal, the transition fan-out stream, and state for
// /metrics.
type alertManager struct {
	eng     *core.Engine
	journal *journal // nil when not durable
	log     *slog.Logger
	events  *obs.EventLog          // nil-safe
	bcast   *catalog.DerivedStream // transition fan-out for SSE

	mu     sync.Mutex
	alerts map[string]*alert
	order  []string
	closed bool
}

// alertsJournalFile sits beside queries.journal in the data dir.
const alertsJournalFile = "alerts.journal"

// newAlertManager builds the manager, restoring journaled alerts when
// dataDir is set. Restore failures (an alert whose SQL the engine now
// rejects) surface as errored alerts, not daemon failures.
func newAlertManager(eng *core.Engine, dataDir string, log *slog.Logger, events *obs.EventLog) (*alertManager, error) {
	if log == nil {
		log = discardLogger
	}
	m := &alertManager{
		eng:    eng,
		log:    log,
		events: events,
		bcast:  catalog.NewDerivedStream("$sys.alerts", alertTransitionSchema),
		alerts: make(map[string]*alert),
	}
	if dataDir == "" {
		return m, nil
	}
	j, specs, err := openAlertsJournal(dataDir)
	if err != nil {
		return nil, err
	}
	m.journal = j
	for _, spec := range specs {
		if _, err := m.create(spec, false); err != nil {
			m.log.Warn("journaled alert failed to restore", "alert", spec.Name, "error", err.Error())
		}
	}
	return m, nil
}

// Create registers and starts evaluating a new alert rule.
func (m *alertManager) Create(spec AlertSpec) (AlertStatus, error) {
	a, err := m.create(spec, true)
	if err != nil {
		return AlertStatus{}, err
	}
	return a.status(), nil
}

func (m *alertManager) create(spec AlertSpec, journal bool) (*alert, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	a := &alert{mgr: m, spec: spec, state: AlertInactive, done: make(chan struct{})}
	if spec.Condition == CondPeak {
		bin := time.Second
		if spec.PeakBin != "" {
			bin, _ = time.ParseDuration(spec.PeakBin)
		}
		a.det = peaks.NewDetector(peaks.Config{Bin: bin})
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("server: alert manager closed")
	}
	key := strings.ToLower(spec.Name)
	if _, dup := m.alerts[key]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: alert %q", errDuplicate, spec.Name)
	}
	m.alerts[key] = a
	m.order = append(m.order, spec.Name)
	m.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	a.cancel = cancel
	go a.run(ctx)

	if journal && m.journal != nil {
		if err := m.journal.append(journalRecord{Op: opCreate, Name: spec.Name,
			SQL: mustAlertJSON(spec)}); err != nil {
			// Mirror the query registry's stance: an unjournaled alert
			// would silently vanish on restart, so roll the create back.
			m.remove(spec.Name)
			cancel()
			<-a.done
			return nil, fmt.Errorf("%w: %v", errJournal, err)
		}
	}
	m.log.Info("alert created", "alert", spec.Name, "condition", spec.Condition,
		"threshold", spec.Threshold, "for", spec.For)
	m.events.Emit("alert_created", spec.Name, spec.Condition)
	return a, nil
}

// mustAlertJSON encodes the spec into the journal record's SQL slot —
// the alerts journal reuses journalRecord, carrying the full spec as
// one JSON payload (specs have more fields than queries).
func mustAlertJSON(spec AlertSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return ""
	}
	return string(b)
}

// Drop stops and removes the named alert.
func (m *alertManager) Drop(name string) error {
	m.mu.Lock()
	a, ok := m.alerts[strings.ToLower(name)]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: alert %q", ErrUnknownQuery, name)
	}
	m.remove(name)
	a.cancel()
	<-a.done
	m.log.Info("alert dropped", "alert", name)
	m.events.Emit("alert_dropped", name, "")
	if m.journal != nil {
		return m.journal.append(journalRecord{Op: opDrop, Name: name})
	}
	return nil
}

func (m *alertManager) remove(name string) {
	m.mu.Lock()
	delete(m.alerts, strings.ToLower(name))
	for i := len(m.order) - 1; i >= 0; i-- {
		if strings.EqualFold(m.order[i], name) {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
}

// Get resolves one alert's status.
func (m *alertManager) Get(name string) (AlertStatus, bool) {
	m.mu.Lock()
	a, ok := m.alerts[strings.ToLower(name)]
	m.mu.Unlock()
	if !ok {
		return AlertStatus{}, false
	}
	return a.status(), true
}

// List snapshots every alert's status in creation order.
func (m *alertManager) List() []AlertStatus {
	m.mu.Lock()
	as := make([]*alert, 0, len(m.order))
	for _, n := range m.order {
		if a, ok := m.alerts[strings.ToLower(n)]; ok {
			as = append(as, a)
		}
	}
	m.mu.Unlock()
	out := make([]AlertStatus, 0, len(as))
	for _, a := range as {
		out = append(out, a.status())
	}
	return out
}

// Broadcaster exposes the transition fan-out stream (SSE endpoint).
func (m *alertManager) Broadcaster() *catalog.DerivedStream { return m.bcast }

// Close stops every alert's evaluation query, ends the transition
// stream, and closes the journal.
func (m *alertManager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	as := make([]*alert, 0, len(m.alerts))
	for _, a := range m.alerts {
		as = append(as, a)
	}
	m.mu.Unlock()
	for _, a := range as {
		a.cancel()
	}
	for _, a := range as {
		<-a.done
	}
	m.bcast.CloseStream()
	if m.journal != nil {
		return m.journal.close()
	}
	return nil
}

// alertRetryBackoff spaces re-issues of a failed evaluation query.
const alertRetryBackoff = time.Second

// run owns one alert's evaluation: issue the rule's query, step the
// state machine over its rows, and re-issue (with backoff) if the
// cursor ends while the manager is still alive — the $sys stream a
// rule watches survives engine restarts of the serving layer, but a
// mid-run error must not kill the rule.
func (a *alert) run(ctx context.Context) {
	defer close(a.done)
	for {
		cur, err := a.mgr.eng.Query(ctx, a.spec.SQL)
		if err == nil {
			for row := range cur.Rows() {
				a.observe(row)
			}
			cur.Stop()
			err = cur.Stats().Err()
		}
		if ctx.Err() != nil {
			return
		}
		a.mu.Lock()
		if err != nil {
			a.lastErr = err.Error()
		} else {
			a.lastErr = "alert query ended; re-issuing"
		}
		a.mu.Unlock()
		if err != nil {
			a.mgr.log.Warn("alert query failed; retrying", "alert", a.spec.Name, "error", err.Error())
		}
		t := time.NewTimer(alertRetryBackoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
}

// observe steps the state machine over one result row.
func (a *alert) observe(row value.Tuple) {
	v, ok := rowValue(row, a.spec.Column)
	if !ok {
		return
	}
	ts := row.TS
	if ts.IsZero() {
		ts = time.Now()
	}
	forDur := a.spec.forDuration()

	a.mu.Lock()
	a.evals++
	a.lastVal, a.lastAt = v, ts
	a.lastErr = ""

	breach := false
	switch a.spec.Condition {
	case CondAbove:
		breach = v > a.spec.Threshold
	case CondBelow:
		breach = v < a.spec.Threshold
	case CondPeak:
		// Peak detection wants integer bin counts; metric values are
		// floats (seconds of lag, rates), so scale to milli-units. The
		// detector's EWMA baseline is scale-invariant.
		a.det.AddCount(ts, int(math.Round(v*1000)))
		_, breach = a.det.Open()
	}

	var transition string
	switch a.state {
	case AlertInactive, AlertResolved:
		if breach {
			a.breach = ts
			if forDur == 0 {
				transition = AlertFiring
			} else {
				transition = AlertPending
			}
		}
	case AlertPending:
		switch {
		case !breach:
			transition = AlertInactive
		case ts.Sub(a.breach) >= forDur:
			transition = AlertFiring
		}
	case AlertFiring:
		switch {
		case breach:
			a.cleans = time.Time{} // breach is back; reset the clear clock
		case a.cleans.IsZero():
			a.cleans = ts
			if forDur == 0 {
				transition = AlertResolved
			}
		case ts.Sub(a.cleans) >= forDur:
			transition = AlertResolved
		}
	}
	if transition == "" {
		a.mu.Unlock()
		return
	}
	a.state = transition
	a.since = ts
	a.trans++
	switch transition {
	case AlertFiring:
		a.firedAt, a.cleans = ts, time.Time{}
	case AlertResolved:
		a.resolvedAt = ts
	}
	name := a.spec.Name
	a.mu.Unlock()

	// Publish the transition outside the lock: the log, the event
	// stream, and the SSE fan-out can all involve I/O. The row is fresh;
	// the fan-out stream keeps it.
	a.mgr.log.Info("alert transition", "alert", name, "state", transition,
		"value", v, "at", ts)
	a.mgr.events.Emit("alert_"+transition, name, fmt.Sprintf("value=%g", v))
	a.mgr.bcast.Publish(value.NewTuple(alertTransitionSchema, []value.Value{
		value.String(name),
		value.String(transition),
		value.Float(v),
		value.Time(ts),
	}, ts))
}

// status snapshots the alert.
func (a *alert) status() AlertStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AlertStatus{
		AlertSpec:   a.spec,
		State:       a.state,
		Since:       a.since,
		FiredAt:     a.firedAt,
		ResolvedAt:  a.resolvedAt,
		LastValue:   a.lastVal,
		LastEventAt: a.lastAt,
		Evaluations: a.evals,
		Transitions: a.trans,
		Error:       a.lastErr,
	}
}

// rowValue extracts a float from the named column (numeric kinds only).
func rowValue(row value.Tuple, col string) (float64, bool) {
	v := row.Get(col)
	switch v.Kind() {
	case value.KindFloat, value.KindInt:
		return v.Num(), true
	}
	return 0, false
}

// openAlertsJournal replays (tolerating a torn tail), compacts, and
// reopens the alerts journal. Each create record carries the full
// AlertSpec as JSON in the record's SQL slot.
func openAlertsJournal(dataDir string) (*journal, []AlertSpec, error) {
	j, recs, err := openRecordJournal(dataDir, alertsJournalFile)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]AlertSpec, 0, len(recs))
	for _, rec := range recs {
		var spec AlertSpec
		if err := json.Unmarshal([]byte(rec.SQL), &spec); err != nil || spec.Name == "" {
			continue
		}
		specs = append(specs, spec)
	}
	return j, specs, nil
}
