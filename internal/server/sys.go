package server

import (
	"fmt"
	"sync"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/fault"
	"tweeql/internal/obs"
	"tweeql/internal/resilience"
	"tweeql/internal/store"
)

// sysObserver closes the paper's loop on the engine itself: a sampler
// periodically snapshots every registered profile, scan, table,
// breaker, and subscriber counter into typed rows on the $sys.metrics
// stream, and diffs restart/degradation/fault counters into events on
// $sys.events — so "how is the engine doing" is answered by the same
// windows, GROUP BYs, and peak detectors users point at tweets.
//
// Lag quantiles are per-interval deltas, not cumulative: a cumulative
// p99 can never decrease, so an alert on it could never resolve. The
// observer keeps the previous lag snapshot per profile ID and emits
// Quantiles of only the interval's observations.
type sysObserver struct {
	srv      *Server
	metrics  *catalog.DerivedStream
	events   *catalog.DerivedStream
	eventLog *obs.EventLog
	sampler  *obs.Sampler

	// mu guards the between-sample diff state; collect normally runs
	// only on the sampler goroutine, but tests drive SampleOnce directly.
	mu           sync.Mutex
	prevLag      map[string]obs.HistSnapshot // profile ID → cumulative lag
	prevRestarts map[string]int64            // scan signature → restarts
	prevReadonly map[string]bool             // table → degraded
	prevFired    map[string]int              // fault point → fired
	prevBreaker  map[string]resilience.BreakerState
}

// newSysObserver wires the $sys streams (already registered by the
// engine), the lifecycle event log, and the sampler. Call start() to
// begin sampling and close() on shutdown.
func newSysObserver(s *Server) *sysObserver {
	mstream, estream := s.eng.Catalog().SysStreams()
	o := &sysObserver{
		srv:          s,
		metrics:      mstream,
		events:       estream,
		prevLag:      make(map[string]obs.HistSnapshot),
		prevRestarts: make(map[string]int64),
		prevReadonly: make(map[string]bool),
		prevFired:    make(map[string]int),
		prevBreaker:  make(map[string]resilience.BreakerState),
	}
	// Every emitted event lands in the bounded ring (debug bundle) and
	// on the $sys.events stream. The sink publishes outside the ring
	// lock; DerivedStream publishes never block DropOldest subscribers,
	// which is what engine-opened subscriptions use. Each event is a
	// fresh row the stream keeps.
	o.eventLog = obs.NewEventLog(0, nil, func(ev obs.SysEvent) {
		estream.Publish(catalog.EventTuple(ev))
	})
	o.sampler = obs.NewSampler(s.eng.Options().SysSampleEvery, nil, o.collect,
		func(ms []obs.Metric) { catalog.PublishMetrics(mstream, ms) })
	return o
}

func (o *sysObserver) start() { o.sampler.Start() }
func (o *sysObserver) close() { o.sampler.Close() }

// collect builds one sample: every metric row for this instant, plus
// synthesized events for counters that moved since the last sample.
func (o *sysObserver) collect(now time.Time) []obs.Metric {
	o.mu.Lock()
	defer o.mu.Unlock()
	b := &metricBatch{now: now}

	// Queries: lifecycle census plus per-query flow and interval lag.
	statuses := o.srv.reg.List()
	byState := map[QueryState]int{}
	for _, st := range statuses {
		byState[st.State]++
	}
	for _, state := range []QueryState{StateRunning, StatePaused, StateDone, StateError} {
		b.add("queries", obs.RenderLabels("state", string(state)), float64(byState[state]))
	}
	liveProfiles := make(map[string]bool, len(statuses))
	for _, st := range statuses {
		l := obs.RenderLabels("query", st.Name)
		b.add("query_rows_in", l, float64(st.RowsIn))
		b.add("query_rows_out", l, float64(st.RowsOut))
		b.add("query_eval_errors", l, float64(st.EvalErrors))
		b.add("query_degraded", l, float64(st.Degraded))
		b.add("query_restart_streak", l, float64(st.Restarts))
		b.add("query_subscribers", l, float64(st.Subscribers))
		b.add("query_subscriber_dropped", l, float64(st.SubscriberDrop))

		q, ok := o.srv.reg.Get(st.Name)
		if !ok {
			continue
		}
		prof, _ := q.ProfileForServing()
		if prof == nil {
			continue
		}
		snap := prof.Snapshot()
		liveProfiles[snap.ID] = true
		interval := snap.Lag.Delta(o.prevLag[snap.ID])
		o.prevLag[snap.ID] = snap.Lag
		// Quantiles only when the interval saw rows: an idle interval has
		// no lag, not zero lag, and emitting 0 would feed alerts clean
		// observations while a slow query trickles (resetting hysteresis
		// the moment delivery stalls — the exact case alerts exist for).
		// The row count itself is always emitted, 0 included, so "is
		// anything flowing" stays one query away.
		if interval.Count > 0 {
			b.add("output_lag_p50", l, interval.Quantile(0.50))
			b.add("output_lag_p99", l, interval.Quantile(0.99))
		}
		b.add("output_lag_rows", l, float64(interval.Count))
	}
	// Forget lag baselines of profiles no longer served (dropped
	// queries), so the map cannot grow with churn.
	for id := range o.prevLag {
		if !liveProfiles[id] {
			delete(o.prevLag, id)
		}
	}

	// Shared scans: ingest flow plus restart events.
	for _, sc := range o.srv.eng.Scans() {
		l := obs.RenderLabels("scan", sc.Signature, "source", sc.Source)
		b.add("scan_queries", l, float64(sc.Queries))
		b.add("scan_rows_in", l, float64(sc.RowsIn))
		b.add("scan_subscriber_dropped", l, float64(sc.Dropped))
		b.add("scan_restarts", l, float64(sc.Restarts))
		if prev, ok := o.prevRestarts[sc.Signature]; ok && sc.Restarts > prev {
			o.eventLog.Emit("scan_restart", sc.Source,
				fmt.Sprintf("%s: %d restarts", sc.Signature, sc.Restarts))
		}
		o.prevRestarts[sc.Signature] = sc.Restarts
	}

	// Tables: size and health, with degradation edges as events.
	for _, t := range o.srv.eng.Catalog().Tables() {
		l := obs.RenderLabels("table", t.Name)
		b.add("table_rows", l, float64(t.Len()))
		ro := t.Healthy() != nil
		b.add("table_readonly", l, boolGauge(ro))
		if ro && !o.prevReadonly[t.Name] {
			o.eventLog.Emit("table_degraded", t.Name, t.Healthy().Error())
		}
		o.prevReadonly[t.Name] = ro
		if st, ok := t.Backend().(*store.Table); ok {
			sealed, active := st.Segments()
			b.add("table_segments", l, float64(sealed+active))
			c := st.ScanCounters()
			b.add("table_blocks_read", l, float64(c.BlocksRead))
			b.add("table_blocks_skipped", l, float64(c.BlocksSkipped))
			b.add("table_chunks_decoded", l, float64(c.ChunksDecoded))
			b.add("table_chunks_skipped", l, float64(c.ChunksSkipped))
		}
	}

	// Breakers: state plus open/close edges.
	for _, br := range o.srv.eng.Catalog().Breakers() {
		state := br.State()
		b.add("breaker_state", obs.RenderLabels("breaker", br.Name()), breakerGauge(state))
		if prev, ok := o.prevBreaker[br.Name()]; ok && prev != state {
			o.eventLog.Emit("breaker_state", br.Name(), state.String())
		}
		o.prevBreaker[br.Name()] = state
	}

	// Armed fault points: firings surface both as rows and as events,
	// so a chaos drill is visible in the same timeline as its fallout.
	for _, p := range fault.Points() {
		l := obs.RenderLabels("point", p.Name, "mode", p.Mode)
		b.add("fault_fired", l, float64(p.Fired))
		if p.Fired > o.prevFired[p.Name] {
			o.eventLog.Emit("fault_fired", p.Name,
				fmt.Sprintf("mode=%s fired=%d", p.Mode, p.Fired))
		}
		o.prevFired[p.Name] = p.Fired
	}

	// Alerts: the alerting layer's own state, queryable like any metric.
	if o.srv.alerts != nil {
		for _, st := range o.srv.alerts.List() {
			b.add("alert_state", obs.RenderLabels("alert", st.Name), alertGauge(st.State))
		}
	}
	return b.out
}

// metricBatch accumulates one sample's rows. A named method instead
// of an append closure keeps the hot accumulation visible to the
// lockscope analyzer as a plain call (collect holds o.mu for the
// between-sample diff maps).
type metricBatch struct {
	now time.Time
	out []obs.Metric
}

func (b *metricBatch) add(name, labels string, v float64) {
	b.out = append(b.out, obs.Metric{Name: name, Labels: labels, Value: v, At: b.now})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// breakerGauge maps breaker states onto the /metrics encoding:
// 0 closed, 1 half-open, 2 open.
func breakerGauge(st resilience.BreakerState) float64 {
	switch st {
	case resilience.BreakerHalfOpen:
		return 1
	case resilience.BreakerOpen:
		return 2
	}
	return 0
}

// alertGauge maps alert states onto the /metrics encoding:
// 0 inactive, 1 pending, 2 firing, 3 resolved.
func alertGauge(state string) float64 {
	switch state {
	case AlertPending:
		return 1
	case AlertFiring:
		return 2
	case AlertResolved:
		return 3
	}
	return 0
}
