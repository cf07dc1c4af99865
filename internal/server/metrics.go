package server

import (
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/obs"
	"tweeql/internal/resilience"
	"tweeql/internal/store"
)

// fam declares one metric family: a # HELP line and a # TYPE line, the
// contract the in-repo promlint (and real promtool) checks.
func fam(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// hist renders one histogram series (labels = rendered `k="v",...`
// pairs, "" for none) from an obs snapshot: the full fixed bucket
// ladder as cumulative le buckets plus _sum and _count. Emitting every
// ladder bucket keeps the series shape identical across scrapes and
// queries, which is what makes them aggregatable.
func hist(b *strings.Builder, name, labels string, s obs.HistSnapshot) {
	leSep := ""
	if labels != "" {
		leSep = ","
	}
	cum := int64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := "+Inf"
		if !math.IsInf(bound, 1) {
			le = fmt.Sprintf("%g", bound)
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, leSep, le, cum)
	}
	braced := ""
	if labels != "" {
		braced = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, braced, s.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced, s.Count)
}

// metrics serves Prometheus text exposition: daemon uptime, the query
// registry (per-query rows in/out, filter drops, eval errors, restart
// streaks), per-operator stage-latency and output-lag histograms from
// each query's profile, shared-scan ingest counters, breaker states,
// and table observability (row counts, segment scan/prune counters,
// append/scan latency histograms). Every family carries # HELP and
// # TYPE and follows Prometheus naming (counters end in _total, units
// are seconds).
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.renderMetrics()))
}

// buildInfo resolves the daemon's identity from the binary itself:
// module version, Go toolchain, and VCS revision when the build
// embedded one. Test binaries and plain `go build` fall back to
// "unknown" rather than omitting the series.
func buildInfo() (version, goversion, revision string) {
	version, goversion, revision = "unknown", "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		goversion = bi.GoVersion
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			revision = kv.Value
		}
	}
	return
}

// renderMetrics builds the full exposition text. It is split from the
// handler so the debug bundle can embed the same snapshot.
func (s *Server) renderMetrics() string {
	var b strings.Builder

	// Identity first: which binary is this, and when did it start. The
	// constant-1 build_info gauge is the Prometheus idiom for attaching
	// version labels to every other series via group_left joins.
	version, goversion, revision := buildInfo()
	fam(&b, "tweeqld_build_info", "gauge", "Constant 1, labeled with the daemon's build identity.")
	fmt.Fprintf(&b, "tweeqld_build_info{version=%q,goversion=%q,revision=%q} 1\n",
		version, goversion, revision)
	fam(&b, "process_start_time_seconds", "gauge", "Unix time the process started, in seconds.")
	fmt.Fprintf(&b, "process_start_time_seconds %.3f\n", float64(s.started.UnixNano())/1e9)

	fam(&b, "tweeqld_uptime_seconds", "gauge", "Seconds since the daemon started.")
	fmt.Fprintf(&b, "tweeqld_uptime_seconds %.3f\n", time.Since(s.started).Seconds())

	statuses := s.reg.List()
	byState := map[QueryState]int{}
	for _, st := range statuses {
		byState[st.State]++
	}
	fam(&b, "tweeqld_queries", "gauge", "Registered queries by lifecycle state.")
	for _, state := range []QueryState{StateRunning, StatePaused, StateDone, StateError} {
		fmt.Fprintf(&b, "tweeqld_queries{state=%q} %d\n", state, byState[state])
	}

	fam(&b, "tweeqld_query_rows_in_total", "counter", "Rows ingested by the query's current run.")
	fam(&b, "tweeqld_query_rows_out_total", "counter", "Rows delivered by the query's current run.")
	fam(&b, "tweeqld_query_filter_dropped_total", "counter", "Rows removed by the query's filters.")
	fam(&b, "tweeqld_query_eval_errors_total", "counter", "Expression evaluation errors in the query's current run.")
	fam(&b, "tweeqld_query_rows_per_second", "gauge", "Delivered-row rate over the current run's lifetime.")
	// The restart streak is a gauge by design: it counts CONSECUTIVE
	// failures and resets when a restarted run stays healthy (or on
	// manual resume) — a monotonic _total would hide recovery.
	fam(&b, "tweeqld_query_restart_streak", "gauge", "Current consecutive restart count; resets when a run stays healthy.")
	fam(&b, "tweeqld_query_degraded_total", "counter", "Values NULLed by exhausted retries plus rows dropped on unhealthy sinks.")
	fam(&b, "tweeqld_query_subscribers", "gauge", "Live subscribers on the query's fan-out stream.")
	fam(&b, "tweeqld_query_published_total", "counter", "Rows published to the query's fan-out stream.")
	fam(&b, "tweeqld_query_subscriber_dropped_total", "counter", "Rows dropped on lagging subscriber rings.")
	var degradedTotal int64
	for _, st := range statuses {
		degradedTotal += st.Degraded
		l := fmt.Sprintf("{query=%q}", st.Name)
		fmt.Fprintf(&b, "tweeqld_query_rows_in_total%s %d\n", l, st.RowsIn)
		fmt.Fprintf(&b, "tweeqld_query_rows_out_total%s %d\n", l, st.RowsOut)
		fmt.Fprintf(&b, "tweeqld_query_filter_dropped_total%s %d\n", l, st.FilterDrop)
		fmt.Fprintf(&b, "tweeqld_query_eval_errors_total%s %d\n", l, st.EvalErrors)
		fmt.Fprintf(&b, "tweeqld_query_rows_per_second%s %.3f\n", l, st.RowsPerSec)
		fmt.Fprintf(&b, "tweeqld_query_restart_streak%s %d\n", l, st.Restarts)
		fmt.Fprintf(&b, "tweeqld_query_degraded_total%s %d\n", l, st.Degraded)
		fmt.Fprintf(&b, "tweeqld_query_subscribers%s %d\n", l, st.Subscribers)
		fmt.Fprintf(&b, "tweeqld_query_published_total%s %d\n", l, st.Published)
		fmt.Fprintf(&b, "tweeqld_query_subscriber_dropped_total%s %d\n", l, st.SubscriberDrop)
	}
	// Degraded rows across every live query: NULL substitutions from
	// exhausted UDF retries plus rows dropped on read-only sinks — the
	// price of keeping results flowing instead of failing queries.
	fam(&b, "tweeqld_degraded_total", "counter", "Degraded rows across all queries.")
	fmt.Fprintf(&b, "tweeqld_degraded_total %d\n", degradedTotal)

	// Per-operator latency and end-to-end lag, from each running
	// query's observability profile. The bucket ladder is fixed, so the
	// same series aggregate cleanly across queries and restarts.
	fam(&b, "tweeqld_stage_latency_seconds", "histogram", "Per-operator observation latency (unit per stage: batch, row sample, or call).")
	fam(&b, "tweeqld_query_output_lag_seconds", "histogram", "Ingest-to-delivery watermark lag of delivered rows.")
	for _, st := range statuses {
		q, ok := s.reg.Get(st.Name)
		if !ok {
			continue
		}
		// Last-run profiles still render for paused/finished queries so a
		// scrape straddling a pause does not drop series.
		prof, _ := q.ProfileForServing()
		if prof == nil {
			continue
		}
		snap := prof.Snapshot()
		for _, stage := range snap.Stages {
			labels := fmt.Sprintf("query=%q,kind=%q,stage=%q", st.Name, stage.Kind, stage.Name)
			hist(&b, "tweeqld_stage_latency_seconds", labels, stage.Latency)
		}
		hist(&b, "tweeqld_query_output_lag_seconds", fmt.Sprintf("query=%q", st.Name), snap.Lag)
	}

	// Shared scans: per-signature ingest and fan-out counters. The gap
	// between registered queries and live scans is the endpoint load the
	// sharing saves.
	scans := s.eng.Scans()
	fam(&b, "tweeqld_scans", "gauge", "Live shared scans.")
	fmt.Fprintf(&b, "tweeqld_scans %d\n", len(scans))
	fam(&b, "tweeqld_scan_queries", "gauge", "Queries attached to the shared scan.")
	fam(&b, "tweeqld_scan_rows_in_total", "counter", "Rows ingested from the scan's physical source.")
	fam(&b, "tweeqld_scan_batches_in_total", "counter", "Batches ingested from the scan's physical source.")
	fam(&b, "tweeqld_scan_subscriber_dropped_total", "counter", "Rows dropped on lagging attached-query rings.")
	// Supervised restarts: how many times each shared scan's physical
	// source died and was reopened without touching the queries on it.
	fam(&b, "tweeqld_scan_restarts_total", "counter", "Supervisor restarts of the scan's physical source.")
	for _, sc := range scans {
		l := fmt.Sprintf("{scan=%q,source=%q}", sc.Signature, sc.Source)
		fmt.Fprintf(&b, "tweeqld_scan_queries%s %d\n", l, sc.Queries)
		fmt.Fprintf(&b, "tweeqld_scan_rows_in_total%s %d\n", l, sc.RowsIn)
		fmt.Fprintf(&b, "tweeqld_scan_batches_in_total%s %d\n", l, sc.Batches)
		fmt.Fprintf(&b, "tweeqld_scan_subscriber_dropped_total%s %d\n", l, sc.Dropped)
		fmt.Fprintf(&b, "tweeqld_scan_restarts_total%s %d\n", l, sc.Restarts)
	}

	// The streaming endpoint's back-pressure: a publisher parks when a
	// no-loss connection (a scan reading in batches) holds a batch of
	// undelivered tweets, so time here is ingest outrunning the engine.
	fam(&b, "tweeqld_hub_publish_waits_total", "counter", "Times the hub's publisher parked on a full no-loss connection.")
	fam(&b, "tweeqld_hub_publish_wait_seconds_total", "counter", "Seconds the hub's publisher spent parked on full no-loss connections.")
	names := s.eng.Catalog().SourceNames()
	sort.Strings(names)
	for _, name := range names {
		src, _ := s.eng.Catalog().RegisteredSource(name)
		if ts, ok := src.(*catalog.TwitterSource); ok {
			waits, waited := ts.Hub().WaitStats()
			fmt.Fprintf(&b, "tweeqld_hub_publish_waits_total{source=%q} %d\n", name, waits)
			fmt.Fprintf(&b, "tweeqld_hub_publish_wait_seconds_total{source=%q} %.6f\n", name, waited.Seconds())
		}
	}

	// Circuit breakers guarding web-service UDFs: 0 closed (healthy),
	// 1 half-open (probing), 2 open (short-circuiting to NULL).
	if breakers := s.eng.Catalog().Breakers(); len(breakers) > 0 {
		fam(&b, "tweeqld_breaker_state", "gauge", "Breaker state: 0 closed, 1 half-open, 2 open.")
		for _, br := range breakers {
			var v int
			switch br.State() {
			case resilience.BreakerHalfOpen:
				v = 1
			case resilience.BreakerOpen:
				v = 2
			}
			fmt.Fprintf(&b, "tweeqld_breaker_state{breaker=%q} %d\n", br.Name(), v)
		}
	}

	tables := s.eng.Catalog().Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	fam(&b, "tweeqld_table_rows", "gauge", "Rows currently readable from the table.")
	fam(&b, "tweeqld_table_segments_scanned_total", "counter", "Segments read by table scans.")
	fam(&b, "tweeqld_table_segments_pruned_total", "counter", "Segments skipped by time-range pruning.")
	fam(&b, "tweeqld_table_blocks_read_total", "counter", "Column blocks decoded by table scans (v2 segments).")
	fam(&b, "tweeqld_table_blocks_skipped_total", "counter", "Column blocks skipped on zone-map time bounds (v2 segments).")
	fam(&b, "tweeqld_table_chunks_decoded_total", "counter", "Column chunks decoded inside the blocks table scans read (v2 segments).")
	fam(&b, "tweeqld_table_chunks_skipped_total", "counter", "Column chunks stepped over undecoded because the query does not reference the column (v2 segments).")
	// 1 when persistent append failures flipped the table read-only
	// (reads still serve; writers see ErrReadOnly and count degraded).
	fam(&b, "tweeqld_table_readonly", "gauge", "1 when the table degraded to read-only after write failures.")
	fam(&b, "tweeqld_table_append_latency_seconds", "histogram", "AppendBatch call latency on the persistent store.")
	fam(&b, "tweeqld_table_scan_latency_seconds", "histogram", "Scan call latency on the persistent store.")
	for _, t := range tables {
		l := fmt.Sprintf("{table=%q}", t.Name)
		fmt.Fprintf(&b, "tweeqld_table_rows%s %d\n", l, t.Len())
		ro := 0
		if t.Healthy() != nil {
			ro = 1
		}
		fmt.Fprintf(&b, "tweeqld_table_readonly%s %d\n", l, ro)
		if st, ok := t.Backend().(*store.Table); ok {
			c := st.ScanCounters()
			fmt.Fprintf(&b, "tweeqld_table_segments_scanned_total%s %d\n", l, c.SegmentsScanned)
			fmt.Fprintf(&b, "tweeqld_table_segments_pruned_total%s %d\n", l, c.SegmentsPruned)
			fmt.Fprintf(&b, "tweeqld_table_blocks_read_total%s %d\n", l, c.BlocksRead)
			fmt.Fprintf(&b, "tweeqld_table_blocks_skipped_total%s %d\n", l, c.BlocksSkipped)
			fmt.Fprintf(&b, "tweeqld_table_chunks_decoded_total%s %d\n", l, c.ChunksDecoded)
			fmt.Fprintf(&b, "tweeqld_table_chunks_skipped_total%s %d\n", l, c.ChunksSkipped)
			appendLat, scanLat := st.LatencySnapshots()
			labels := fmt.Sprintf("table=%q", t.Name)
			hist(&b, "tweeqld_table_append_latency_seconds", labels, appendLat)
			hist(&b, "tweeqld_table_scan_latency_seconds", labels, scanLat)
		}
	}

	// Alerting layer: each rule's lifecycle state, so the thing watching
	// the engine is itself watchable. 0 inactive, 1 pending, 2 firing,
	// 3 resolved.
	if s.alerts != nil {
		if alerts := s.alerts.List(); len(alerts) > 0 {
			fam(&b, "tweeqld_alert_state", "gauge", "Alert rule state: 0 inactive, 1 pending, 2 firing, 3 resolved.")
			fam(&b, "tweeqld_alert_transitions_total", "counter", "State transitions the alert rule has made.")
			for _, st := range alerts {
				l := fmt.Sprintf("{alert=%q}", st.Name)
				fmt.Fprintf(&b, "tweeqld_alert_state%s %g\n", l, alertGauge(st.State))
				fmt.Fprintf(&b, "tweeqld_alert_transitions_total%s %d\n", l, st.Transitions)
			}
		}
	}
	return b.String()
}
