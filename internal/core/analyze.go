package core

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"time"

	"tweeql/internal/lang"
	"tweeql/internal/plan"
)

// AnalyzeOptions bound an EXPLAIN ANALYZE run. The statement executes
// for real — against live sources — until either bound trips, so both
// exist to keep a continuous query from running forever.
type AnalyzeOptions struct {
	// MaxRows stops the run after this many delivered rows. 0 = 1000.
	MaxRows int
	// Timeout is the wall-clock bound on the run. 0 = 3s.
	Timeout time.Duration
	// OnStart, when set, runs once the statement is live — for callers
	// that must kick a replay or feed only after the query has
	// subscribed to its source (the REPL's deterministic replays).
	OnStart func()
}

var explainAnalyzePrefix = regexp.MustCompile(`(?i)^\s*EXPLAIN\s+ANALYZE\s+`)

// StripExplainAnalyze removes a leading EXPLAIN ANALYZE keyword pair
// from a statement, reporting whether one was present — so callers
// (REPL, HTTP API) can route the bare statement to ExplainAnalyze.
func StripExplainAnalyze(sql string) (string, bool) {
	if loc := explainAnalyzePrefix.FindStringIndex(sql); loc != nil {
		return sql[loc[1]:], true
	}
	return sql, false
}

// ExplainAnalyze runs the statement under its observability profile
// for a bounded window — AnalyzeOptions.MaxRows delivered rows or
// AnalyzeOptions.Timeout, whichever comes first — and renders the
// static plan followed by what actually happened: per-operator rows,
// selectivity, and latency percentiles, the ingest→delivery watermark
// lag, and the run's counters. A leading "EXPLAIN ANALYZE" keyword
// pair in sql is accepted and stripped.
//
// INTO STREAM / INTO TABLE routing is suppressed for the run: EXPLAIN
// ANALYZE must not register streams or append to tables, so the
// pipeline is measured as if delivering to the caller (the routing
// sink is the one stage the report then omits).
func (e *Engine) ExplainAnalyze(ctx context.Context, sql string, opts AnalyzeOptions) (string, error) {
	sql, _ = StripExplainAnalyze(sql)
	if opts.MaxRows <= 0 {
		opts.MaxRows = 1000
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 3 * time.Second
	}
	stmt, err := lang.Parse(sql)
	if err != nil {
		return "", err
	}
	if stmt.Into != nil && stmt.Into.Kind != lang.IntoStdout {
		cp := *stmt
		cp.Into = nil
		stmt = &cp
	}
	p, err := plan.Analyze(stmt, e.cat, e.planOptions())
	if err != nil {
		return "", err
	}
	// The run opens the source in any case; resolving it before the
	// header is rendered lets a table scan report its column pruning.
	if _, err := e.cat.Source(stmt.From.Name); err != nil {
		return "", err
	}
	header := e.explainText(stmt, p)

	rctx, cancel := context.WithTimeout(ctx, opts.Timeout)
	defer cancel()
	start := time.Now()
	cur, err := e.QueryStmt(rctx, stmt)
	if err != nil {
		return "", err
	}
	if opts.OnStart != nil {
		opts.OnStart()
	}
	// The timeout ends the loop through the query's context; leaving it
	// at MaxRows stops the query.
	delivered := 0
	for range cur.Rows() {
		if delivered++; delivered >= opts.MaxRows {
			break
		}
	}
	elapsed := time.Since(start)

	var b strings.Builder
	b.WriteString(header)
	fmt.Fprintf(&b, "\nanalyze: ran %s, delivered %d rows (bounds: %d rows / %s)\n",
		elapsed.Round(time.Millisecond), delivered, opts.MaxRows, opts.Timeout)
	prof := cur.Profile()
	if prof == nil {
		b.WriteString("profiling disabled (Options.Profiling=false); no measurements\n")
		return b.String(), nil
	}
	b.WriteString(prof.Snapshot().Table())
	st := cur.Stats()
	fmt.Fprintf(&b, "counters: rows in=%d out=%d filtered=%d eval errors=%d degraded=%d late=%d\n",
		st.RowsIn.Load(), st.RowsOut.Load(), st.Dropped.Load(),
		st.EvalErrors.Load(), st.Degraded.Load(), st.LateRows.Load())
	if tr := prof.Tracer(); tr != nil {
		fmt.Fprintf(&b, "trace: %d sampled spans retained (%d overwritten)\n",
			len(tr.Events()), tr.Dropped())
	}
	if err := st.Err(); err != nil {
		fmt.Fprintf(&b, "run error: %v\n", err)
	}
	return b.String(), nil
}
