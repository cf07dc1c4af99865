package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"tweeql"
	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/store"
	"tweeql/internal/tweet"
	"tweeql/twitinfo"
)

// perLayer lists the single-layer metrics a traced run reports, named
// <package>.<metric>. They carry no bound: they say where an
// end-to-end change came from. Two sources: isolated — the driver alone
// calls the layer's public function over the run's own tweets, one
// goroutine — and counters the program exposes, read after the traced
// pass (0 on a workload that leaves the layer idle).
var perLayer = []metricSpec{
	{"firehose.generate_ns_per_tweet", "ns", "lower", 0},
	{"twitterapi.publish_ns_per_tweet", "ns", "lower", 0},
	{"twitterapi.delivered_per_published", "ratio", "lower", 0},
	{"twitterapi.conn_dropped", "count", "lower", 0},
	{"catalog.convert_ns_per_tweet", "ns", "lower", 0},
	{"catalog.convert_allocs_per_tweet", "count", "lower", 0},
	{"catalog.fanout_ns_per_delivery", "ns", "lower", 0},
	{"catalog.sub_dropped", "count", "lower", 0},
	{"lang.parse_us_per_stmt", "us", "lower", 0},
	{"plan.analyze_us_per_stmt", "us", "lower", 0},
	{"core.query_open_ms", "ms", "lower", 0},
	{"core.scans_open", "count", "lower", 0},
	{"core.scan_rows_in_per_tweet", "ratio", "lower", 0},
	{"core.scan_sub_dropped", "count", "lower", 0},
	{"exec.passthrough_ns_per_row", "ns", "lower", 0},
	{"exec.contains_ns_per_row", "ns", "lower", 0},
	{"exec.contains3_ns_per_row", "ns", "lower", 0},
	{"exec.and3_ns_per_row", "ns", "lower", 0},
	{"exec.int_cmp_ns_per_row", "ns", "lower", 0},
	{"exec.in_list_ns_per_row", "ns", "lower", 0},
	{"exec.project_udf_ns_per_row", "ns", "lower", 0},
	{"exec.window_count_ns_per_row", "ns", "lower", 0},
	{"exec.window_group_ns_per_row", "ns", "lower", 0},
	{"exec.contains_allocs_per_row", "count", "lower", 0},
	{"exec.int_cmp_allocs_per_row", "count", "lower", 0},
	{"tweet.contains_ns_per_call", "ns", "lower", 0},
	{"tweet.contains_allocs_per_call", "count", "lower", 0},
	{"store.append_ns_per_row", "ns", "lower", 0},
	{"store.append_batch_max_ms", "ms", "lower", 0},
	{"store.disk_bytes_per_row", "B", "lower", 0},
	{"store.reopen_ms", "ms", "lower", 0},
	{"store.scan_ns_per_row", "ns", "lower", 0},
	{"store.scan_allocs_per_row", "count", "lower", 0},
	{"store.range_scan_ms", "ms", "lower", 0},
	{"store.blocks_skipped_frac", "ratio", "higher", 0},
	{"store.segments_pruned_frac", "ratio", "higher", 0},
	{"server.create_ms_per_query", "ms", "lower", 0},
	{"server.stream_rows_per_s_per_conn", "rows/s", "higher", 0},
	{"server.ndjson_bytes_per_row", "B", "lower", 0},
	{"server.sub_dropped", "count", "lower", 0},
	{"twitinfo.ingest_ns_per_tweet", "ns", "lower", 0},
	{"twitinfo.dashboard_build_ms", "ms", "lower", 0},
	{"driver.late_p99_ms", "ms", "lower", 0},
	{"driver.late_max_ms", "ms", "lower", 0},
	{"driver.lag_p99_ms", "ms", "lower", 0},
	{"driver.lag_p999_ms", "ms", "lower", 0},
	{"driver.lag_max_ms", "ms", "lower", 0},
	{"driver.box_slowness", "ratio", "lower", 0},
	{"driver.trace_overhead_frac", "ratio", "lower", 0},
	{"driver.unattributed_frac", "ratio", "lower", 0},
}

// scheduleFault says why an open-loop pass must not count: a slow
// generator would otherwise pass as a fast system.
func (p *publisher) scheduleFault() string {
	if p99 := quantile(p.late, 0.99); p99 > 50 {
		return fmt.Sprintf("generator late: p99 %.1f ms behind schedule (limit 50 ms)", p99)
	}
	planned := float64(len(p.e.tweets)-1) / p.rate
	if took := p.end.Sub(p.start).Seconds(); took > planned*1.02 {
		return fmt.Sprintf("publisher finished %.1f%% behind schedule (limit 2%%)", 100*(took/planned-1))
	}
	return ""
}

// readScanCounters snapshots the engine's shared scans once they have
// ingested everything the hub delivered — after the last PublishBatch
// and before the hub closes, because a finished scan is forgotten.
func (e *env) readScanCounters(sys *system, ps *passStats) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rowsIn := func() (in, dropped int64) {
		for _, sc := range sys.eng.Core().Scans() {
			in += sc.RowsIn
			dropped += sc.Dropped
		}
		return in, dropped
	}
	waitFor(ctx, func() bool { in, _ := rowsIn(); return in >= sys.hub.Delivered() })
	in, dropped := rowsIn()
	ps.layer["core.scans_open"] = float64(len(sys.eng.Core().Scans()))
	ps.layer["core.scan_rows_in_per_tweet"] = float64(in) / float64(len(e.tweets))
	ps.layer["core.scan_sub_dropped"] = float64(dropped)

	// Connection drops are invisible from outside except as tweets a
	// scan's filter admits but the scan never saw. The filter is read
	// from ScanStatus.Filter ("track[a b c]"); an unreadable one makes
	// the metric -1 rather than a guess.
	var expected int64
	for _, sc := range sys.eng.Core().Scans() {
		switch {
		case !sc.Pushed:
			expected += int64(len(e.tweets))
		case strings.HasPrefix(sc.Filter, "track[") && strings.HasSuffix(sc.Filter, "]"):
			words := strings.Fields(sc.Filter[len("track[") : len(sc.Filter)-1])
			expected += e.ref.plain(e.ref.contains(words...)).rows
		default:
			ps.layer["twitterapi.conn_dropped"] = -1
			return
		}
	}
	ps.layer["twitterapi.conn_dropped"] = float64(expected - in)
}

// layerMetrics assembles a traced run's per-layer metrics: counters
// from the traced pass, the isolated replays, and the driver's own
// accounting (tails, tracing overhead, the unexplained remainder).
func (e *env) layerMetrics(plain, traced *passStats) (map[string]float64, error) {
	m := map[string]float64{}
	for k, v := range traced.layer {
		m[k] = v
	}
	if d, n := e.tracer.total("server.Registry.Create"); n > 0 {
		m["server.create_ms_per_query"] = d.Seconds() * 1e3 / float64(n)
	}
	m["driver.lag_p99_ms"], _ = quantileMs(plain.lags, 0.99)
	m["driver.lag_p999_ms"], _ = quantileMs(plain.lags, 0.999)
	m["driver.lag_max_ms"], _ = quantileMs(plain.lags, 1)
	m["driver.trace_overhead_frac"] = 1 - plain.wall.Seconds()/traced.wall.Seconds()
	// Per-layer numbers are as measured, not corrected by the speed
	// probe; this says what state the box was in when they were taken.
	m["driver.box_slowness"] = traced.speed

	if err := e.isolated(m); err != nil {
		return nil, err
	}

	// The unexplained remainder: one minus the wall time the isolated
	// per-row costs account for, given how many rows crossed each layer
	// in the traced pass. Layers overlap on two cores, so this can be
	// negative; it is printed, not hidden.
	var explained float64
	for name, rows := range traced.layer {
		if cost, ok := strings.CutPrefix(name, "crossed."); ok {
			explained += m[cost] * rows
		}
	}
	if explained > 0 {
		m["driver.unattributed_frac"] = 1 - explained/float64(traced.wall.Nanoseconds())
	}
	return m, nil
}

// isolated times each layer's public entry points alone, one goroutine,
// over this run's tweets. Every timing is the fastest of three
// repetitions: an isolated call has nothing to wait for, so whatever
// slows a repetition is the box, not the layer.
func (e *env) isolated(m map[string]float64) error {
	e.tr.openPass(isolatedPass)
	defer e.tr.closePass(isolatedPass)
	n := float64(len(e.tweets))
	m["firehose.generate_ns_per_tweet"] = median(e.genSeconds) * 1e9 / float64(e.generated)

	// tweet: the CONTAINS token rule, once per tweet.
	want := e.ref.plain(e.ref.contains("goal")).rows
	d, mallocs, err := e.fastest("tweet.ContainsWord", func() error {
		hits := int64(0)
		for _, t := range e.tweets {
			if tweet.ContainsWord(t.Text, "goal") {
				hits++
			}
		}
		if hits != want {
			return fmt.Errorf("tweet.ContainsWord matched %d tweets, the reference %d", hits, want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["tweet.contains_ns_per_call"] = float64(d.Nanoseconds()) / n
	m["tweet.contains_allocs_per_call"] = float64(mallocs) / n

	// catalog: tweet → tuple conversion into a reused arena, the shape
	// the batched source uses.
	arena := make([]tweeql.Value, 0, 256*16)
	d, mallocs, _ = e.fastest("catalog.AppendTweetTuple", func() error {
		for i, t := range e.tweets {
			if i%256 == 0 {
				arena = arena[:0]
			}
			arena, _ = catalog.AppendTweetTuple(arena, t)
		}
		return nil
	})
	m["catalog.convert_ns_per_tweet"] = float64(d.Nanoseconds()) / n
	m["catalog.convert_allocs_per_tweet"] = float64(mallocs) / n

	rows := make([]tweeql.Tuple, len(e.tweets))
	for i, t := range e.tweets {
		rows[i] = catalog.TweetTuple(t)
	}
	if err := e.isolatedFanout(m, rows); err != nil {
		return err
	}
	if err := e.isolatedFrontEnd(m); err != nil {
		return err
	}
	if err := e.isolatedExec(m, rows); err != nil {
		return err
	}
	if err := e.isolatedStore(m, rows); err != nil {
		return err
	}
	rows = nil
	runtime.GC()
	return e.isolatedTwitinfo(m)
}

// isolatedPass is the trace's pass id for the isolated replays.
const isolatedPass = 1000

// fastest runs f three times (once in -quick mode), each under a span,
// and reports the fastest repetition's wall time and heap allocations.
func (e *env) fastest(span string, f func() error) (time.Duration, uint64, error) {
	reps := 3
	if e.opts.quick {
		reps = 1
	}
	var best time.Duration
	var bestMallocs uint64
	for r := 0; r < reps; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := e.tr.begin(span, isolatedPass)
		start := time.Now()
		err := f()
		d := time.Since(start)
		e.tr.end(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", span, err)
		}
		runtime.ReadMemStats(&after)
		if r == 0 || d < best {
			best, bestMallocs = d, after.Mallocs-before.Mallocs
		}
	}
	return best, bestMallocs, nil
}

// isolatedFanout publishes the converted stream through one
// DerivedStream in 256-row batches (the engine's batch size) to eight
// drained Block subscribers.
func (e *env) isolatedFanout(m map[string]float64, rows []tweeql.Tuple) error {
	const subs, batch = 8, 256
	d, _, err := e.fastest("catalog.DerivedStream.PublishBatch", func() error {
		ds := catalog.NewDerivedStream("bench_fanout", catalog.TweetSchema)
		var wg sync.WaitGroup
		got := make([]int, subs)
		for i := 0; i < subs; i++ {
			sub := ds.Subscribe(catalog.SubOptions{Buffer: subBuffer, Policy: catalog.Block})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					rs, err := sub.Recv(context.Background())
					if err != nil {
						return
					}
					got[i] += len(rs)
				}
			}()
		}
		for lo := 0; lo < len(rows); lo += batch {
			ds.PublishBatch(rows[lo:min(lo+batch, len(rows))])
		}
		ds.CloseStream()
		wg.Wait()
		for i, g := range got {
			if g != len(rows) {
				return fmt.Errorf("subscriber %d got %d of %d rows", i, g, len(rows))
			}
		}
		return nil
	})
	m["catalog.fanout_ns_per_delivery"] = float64(d.Nanoseconds()) / float64(len(rows)*subs)
	return err
}

// isolatedFrontEnd times parsing, planning and opening Q8: the costs
// that belong to set-up and nowhere else.
func (e *env) isolatedFrontEnd(m map[string]float64) error {
	sys, err := e.newSystem("", 0)
	if err != nil {
		return err
	}
	const loops = 200
	stmts := make([]*tweeql.Statement, len(q8))
	d, _, err := e.fastest("lang.Parse", func() error {
		for r := 0; r < loops; r++ {
			for i := range q8 {
				var err error
				if stmts[i], err = lang.Parse(q8[i].sql); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["lang.parse_us_per_stmt"] = d.Seconds() * 1e6 / float64(loops*len(q8))

	d, _, err = e.fastest("core.Engine.Plan", func() error {
		for r := 0; r < loops; r++ {
			for _, stmt := range stmts {
				if _, err := sys.eng.Core().Plan(stmt); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["plan.analyze_us_per_stmt"] = d.Seconds() * 1e6 / float64(loops*len(q8))

	d, _, err = e.fastest("core.Engine.Query", func() error {
		for i := range q8 {
			cur, err := sys.eng.Core().Query(context.Background(), q8[i].sql)
			if err != nil {
				return err
			}
			defer cur.Stop()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.query_open_ms"] = d.Seconds() * 1e3 / float64(len(q8))
	sys.hub.Close()
	return sys.eng.Close()
}

// execShapes are the single-statement engine runs behind exec.*: each
// reads a SliceSource of pre-converted tuples, so neither the hub nor
// conversion is in the figure.
var execShapes = []struct{ metric, allocs, sql string }{
	{"exec.passthrough_ns_per_row", "", `SELECT id FROM mem`},
	{"exec.contains_ns_per_row", "exec.contains_allocs_per_row", `SELECT id FROM mem WHERE text CONTAINS 'goal'`},
	{"exec.contains3_ns_per_row", "", `SELECT id FROM mem WHERE text CONTAINS 'liverpool' OR text CONTAINS 'gerrard' OR text CONTAINS 'penalty'`},
	{"exec.and3_ns_per_row", "", `SELECT id FROM mem WHERE text CONTAINS 'goal' AND followers > 10 AND NOT retweet`},
	{"exec.int_cmp_ns_per_row", "exec.int_cmp_allocs_per_row", `SELECT id FROM mem WHERE followers > 5000`},
	{"exec.in_list_ns_per_row", "", `SELECT id FROM mem WHERE loc IN ('london', 'liverpool', 'manchester')`},
	{"exec.project_udf_ns_per_row", "", `SELECT id, sentiment(text) AS s FROM mem`},
	{"exec.window_count_ns_per_row", "", `SELECT COUNT(*) AS n FROM mem WINDOW 1 MINUTE`},
	{"exec.window_group_ns_per_row", "", `SELECT COUNT(*) AS n, AVG(sentiment(text)) AS s FROM mem GROUP BY has_geo WINDOW 5 MINUTES`},
}

func (e *env) isolatedExec(m map[string]float64, rows []tweeql.Tuple) error {
	sys, err := e.newSystem("", 0)
	if err != nil {
		return err
	}
	sys.eng.Core().Catalog().RegisterSource("mem", catalog.NewSliceSource(catalog.TweetSchema, rows))
	for _, shape := range execShapes {
		d, mallocs, err := e.fastest(shape.metric, func() error {
			cur, err := sys.eng.Core().Query(context.Background(), shape.sql)
			if err != nil {
				return err
			}
			out := 0
			for range cur.Rows() {
				out++
			}
			if out == 0 {
				return fmt.Errorf("no rows")
			}
			return cur.Stats().Err()
		})
		if err != nil {
			return err
		}
		m[shape.metric] = float64(d.Nanoseconds()) / float64(len(rows))
		if shape.allocs != "" {
			m[shape.allocs] = float64(mallocs) / float64(len(rows))
		}
	}
	sys.hub.Close()
	return sys.eng.Close()
}

// scanCounted is the part of the persistent backend the store metrics
// read beyond catalog.TableBackend.
type scanCounted interface{ ScanCounters() store.Counters }

// counterSnap is a point-in-time copy of a table's scan counters.
type counterSnap store.Counters

func snapshotCounters(sc scanCounted) counterSnap { return counterSnap(sc.ScanCounters()) }

// fractionsSince reports, for the scans since the snapshot, the share
// of column blocks skipped on zone maps and of segments pruned on time
// bounds.
func (b counterSnap) fractionsSince(sc scanCounted) (blocksSkipped, segmentsPruned float64) {
	a := sc.ScanCounters()
	if blocks := (a.BlocksRead - b.BlocksRead) + (a.BlocksSkipped - b.BlocksSkipped); blocks > 0 {
		blocksSkipped = float64(a.BlocksSkipped-b.BlocksSkipped) / float64(blocks)
	}
	if segs := (a.SegmentsScanned - b.SegmentsScanned) + (a.SegmentsPruned - b.SegmentsPruned); segs > 0 {
		segmentsPruned = float64(a.SegmentsPruned-b.SegmentsPruned) / float64(segs)
	}
	return blocksSkipped, segmentsPruned
}

// isolatedStore drives the persistent table directly: append the
// converted stream in 256-row batches with 8 MiB segments (once: a
// second append would need a second table), close, reopen, scan
// everything, scan ten minutes. The table comes from the engine's own
// factory, so it is configured as INTO TABLE targets are.
func (e *env) isolatedStore(m map[string]float64, rows []tweeql.Tuple) error {
	const table = "iso_log"
	dir, err := e.dataDir("store")
	if err != nil {
		return err
	}
	sys, err := e.newSystem(dir, tableSegmentBytes)
	if err != nil {
		return err
	}
	tbl, err := sys.eng.Core().Catalog().OpenTable(table)
	if err != nil {
		return err
	}
	var worst time.Duration
	start := time.Now()
	for lo := 0; lo < len(rows); lo += 256 {
		sp := e.tr.begin("store.Table.AppendBatch", isolatedPass)
		t0 := time.Now()
		err := tbl.AppendBatch(rows[lo:min(lo+256, len(rows))])
		worst = max(worst, time.Since(t0))
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	if err := tbl.Flush(); err != nil {
		return err
	}
	sys.hub.Close()
	if err := sys.eng.Close(); err != nil {
		return err
	}
	sys = nil
	m["store.append_ns_per_row"] = float64(time.Since(start).Nanoseconds()) / float64(len(rows))
	m["store.append_batch_max_ms"] = worst.Seconds() * 1e3
	onDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m["store.disk_bytes_per_row"] = float64(onDisk) / float64(len(rows))

	// Reopen on a fresh engine each repetition; the last one stays open
	// for the scans.
	var backend catalog.TableBackend
	d, _, err := e.fastest("store.Open", func() error {
		if sys != nil {
			sys.hub.Close()
			if err := sys.eng.Close(); err != nil {
				return err
			}
		}
		if sys, err = e.newSystem(dir, tableSegmentBytes); err != nil {
			return err
		}
		tbl, err := sys.eng.Core().Catalog().OpenTable(table)
		if err != nil {
			return err
		}
		if tbl.Len() != len(rows) {
			return fmt.Errorf("reopened table has %d of %d rows", tbl.Len(), len(rows))
		}
		backend = tbl.Backend()
		return nil
	})
	if err != nil {
		return err
	}
	m["store.reopen_ms"] = d.Seconds() * 1e3

	scan := func(span string, from, to time.Time, want int64) (time.Duration, uint64, error) {
		return e.fastest(span, func() error {
			seen := int64(0)
			if err := backend.Scan(from, to, 256, func(b []tweeql.Tuple) error { seen += int64(len(b)); return nil }); err != nil {
				return err
			}
			if seen != want {
				return fmt.Errorf("saw %d rows, the reference %d", seen, want)
			}
			return nil
		})
	}
	d, mallocs, err := scan("store.Table.Scan", time.Time{}, time.Time{}, int64(len(rows)))
	if err != nil {
		return err
	}
	m["store.scan_ns_per_row"] = float64(d.Nanoseconds()) / float64(len(rows))
	m["store.scan_allocs_per_row"] = float64(mallocs) / float64(len(rows))

	counted, _ := backend.(scanCounted)
	var before counterSnap
	if counted != nil {
		before = snapshotCounters(counted)
	}
	// Scan bounds are inclusive; the range is the replay workload's ten
	// minutes less the final nanosecond.
	d, _, err = scan("store.Table.Scan(range)", rangeFrom, rangeTo.Add(-time.Nanosecond), e.ref.plain(inRange(rangeFrom, rangeTo)).rows)
	if err != nil {
		return err
	}
	m["store.range_scan_ms"] = d.Seconds() * 1e3
	if counted != nil {
		m["store.blocks_skipped_frac"], m["store.segments_pruned_frac"] = before.fractionsSince(counted)
	}
	sys.hub.Close()
	return sys.eng.Close()
}

// isolatedTwitinfo feeds the tracker the tweets its event matches and
// builds the dashboard.
func (e *env) isolatedTwitinfo(m map[string]float64) error {
	kw := e.ref.contains(soccerEvent().Keywords...)
	var matching []*tweeql.Tweet
	for i, t := range e.tweets {
		if kw(i, t) {
			matching = append(matching, t)
		}
	}
	if len(matching) == 0 {
		return fmt.Errorf("no tweet matches the soccer event")
	}
	var tr *twitinfo.Tracker
	d, _, err := e.fastest("twitinfo.Tracker.Ingest", func() error {
		tr = twitinfo.NewTracker(soccerEvent())
		for _, t := range matching {
			tr.Ingest(t)
		}
		tr.Finish()
		if tr.Ingested() != int64(len(matching)) {
			return fmt.Errorf("ingested %d of %d tweets", tr.Ingested(), len(matching))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["twitinfo.ingest_ns_per_tweet"] = float64(d.Nanoseconds()) / float64(len(matching))
	d, _, _ = e.fastest("twitinfo.Tracker.Dashboard", func() error {
		_ = tr.Dashboard(twitinfo.DashboardOptions{})
		return nil
	})
	m["twitinfo.dashboard_build_ms"] = d.Seconds() * 1e3
	return nil
}
