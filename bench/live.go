package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"tweeql"
	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/server"
	"tweeql/twitinfo"
)

// pacedRate is live_paced's offered load in tweets/s: about a quarter
// of what live_drain sustains on the reference box, where a daemon is
// meant to run.
const pacedRate = 40_000

// statement is one TweeQL statement of a workload with its reference
// answer. Windowed statements deliver COUNT(*) AS n rows.
type statement struct {
	name     string
	sql      string
	windowed bool
	want     func(*reference) expect
	// shape names the exec.* per-layer metric whose isolated cost this
	// statement's residual pipeline is attributed with.
	shape string
}

// q8 is the registered query mix of the live workloads: the keyword
// statements push a track filter down to the hub, the rest share the
// unfiltered scan, two aggregate.
var q8 = []statement{
	{name: "kw_goal", shape: "exec.contains_ns_per_row",
		sql:  `SELECT id, text FROM twitter WHERE text CONTAINS 'goal'`,
		want: func(r *reference) expect { return r.plain(r.contains("goal")) }},
	{name: "kw_set", shape: "exec.contains3_ns_per_row",
		sql:  `SELECT id, text, username FROM twitter WHERE text CONTAINS 'liverpool' OR text CONTAINS 'gerrard' OR text CONTAINS 'penalty'`,
		want: func(r *reference) expect { return r.plain(r.contains("liverpool", "gerrard", "penalty")) }},
	{name: "and3", shape: "exec.and3_ns_per_row",
		sql: `SELECT id, username FROM twitter WHERE text CONTAINS 'goal' AND followers > 10 AND NOT retweet`,
		want: func(r *reference) expect {
			goal := r.contains("goal")
			return r.plain(func(i int, t *tweeql.Tweet) bool { return goal(i, t) && t.Followers > 10 && !t.Retweet })
		}},
	{name: "int_filter", shape: "exec.int_cmp_ns_per_row",
		sql: `SELECT id, username, followers FROM twitter WHERE followers > 5000`,
		want: func(r *reference) expect {
			return r.plain(func(_ int, t *tweeql.Tweet) bool { return t.Followers > 5000 })
		}},
	{name: "in_list", shape: "exec.in_list_ns_per_row",
		sql: `SELECT id, text FROM twitter WHERE loc IN ('london', 'liverpool', 'manchester')`,
		want: func(r *reference) expect {
			return r.plain(func(_ int, t *tweeql.Tweet) bool {
				return t.Location == "london" || t.Location == "liverpool" || t.Location == "manchester"
			})
		}},
	{name: "sentiment", shape: "exec.project_udf_ns_per_row",
		sql:  `SELECT id, sentiment(text) AS s FROM twitter WHERE text CONTAINS 'liverpool'`,
		want: func(r *reference) expect { return r.plain(r.contains("liverpool")) }},
	{name: "win_count", windowed: true, shape: "exec.window_count_ns_per_row",
		sql:  `SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE`,
		want: func(r *reference) expect { return r.windowed(time.Minute, all, nil) }},
	{name: "win_group", windowed: true, shape: "exec.window_group_ns_per_row",
		sql: `SELECT COUNT(*) AS n, AVG(sentiment(text)) AS s FROM twitter WHERE text CONTAINS 'goal' GROUP BY has_geo WINDOW 5 MINUTES`,
		want: func(r *reference) expect {
			return r.windowed(5*time.Minute, r.contains("goal"), func(t *tweeql.Tweet) string { return fmt.Sprint(t.HasGeo) })
		}},
}

// soccerEvent is tweeqld's default TwitInfo event for the scenario.
func soccerEvent() twitinfo.EventConfig {
	for _, c := range twitinfo.CannedEvents() {
		if c.Scenario == "soccer" {
			return c.Event
		}
	}
	return twitinfo.EventConfig{Name: "soccer", Keywords: firehose.SoccerKeywords}
}

// trackerStmt stands for the TwitInfo tracker fed by StartTracking:
// every tweet naming one of the event's keywords.
var trackerStmt = statement{name: "twitinfo", shape: "twitinfo.ingest_ns_per_tweet",
	want: func(r *reference) expect { return r.plain(r.contains(soccerEvent().Keywords...)) }}

func trackerGot(tr *twitinfo.Tracker) expect {
	var a accumulator
	for _, st := range tr.Tweets() {
		a.addID(st.ID)
	}
	a.got.rows = tr.Ingested()
	return a.got
}

// trackerViews times the two views a TwitInfo user asks of a live
// tracker once the pass has fed it: the whole-event dashboard, and the
// drill-down into its biggest peak — the tracker's time-range query.
// Each is built reps times and the median counts.
func trackerViews(tr *twitinfo.Tracker, ps *passStats, reps int) {
	var dash, drill []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		d := tr.Dashboard(twitinfo.DashboardOptions{})
		dash = append(dash, time.Since(start).Seconds()*1e3)
		ps.attempted += 2
		if d.Ingested != tr.Ingested() || len(d.Peaks) == 0 {
			ps.failed += 2 // no peak to drill into: the soccer match has five
			return
		}
		biggest := d.Peaks[0]
		for _, p := range d.Peaks {
			if p.MaxCount > biggest.MaxCount {
				biggest = p
			}
		}
		start = time.Now()
		_, err := tr.PeakDashboard(biggest.ID, twitinfo.DashboardOptions{})
		drill = append(drill, time.Since(start).Seconds()*1e3)
		if err != nil {
			ps.failed++
		}
	}
	ps.dashMs, ps.rangeMs = median(dash), median(drill)
}

// reader drains one in-process Block subscription, folding rows into
// the reference's digest form and timing each from its tweet's stamp.
type reader struct {
	stmt *statement
	sub  *catalog.Subscription
	acc  accumulator
	lags *lagSamples
	last time.Time // when the final rows arrived
}

// settle checks what the reader received against want, folds the
// outcome into the pass, and returns the rows delivered.
func (r *reader) settle(ps *passStats, want expect) int64 {
	a, f := check(r.acc.got, want)
	dropped := r.sub.Stats().Dropped // a Block subscription never drops; a drop is a failed op
	ps.attempted += a
	ps.failed += f + dropped
	ps.layer["catalog.sub_dropped"] += float64(dropped)
	ps.lags = append(ps.lags, r.lags)
	return r.acc.got.rows
}

func (r *reader) run(e *env, pub *publisher) {
	for {
		sp := e.tr.begin("catalog.Subscription.Recv", pub.pass)
		rows, err := r.sub.Recv(context.Background())
		e.tr.end(sp)
		if err != nil {
			return
		}
		now := time.Now()
		r.last = now
		for _, row := range rows {
			pos := -1
			if r.stmt.windowed {
				n, _ := row.Get("n").IntVal() // a non-integer count reads 0 and fails the Σ check
				r.acc.addWindow(n)
				// A window row is due once the stream's event time passes
				// the window's end (the row's TS).
				pos = e.ref.firstAtOrAfter(row.TS)
			} else {
				id, _ := row.Get("id").IntVal() // a missing id reads 0 and fails the digest
				r.acc.addID(id)
				pos = e.tweetIndex(id)
			}
			switch {
			case pos < 0:
			case pos >= len(e.tweets):
				r.lags.add(now.Sub(pub.closed)) // flushed by end of stream
			default:
				r.lags.add(now.Sub(pub.stampOf(pos)))
			}
		}
	}
}

// livePass runs Q8 plus the TwitInfo tracker once: fresh engine and
// registry, every statement registered through Registry.Create with one
// in-process Block subscriber, the whole stream published.
func (e *env) livePass(pass int, rate float64) (*passStats, error) {
	ps := newPassStats()
	dir, err := e.dataDir("live")
	if err != nil {
		return nil, err
	}
	sys, err := e.newSystem(dir, 0)
	if err != nil {
		return nil, err
	}
	reg, err := server.NewRegistry(sys.eng.Core(), dir, server.RestartPolicy{}, nil)
	if err != nil {
		return nil, err
	}
	pub := e.newPublisher(sys.hub, rate, pass)
	readers := make([]*reader, len(q8))
	for i := range q8 {
		st := &q8[i]
		sp := e.tr.begin("server.Registry.Create", pass)
		q, err := reg.Create(server.QuerySpec{Name: st.name, SQL: st.sql})
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", st.name, err)
		}
		want := e.expectOf(st)
		readers[i] = &reader{stmt: st,
			sub:  q.Broadcaster().Subscribe(catalog.SubOptions{Buffer: subBuffer, Policy: catalog.Block}),
			lags: newLagSamples(int(want.rows)+64, 1)}
	}
	tracker := twitinfo.NewTracker(soccerEvent())
	tracking, err := twitinfo.StartTracking(context.Background(), sys.eng, tracker)
	if err != nil {
		return nil, err
	}
	e.noteSetup(time.Since(ps.began))

	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func() { defer wg.Done(); r.run(e, pub) }()
	}
	var trackerDone time.Time
	var trackerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		trackerErr = tracking.Wait()
		trackerDone = time.Now()
	}()

	mem := startMem()
	pub.run()
	if e.tr != nil {
		e.readScanCounters(sys, ps)
	}
	pub.closed = time.Now()
	sys.hub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	settled := waitFor(ctx, func() bool {
		for _, st := range reg.List() {
			if st.State == server.StateRunning {
				return false
			}
		}
		return true
	})
	statuses := reg.List()
	closeErr := reg.Close(ctx) // ends every fan-out stream: readers drain and return
	wg.Wait()
	allocBytes := mem.stop()

	end := trackerDone
	for _, r := range readers {
		if r.last.After(end) {
			end = r.last
		}
	}
	ps.wall = end.Sub(pub.start)

	// Verify against the reference.
	var deliveries int64
	if !settled || closeErr != nil {
		ps.failed++
	}
	ps.attempted++
	for _, r := range readers {
		deliveries += r.settle(ps, e.expectOf(r.stmt))
		ps.counts["rows."+r.stmt.name] = r.acc.got.rows
		ps.counts["digest."+r.stmt.name] = int64(r.acc.got.digest + uint64(r.acc.got.sum))
	}
	for _, st := range statuses {
		ps.attempted++
		if st.State != server.StateDone || st.Error != "" {
			ps.failed++
		}
	}
	a, f := check(trackerGot(tracker), e.expectOf(&trackerStmt))
	ps.attempted += a
	ps.failed += f
	if trackerErr != nil {
		ps.failed++
	}
	ps.counts["rows.twitinfo"] = tracker.Ingested()
	ps.counts["rows.delivered"] = deliveries
	n := float64(len(e.tweets))
	ps.tweetsPerS = n / ps.wall.Seconds()
	ps.deliveriesPerS = float64(deliveries) / ps.wall.Seconds()
	ps.allocPerTweet = float64(allocBytes) / n

	// A run has few passes (a paced one, three or four): each has to
	// stand on more than one sample of its views.
	viewReps := 3
	if e.opts.quick {
		viewReps = 1
	}
	trackerViews(tracker, ps, viewReps)

	if rate > 0 {
		if !e.opts.quick { // a quarter-second self-test checks rows, not a schedule 5 ms wide
			ps.invalid = pub.scheduleFault()
		}
		ps.layer["driver.late_p99_ms"] = quantile(pub.late, 0.99)
		ps.layer["driver.late_max_ms"] = quantile(pub.late, 1)
	}
	if e.tr != nil {
		// Every query's profile goes into the trace file verbatim; no
		// named metric depends on a stage name.
		shapes := map[string]string{}
		for i := range q8 {
			shapes[q8[i].name] = q8[i].shape
			if q, ok := reg.Get(q8[i].name); ok {
				e.tr.attach(fmt.Sprintf("pass%d.%s", pass, q8[i].name), q.Profile().Snapshot())
			}
		}
		pub.noteHub(ps)
		ps.layer["crossed.catalog.convert_ns_per_tweet"] = ps.layer["core.scan_rows_in_per_tweet"] * n
		for _, st := range statuses {
			ps.layer["crossed."+shapes[st.Name]] += float64(st.RowsIn)
		}
		ps.layer["crossed.catalog.fanout_ns_per_delivery"] = float64(deliveries)
		ps.layer["crossed."+trackerStmt.shape] = float64(tracker.Ingested())
	}
	if err := sys.eng.Close(); err != nil {
		return nil, err
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	ps.diskPerTweet = float64(onDisk) / n // the registry journal: timestamps make its size vary by a few bytes
	return ps, os.RemoveAll(dir)
}
