package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"tweeql"
	"tweeql/twitinfo"
)

const (
	// tableSegmentBytes makes the ~10 MB log seal (and transpose) a
	// segment at least once a pass while leaving an active tail.
	tableSegmentBytes = 8 << 20
	logTable          = "tweet_log"
	logStmt           = `SELECT * FROM twitter INTO TABLE ` + logTable
)

// The replay workload's ten-minute range and thirty-minute TwitInfo
// window: the second half-hour of the match, after segment boundaries.
var (
	rangeFrom  = time.Date(2011, 6, 12, 13, 0, 0, 0, time.UTC)
	rangeTo    = rangeFrom.Add(10 * time.Minute)
	replayFrom = rangeFrom
	replayTo   = rangeFrom.Add(30 * time.Minute)
)

// logStream runs logStmt over the whole stream on a fresh engine rooted
// at dir — closed loop, saturation — through Cursor.Drained and
// Engine.Close, filling ps with the timed region's wall, allocation and
// lag figures. Lag here is durability: with FsyncPolicy "seal" a row is
// known to be on disk once its segment seals or the engine closes, and
// only the close is visible from outside, so every chunk is timed from
// its hand-over to Engine.Close returning. It returns the moment set-up
// ended and publishing began.
func (e *env) logStream(dir string, pass int, ps *passStats) (ready time.Time, err error) {
	sys, err := e.newSystem(dir, tableSegmentBytes)
	if err != nil {
		return ready, err
	}
	sp := e.tr.begin("core.Engine.Query "+logTable, pass)
	cur, err := sys.eng.Core().Query(context.Background(), logStmt)
	e.tr.end(sp)
	if err != nil {
		return ready, err
	}
	pub := e.newPublisher(sys.hub, 0, pass)
	ready = time.Now()

	mem := startMem()
	pub.run()
	if e.tr != nil {
		e.readScanCounters(sys, ps)
	}
	sys.hub.Close()
	<-cur.Drained()
	if err := cur.Stats().Err(); err != nil {
		return ready, fmt.Errorf("%s: %w", logTable, err)
	}
	if err := sys.eng.Close(); err != nil {
		return ready, err
	}
	closed := time.Now()
	ps.wall = closed.Sub(pub.start)
	ps.allocPerTweet = float64(mem.stop()) / float64(len(e.tweets))
	lags := newLagSamples(len(pub.stamp), 1)
	for _, handed := range pub.stamp {
		lags.add(closed.Sub(handed))
	}
	ps.lags = []*lagSamples{lags}
	if e.tr != nil {
		e.tr.attach(fmt.Sprintf("pass%d.%s", pass, logTable), cur.Profile().Snapshot())
		pub.noteHub(ps)
		ps.layer["crossed.catalog.convert_ns_per_tweet"] = float64(cur.Stats().RowsIn.Load())
		ps.layer["crossed.exec.passthrough_ns_per_row"] = float64(cur.Stats().RowsIn.Load())
		ps.layer["crossed.store.append_ns_per_row"] = float64(cur.Stats().RowsOut.Load())
	}
	return ready, nil
}

// reopen opens the data dir on a fresh engine and returns the logged
// table's row count.
func (e *env) reopen(dir string) (*system, int, error) {
	sys, err := e.newSystem(dir, tableSegmentBytes)
	if err != nil {
		return nil, 0, err
	}
	tbl, err := sys.eng.Core().Catalog().OpenTable(logTable)
	if err != nil {
		return nil, 0, err
	}
	return sys, tbl.Len(), nil
}

// tableLogPass logs the stream into a fresh directory, timed from the
// first publish through Engine.Close, then reopens it, checks the row
// count and reads part of it back.
func (e *env) tableLogPass(pass int) (*passStats, error) {
	ps := newPassStats()
	dir, err := e.dataDir("log")
	if err != nil {
		return nil, err
	}
	n := len(e.tweets)
	ready, err := e.logStream(dir, pass, ps)
	if err != nil {
		return nil, err
	}
	e.noteSetup(ready.Sub(ps.began))
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	ps.diskPerTweet = float64(bytes) / float64(n)

	sys, rows, err := e.reopen(dir)
	if err != nil {
		return nil, err
	}
	ps.attempted += int64(n) + 1
	if d := int64(rows - n); d != 0 {
		ps.failed += max(d, -d)
	}
	ps.tweetsPerS = float64(n) / ps.wall.Seconds()
	ps.deliveriesPerS = float64(rows) / ps.wall.Seconds()
	ps.counts["rows."+logTable] = int64(rows)
	ps.counts["disk_bytes"] = bytes
	// What the log is for: the ten-minute range and the TwitInfo replay,
	// read back from the table just written, active tail included. Row
	// count alone would accept a table of the wrong rows.
	if ps.rangeMs, err = e.rangeQuery(sys, pass, ps, nil); err != nil {
		return nil, err
	}
	e.replayDashboard(sys, pass, ps)
	sys.hub.Close()
	if err := sys.eng.Close(); err != nil {
		return nil, err
	}
	return ps, os.RemoveAll(dir)
}

func runTableLog(e *env) (*result, error) {
	return e.measure("table_log", scaled{rates: true, lags: true}, e.tableLogPass)
}

// replayStmts are the statements one client runs against the logged
// table each round, in this order, followed by the TwitInfo replay.
// The first four read every row.
var replayStmts = []statement{
	{name: "scan_kw", shape: "exec.contains_ns_per_row",
		sql:  `SELECT id, text FROM ` + logTable + ` WHERE text CONTAINS 'goal'`,
		want: func(r *reference) expect { return r.plain(r.contains("goal")) }},
	{name: "scan_int", shape: "exec.int_cmp_ns_per_row",
		sql: `SELECT id, username, followers FROM ` + logTable + ` WHERE followers > 5000`,
		want: func(r *reference) expect {
			return r.plain(func(_ int, t *tweeql.Tweet) bool { return t.Followers > 5000 })
		}},
	{name: "agg_window", windowed: true, shape: "exec.window_group_ns_per_row",
		sql:  `SELECT COUNT(*) AS n, AVG(sentiment(text)) AS s FROM ` + logTable + ` WHERE text CONTAINS 'goal' WINDOW 1 MINUTE`,
		want: func(r *reference) expect { return r.windowed(time.Minute, r.contains("goal"), nil) }},
	{name: "group_loc", windowed: true, shape: "exec.window_count_ns_per_row",
		sql: `SELECT COUNT(*) AS n FROM ` + logTable + ` GROUP BY loc WINDOW 5 MINUTES`,
		want: func(r *reference) expect {
			return r.windowed(5*time.Minute, all, func(t *tweeql.Tweet) string { return t.Location })
		}},
	{name: "range_10m", shape: "exec.passthrough_ns_per_row",
		sql:  `SELECT id, text FROM ` + logTable + ` WHERE created_at >= '2011-06-12 13:00:00' AND created_at < '2011-06-12 13:10:00'`,
		want: func(r *reference) expect { return r.plain(inRange(rangeFrom, rangeTo)) }},
}

// replayTrackerStmt stands for twitinfo_replay: the event's tweets in
// ReplayEvent's range, whose upper bound is inclusive.
var replayTrackerStmt = statement{name: "twitinfo_replay", shape: "twitinfo.ingest_ns_per_tweet",
	want: func(r *reference) expect {
		kw := r.contains(soccerEvent().Keywords...)
		return r.plain(func(i int, t *tweeql.Tweet) bool {
			return kw(i, t) && !t.CreatedAt.Before(replayFrom) && !t.CreatedAt.After(replayTo)
		})
	}}

// rangeStmt is range_10m, the one replay statement the zone maps serve.
var rangeStmt = &replayStmts[4]

// replay holds the reopened table the rounds run against.
type replay struct {
	e    *env
	sys  *system
	disk int64
}

// newReplay is table_replay's set-up: log the stream, reopen. It runs
// three times (fresh directory each) so setup_s is a median.
func (e *env) newReplay() (*replay, error) {
	reps := 3
	if e.opts.quick {
		reps = 1
	}
	var rp *replay
	for i := 0; i < reps; i++ {
		if rp != nil {
			rp.close()
		}
		e.settle()
		start := time.Now()
		dir, err := e.dataDir("replay")
		if err != nil {
			return nil, err
		}
		if _, err := e.logStream(dir, -1, newPassStats()); err != nil {
			return nil, err
		}
		sys, rows, err := e.reopen(dir)
		if err != nil {
			return nil, err
		}
		if rows != len(e.tweets) {
			return nil, fmt.Errorf("set-up logged %d of %d tweets", rows, len(e.tweets))
		}
		e.noteSetup(time.Since(start))
		rp = &replay{e: e, sys: sys}
		if rp.disk, err = dirBytes(dir); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replay) close() {
	rp.sys.hub.Close()
	_ = rp.sys.eng.Close()       // read-only since reopen: nothing buffered to lose
	_ = os.RemoveAll(rp.sys.dir) // scratch; the run's root is removed at exit anyway
}

// runStmt runs one statement over the logged table to its last row and
// checks the answer. It returns how long the client waited and how many
// rows the statement read.
func (e *env) runStmt(sys *system, st *statement, pass int, ps *passStats) (took time.Duration, rowsIn int64, err error) {
	var acc accumulator
	sp := e.tr.begin("core.Engine.Query "+st.name, pass)
	start := time.Now()
	cur, err := sys.eng.Core().Query(context.Background(), st.sql)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", st.name, err)
	}
	for row := range cur.Rows() {
		if st.windowed {
			c, _ := row.Get("n").IntVal() // a non-integer count reads 0 and fails the Σ check
			acc.addWindow(c)
		} else {
			id, _ := row.Get("id").IntVal() // a missing id reads 0 and fails the digest
			acc.addID(id)
		}
	}
	took = time.Since(start)
	e.tr.end(sp)
	a, f := check(acc.got, e.expectOf(st))
	ps.attempted += a
	ps.failed += f
	if err := cur.Stats().Err(); err != nil {
		ps.failed++
	}
	ps.counts["rows."+st.name] = acc.got.rows
	ps.counts["digest."+st.name] = int64(acc.got.digest + uint64(acc.got.sum))
	if e.tr != nil {
		e.tr.attach(fmt.Sprintf("pass%d.%s", pass, st.name), cur.Profile().Snapshot())
	}
	return took, cur.Stats().RowsIn.Load(), nil
}

// rangeReps is how many range_10m samples stand behind one pass's
// figure: about 15 ms of the query is scanning and the rest is up to two
// flush timers whose phase is anyone's guess, so one sample says little.
const rangeReps = 5

// rangeQuery runs range_10m until ms holds rangeReps samples (one in
// -quick mode) and returns their median, in milliseconds. On a traced
// pass it also notes what the zone maps let these scans skip.
func (e *env) rangeQuery(sys *system, pass int, ps *passStats, ms []float64) (float64, error) {
	var counted scanCounted
	if tbl := sys.eng.Core().Catalog().OpenedTable(logTable); tbl != nil {
		counted, _ = tbl.Backend().(scanCounted)
	}
	var before counterSnap
	if counted != nil {
		before = snapshotCounters(counted)
	}
	for len(ms) < rangeReps && (len(ms) == 0 || !e.opts.quick) {
		took, _, err := e.runStmt(sys, rangeStmt, pass, ps)
		if err != nil {
			return 0, err
		}
		ms = append(ms, took.Seconds()*1e3)
	}
	if counted != nil {
		ps.layer["store.blocks_skipped_frac"], ps.layer["store.segments_pruned_frac"] = before.fractionsSince(counted)
	}
	return median(ms), nil
}

// replayDashboard is twitinfo_replay: rebuild the event from the table,
// then the dashboard a user would be shown. It sets ps.dashMs and
// returns the tweets the tracker ingested.
func (e *env) replayDashboard(sys *system, pass int, ps *passStats) int64 {
	sp := e.tr.begin("twitinfo.ReplayEvent+Dashboard", pass)
	start := time.Now()
	tracker := twitinfo.NewTracker(soccerEvent())
	replayErr := twitinfo.ReplayEvent(context.Background(), sys.eng, tracker, logTable, replayFrom, replayTo)
	dash := tracker.Dashboard(twitinfo.DashboardOptions{})
	ps.dashMs = time.Since(start).Seconds() * 1e3
	e.tr.end(sp)

	a, f := check(trackerGot(tracker), e.expectOf(&replayTrackerStmt))
	ps.attempted += a
	ps.failed += f
	if replayErr != nil || dash.Ingested != tracker.Ingested() {
		ps.failed++
	}
	ps.counts["rows."+replayTrackerStmt.name] = tracker.Ingested()
	return tracker.Ingested()
}

// round runs the six statements once. Lag here is a client's wait for a
// statement's complete answer: six samples a round.
func (rp *replay) round(pass int) (*passStats, error) {
	e := rp.e
	ps := newPassStats()
	n := len(e.tweets)
	lags := newLagSamples(len(replayStmts)+1, 1)
	ps.lags = []*lagSamples{lags}
	var scanWall, rangeTook time.Duration
	var delivered int64

	mem := startMem()
	roundStart := time.Now()
	for i := range replayStmts {
		st := &replayStmts[i]
		took, rowsIn, err := e.runStmt(rp.sys, st, pass, ps)
		if err != nil {
			return nil, err
		}
		if st == rangeStmt {
			rangeTook = took
		} else {
			scanWall += took
			ps.layer["crossed.store.scan_ns_per_row"] += float64(n)
			ps.layer["crossed."+st.shape] += float64(rowsIn)
		}
		lags.add(took)
		delivered += ps.counts["rows."+st.name]
	}
	ingested := e.replayDashboard(rp.sys, pass, ps)
	ps.layer["crossed."+replayTrackerStmt.shape] = float64(ingested)
	delivered += ingested
	lags.add(time.Duration(ps.dashMs * float64(time.Millisecond)))
	ps.wall = time.Since(roundStart)
	bytes := mem.stop()
	ps.counts["disk_bytes"] = rp.disk

	// The round's own range_10m and four more once the round is over.
	var err error
	if ps.rangeMs, err = e.rangeQuery(rp.sys, pass, ps, []float64{rangeTook.Seconds() * 1e3}); err != nil {
		return nil, err
	}

	fullScans := len(replayStmts) - 1 // every statement but range_10m reads the whole table
	ps.tweetsPerS = float64(fullScans*n) / scanWall.Seconds()
	ps.deliveriesPerS = float64(delivered) / ps.wall.Seconds()
	ps.diskPerTweet = float64(rp.disk) / float64(n)
	ps.allocPerTweet = float64(bytes) / float64(fullScans*n)
	return ps, nil
}

func runTableReplay(e *env) (*result, error) {
	rp, err := e.newReplay()
	if err != nil {
		return nil, err
	}
	defer rp.close()
	return e.measure("table_replay", scaled{rates: true, lags: true}, rp.round)
}
