package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/server"
)

const (
	// fanoutSockets + fanoutInProcess = 8 subscribers on one query. The
	// socket count is the reference box's core count, fixed so the
	// workload is the same on every machine.
	fanoutSockets   = 2
	fanoutInProcess = 6
	// fanoutLagStride thins 8 × 171k lag samples a pass to what a run can
	// hold; every eighth delivery of every subscriber is timed.
	fanoutLagStride = 8
)

// fanoutStmt is the pass-through query: no filter, so the hub delivers
// every tweet and the engine's kernels have nothing to do.
var fanoutStmt = statement{name: "q", shape: "exec.passthrough_ns_per_row",
	sql:  `SELECT id, text, username, followers FROM twitter`,
	want: func(r *reference) expect { return r.plain(all) }}

// socketClient is one NDJSON subscriber over a real loopback socket. It
// counts newlines: the query is an ordered pass-through, so line n is
// tweet n and needs no parsing to be timed.
type socketClient struct {
	lines int64
	bytes int64
	lags  *lagSamples
	last  time.Time
	err   error
	// marks are the stream positions where 13:00, 13:10 and 13:30 begin;
	// ten and half hold the lags of the lines in the replay workload's
	// ten-minute range and in its dashboard's half hour.
	marks     [3]int
	ten, half *lagSamples
}

func (c *socketClient) run(e *env, pub *publisher, body io.Reader) {
	buf := make([]byte, 64<<10)
	for {
		sp := e.tr.begin("server.stream.Read", pub.pass)
		n, err := body.Read(buf)
		e.tr.end(sp)
		if n > 0 {
			now := time.Now()
			c.last = now
			c.bytes += int64(n)
			for k := bytes.Count(buf[:n], []byte{'\n'}); k > 0; k-- {
				if pos := int(c.lines); pos < len(e.tweets) {
					lag := now.Sub(pub.stampOf(pos))
					c.lags.add(lag)
					if pos >= c.marks[0] && pos < c.marks[2] {
						c.half.add(lag)
						if pos < c.marks[1] {
							c.ten.add(lag)
						}
					}
				}
				c.lines++
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				c.err = err
			}
			return
		}
	}
}

// fanoutPass serves one pass-through query to eight subscribers through
// tweeqld's HTTP surface and publishes the whole stream.
func (e *env) fanoutPass(pass int) (*passStats, error) {
	ps := newPassStats()
	dir, err := e.dataDir("fanout")
	if err != nil {
		return nil, err
	}
	sys, err := e.newSystem(dir, 0)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(sys.eng.Core(), server.Options{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	sp := e.tr.begin("server.Registry.Create", pass)
	q, err := srv.Registry().Create(server.QuerySpec{Name: fanoutStmt.name, SQL: fanoutStmt.sql})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	pub := e.newPublisher(sys.hub, 0, pass)
	want := e.expectOf(&fanoutStmt)

	var wg sync.WaitGroup
	readers := make([]*reader, fanoutInProcess)
	for i := range readers {
		readers[i] = &reader{stmt: &fanoutStmt,
			sub:  q.Broadcaster().Subscribe(catalog.SubOptions{Buffer: subBuffer, Policy: catalog.Block}),
			lags: newLagSamples(int(want.rows)+64, fanoutLagStride)}
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: fanoutSockets}}
	url := fmt.Sprintf("http://%s/api/queries/%s/stream?format=ndjson&policy=block&buffer=%d", ln.Addr(), fanoutStmt.name, subBuffer)
	clients := make([]*socketClient, fanoutSockets)
	bodies := make([]io.ReadCloser, fanoutSockets)
	for i := range clients {
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("stream: HTTP %s", resp.Status)
		}
		bodies[i] = resp.Body
		clients[i] = &socketClient{lags: newLagSamples(int(want.rows)+64, fanoutLagStride),
			marks: [3]int{e.ref.firstAtOrAfter(rangeFrom), e.ref.firstAtOrAfter(rangeTo), e.ref.firstAtOrAfter(replayTo)},
			ten:   newLagSamples(int(want.rows)+64, fanoutLagStride), half: newLagSamples(int(want.rows)+64, fanoutLagStride)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if !waitFor(ctx, func() bool { return q.Broadcaster().Stats().Subscribers == fanoutSockets+fanoutInProcess }) {
		return nil, fmt.Errorf("only %d of %d subscribers attached", q.Broadcaster().Stats().Subscribers, fanoutSockets+fanoutInProcess)
	}
	e.noteSetup(time.Since(ps.began))

	for _, r := range readers {
		wg.Add(1)
		go func() { defer wg.Done(); r.run(e, pub) }()
	}
	for i, c := range clients {
		wg.Add(1)
		go func() { defer wg.Done(); c.run(e, pub, bodies[i]) }()
	}

	mem := startMem()
	pub.run()
	if e.tr != nil {
		e.readScanCounters(sys, ps)
	}
	pub.closed = time.Now()
	sys.hub.Close()
	settled := waitFor(ctx, func() bool { return q.Status().State != server.StateRunning })
	status := q.Status()
	closeErr := srv.Close(ctx) // ends the fan-out stream: handlers flush, sockets reach EOF
	wg.Wait()
	allocBytes := mem.stop()

	var end time.Time
	var deliveries int64
	for _, r := range readers {
		if r.last.After(end) {
			end = r.last
		}
		deliveries += r.settle(ps, want)
	}
	var socketRows, socketBytes int64
	var socketSeconds float64
	var ten, half []*lagSamples
	for i, c := range clients {
		if c.last.After(end) {
			end = c.last
		}
		// A socket delivers text; its rows are checked by count.
		ps.attempted += want.rows + 1
		if d := c.lines - want.rows; d != 0 {
			ps.failed += max(d, -d)
		}
		if c.err != nil {
			ps.failed++ // the connection dropped
		}
		deliveries += c.lines
		ps.lags = append(ps.lags, c.lags)
		socketRows += c.lines
		socketBytes += c.bytes
		socketSeconds += c.last.Sub(pub.start).Seconds()
		ten, half = append(ten, c.ten), append(half, c.half)
		_ = bodies[i].Close() // read to EOF already; nothing left to lose
	}
	// This workload has no table and no tracker; what it can say about a
	// time range is how stale its rows are when a socket client holds them:
	// the replay workload's ten minutes, and its dashboard's half hour.
	ps.rangeMs, _ = quantileMs(ten, 0.5)
	ps.dashMs, _ = quantileMs(half, 0.5)
	ps.wall = end.Sub(pub.start)
	n := float64(len(e.tweets))
	ps.tweetsPerS = n / ps.wall.Seconds()
	ps.deliveriesPerS = float64(deliveries) / ps.wall.Seconds()
	ps.allocPerTweet = float64(allocBytes) / n
	ps.attempted++
	if !settled || closeErr != nil || status.State != server.StateDone || status.Error != "" {
		ps.failed++
	}
	ps.counts["rows.q"] = readers[0].acc.got.rows
	ps.counts["digest.q"] = int64(readers[0].acc.got.digest)
	ps.counts["rows.delivered"] = deliveries
	ps.counts["ndjson_bytes"] = socketBytes

	if e.tr != nil {
		e.tr.attach(fmt.Sprintf("pass%d.%s", pass, fanoutStmt.name), q.Profile().Snapshot())
		pub.noteHub(ps)
		if socketRows > 0 && socketSeconds > 0 {
			ps.layer["server.stream_rows_per_s_per_conn"] = float64(socketRows) / socketSeconds
			ps.layer["server.ndjson_bytes_per_row"] = float64(socketBytes) / float64(socketRows)
		}
		ps.layer["server.sub_dropped"] = float64(status.SubscriberDrop) - ps.layer["catalog.sub_dropped"]
		ps.layer["crossed.catalog.convert_ns_per_tweet"] = float64(status.RowsIn)
		ps.layer["crossed."+fanoutStmt.shape] = float64(status.RowsIn)
		ps.layer["crossed.catalog.fanout_ns_per_delivery"] = float64(deliveries)
	}

	client.CloseIdleConnections()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return nil, err
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if err := sys.eng.Close(); err != nil {
		return nil, err
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	ps.diskPerTweet = float64(onDisk) / n
	return ps, os.RemoveAll(dir)
}

func runServeFanout(e *env) (*result, error) {
	return e.measure("serve_fanout", scaled{rates: true, lags: true}, e.fanoutPass)
}
