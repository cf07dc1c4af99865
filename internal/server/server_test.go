package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/testutil"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// newTestDeployment wires a hub-fed engine (persistent when dataDir is
// set) and a Server over it, the same shape cmd/tweeqld runs.
func newTestDeployment(t *testing.T, dataDir string) (*core.Engine, *twitterapi.Hub, *Server) {
	t.Helper()
	cat := catalog.New()
	hub := twitterapi.NewHub()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
	opts := core.DefaultOptions()
	opts.BatchFlushEvery = 2 * time.Millisecond // snappy delivery for tests
	opts.DataDir = dataDir
	eng := core.NewEngine(cat, opts)
	srv, err := New(eng, Options{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	return eng, hub, srv
}

func mkTweet(id int64, text string, sec int64) *tweet.Tweet {
	return &tweet.Tweet{
		ID: id, UserID: id%7 + 1, Username: fmt.Sprintf("u%d", id%7+1),
		Text: text, CreatedAt: time.Unix(sec, 0).UTC(), Followers: int(id),
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func createQuery(t *testing.T, base, name, sql string) {
	t.Helper()
	resp := postJSON(t, base+"/api/queries", QuerySpec{Name: name, SQL: sql})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("create %s: %d %s", name, resp.StatusCode, buf.String())
	}
}

func getStatus(t *testing.T, base, name string) QueryStatus {
	t.Helper()
	resp, err := http.Get(base + "/api/queries/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st QueryStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	testutil.WaitFor(t, d, cond, what)
}

// sseRows reads n data rows from an SSE stream, then disconnects.
func sseRows(t *testing.T, ctx context.Context, url string, n int) []map[string]any {
	t.Helper()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var rows []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for len(rows) < n && sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var m map[string]any
			if err := json.Unmarshal([]byte(data), &m); err != nil {
				t.Fatalf("bad SSE row %q: %v", data, err)
			}
			rows = append(rows, m)
		}
	}
	return rows
}

// One daemon process serves two concurrent continuous queries with two
// SSE subscribers each; every subscriber of the selective query sees
// exactly the matching rows.
func TestServesTwoQueriesTwoSubscribersEach(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, "")
	defer eng.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())
	defer hub.Close()

	createQuery(t, ts.URL, "goals", `SELECT id, text FROM twitter WHERE text CONTAINS 'goal'`)
	createQuery(t, ts.URL, "firehose", `SELECT id FROM twitter`)

	const goalRows, allRows = 10, 30
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	results := make([][]map[string]any, 4)
	for i, spec := range []struct {
		query string
		n     int
	}{{"goals", goalRows}, {"goals", goalRows}, {"firehose", allRows}, {"firehose", allRows}} {
		wg.Add(1)
		go func(slot int, query string, n int) {
			defer wg.Done()
			results[slot] = sseRows(t, ctx, ts.URL+"/api/queries/"+query+"/stream", n)
		}(i, spec.query, spec.n)
	}

	// Publish only once all four subscribers are attached, so each must
	// see the full matching set.
	waitFor(t, 5*time.Second, "4 subscribers attached", func() bool {
		return getStatus(t, ts.URL, "goals").Subscribers == 2 &&
			getStatus(t, ts.URL, "firehose").Subscribers == 2
	})
	var tweets []*tweet.Tweet
	for i := 0; i < allRows; i++ {
		text := "nothing to see here"
		if i < goalRows {
			text = "what a goal that was"
		}
		tweets = append(tweets, mkTweet(int64(i+1), text, int64(i)))
	}
	hub.PublishBatch(tweets)

	wg.Wait()
	for slot, rows := range results[:2] {
		if len(rows) != goalRows {
			t.Fatalf("goals subscriber %d got %d rows, want %d", slot, len(rows), goalRows)
		}
		for _, m := range rows {
			if !strings.Contains(m["text"].(string), "goal") {
				t.Errorf("goals subscriber got non-matching row %v", m)
			}
		}
	}
	for slot, rows := range results[2:] {
		if len(rows) != allRows {
			t.Fatalf("firehose subscriber %d got %d rows, want %d", slot, len(rows), allRows)
		}
	}

	st := getStatus(t, ts.URL, "goals")
	if st.State != StateRunning || st.RowsOut < goalRows {
		t.Errorf("goals status = %+v", st)
	}
}

// A slow subscriber (tiny ring, drop policy, never reading) loses rows
// and the losses are counted in the query status and /metrics, while a
// fast SSE client concurrently sees every row.
func TestSlowSubscriberDropsAreCounted(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, "")
	defer eng.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())
	defer hub.Close()

	createQuery(t, ts.URL, "all", `SELECT id FROM twitter`)
	q, _ := srv.Registry().Get("all")

	// The slow client: the same Subscription the SSE endpoint wraps,
	// with a 4-row ring it never drains.
	slow := q.Broadcaster().Subscribe(catalog.SubOptions{Buffer: 4, Policy: catalog.DropOldest})
	defer slow.Cancel()

	const n = 200
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fastDone := make(chan []map[string]any, 1)
	go func() { fastDone <- sseRows(t, ctx, ts.URL+"/api/queries/all/stream?buffer=1024&policy=drop", n) }()
	waitFor(t, 5*time.Second, "subscribers attached", func() bool {
		return getStatus(t, ts.URL, "all").Subscribers == 2
	})
	var tweets []*tweet.Tweet
	for i := 0; i < n; i++ {
		tweets = append(tweets, mkTweet(int64(i+1), "row", int64(i)))
	}
	hub.PublishBatch(tweets)

	fast := <-fastDone
	if len(fast) != n {
		t.Fatalf("fast client got %d rows, want %d", len(fast), n)
	}
	seen := make(map[float64]bool)
	for _, m := range fast {
		seen[m["id"].(float64)] = true
	}
	if len(seen) != n {
		t.Fatalf("fast client saw %d distinct rows, want %d", len(seen), n)
	}

	waitFor(t, 5*time.Second, "slow client drops", func() bool {
		return slow.Stats().Dropped > 0
	})
	st := getStatus(t, ts.URL, "all")
	if st.SubscriberDrop == 0 {
		t.Errorf("status.subscriber_dropped = 0, want > 0")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	metrics := buf.String()
	for _, want := range []string{
		`tweeqld_query_rows_out_total{query="all"}`,
		`tweeqld_query_subscriber_dropped_total{query="all"}`,
		`tweeqld_queries{state="running"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Pause stops delivery but keeps subscribers attached; resume restarts
// the cursor; drop ends the stream and forgets the query.
func TestPauseResumeDrop(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, "")
	defer eng.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())
	defer hub.Close()

	createQuery(t, ts.URL, "q", `SELECT id FROM twitter`)
	sub := func(path string) int {
		resp := postJSON(t, ts.URL+"/api/queries/q/"+path, nil)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := sub("pause"); code != http.StatusOK {
		t.Fatalf("pause: %d", code)
	}
	if st := getStatus(t, ts.URL, "q"); st.State != StatePaused {
		t.Fatalf("state after pause = %s", st.State)
	}
	if code := sub("pause"); code != http.StatusConflict {
		t.Fatalf("double pause: %d, want conflict", code)
	}
	if code := sub("resume"); code != http.StatusOK {
		t.Fatalf("resume: %d", code)
	}
	waitFor(t, 5*time.Second, "running after resume", func() bool {
		return getStatus(t, ts.URL, "q").State == StateRunning
	})

	// Rows flow again after resume.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan []map[string]any, 1)
	go func() { done <- sseRows(t, ctx, ts.URL+"/api/queries/q/stream", 3) }()
	waitFor(t, 5*time.Second, "subscriber", func() bool {
		return getStatus(t, ts.URL, "q").Subscribers == 1
	})
	hub.PublishBatch([]*tweet.Tweet{mkTweet(1, "a", 1), mkTweet(2, "b", 2), mkTweet(3, "c", 3)})
	if rows := <-done; len(rows) != 3 {
		t.Fatalf("got %d rows after resume, want 3", len(rows))
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/queries/q", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/api/queries/q"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dropped query still resolves: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// NDJSON format, API validation, and the INTO TABLE stream rejection.
func TestStreamFormatsAndValidation(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, t.TempDir())
	defer eng.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())
	defer hub.Close()

	createQuery(t, ts.URL, "nd", `SELECT id, text, created_at FROM twitter`)
	createQuery(t, ts.URL, "logger", `SELECT * FROM twitter INTO TABLE log1`)

	// INTO TABLE has no live stream to fan out.
	resp, err := http.Get(ts.URL + "/api/queries/logger/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("INTO TABLE stream: %d, want 409", resp.StatusCode)
	}

	// Snapshots serve tables only: the live hub source must be refused,
	// not tailed as a pseudo-table.
	resp, err = http.Get(ts.URL + "/api/tables/twitter/snapshot?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot of stream source: %d, want 409", resp.StatusCode)
	}

	for _, bad := range []string{
		"/api/queries/nd/stream?policy=nope",
		"/api/queries/nd/stream?format=xml",
		"/api/queries/nd/stream?buffer=0",
		"/api/tables/bad..name/snapshot",
		"/api/tables/log1/snapshot?from=yesterday",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", bad, resp.StatusCode)
		}
	}
	badName := postJSON(t, ts.URL+"/api/queries", QuerySpec{Name: "no spaces", SQL: "SELECT id FROM twitter"})
	badName.Body.Close()
	if badName.StatusCode != http.StatusBadRequest {
		t.Errorf("bad name create: %d", badName.StatusCode)
	}
	dup := postJSON(t, ts.URL+"/api/queries", QuerySpec{Name: "nd", SQL: "SELECT id FROM twitter"})
	dup.Body.Close()
	if dup.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: %d, want 409", dup.StatusCode)
	}

	// A live query's wire bytes in both framings, line by line against
	// the oracle over the very tuples the fan-out delivered.
	q, _ := srv.Registry().Get("nd")
	tap := q.Broadcaster().Subscribe(catalog.SubOptions{Buffer: 64, Policy: catalog.Block})
	defer tap.Cancel()
	nd := openStream(t, ts.URL+"/api/queries/nd/stream?format=ndjson", "application/x-ndjson")
	sse := openStream(t, ts.URL+"/api/queries/nd/stream", "text/event-stream")
	wantLines(t, sse, `: stream nd columns=["id","text","created_at"]`, "")
	alerts := openStream(t, ts.URL+"/api/alerts/stream", "text/event-stream")
	wantLines(t, alerts, `: stream $sys.alerts columns=["alert","state","value","created_at"]`, "")
	waitFor(t, 5*time.Second, "stream subscribers", func() bool {
		return getStatus(t, ts.URL, "nd").Subscribers == 3
	})
	tweets := []*tweet.Tweet{
		mkTweet(41, `<b>"goal"</b> & more\`, 1),
		mkTweet(42, "caf\xc3\xa9 \xf0\x9f\x98\x80 \xe2\x80\xa8 \xff\x00", 2),
		mkTweet(43, "", 3),
	}
	tweets[2].CreatedAt = time.Unix(3, 120).In(time.FixedZone("", -5*3600))
	hub.PublishBatch(tweets)
	var rows []value.Tuple
	for len(rows) < len(tweets) {
		burst, err := tap.Recv(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, burst...)
	}
	for _, row := range rows {
		want, err := json.Marshal(rowMap(row))
		if err != nil {
			t.Fatal(err)
		}
		wantLines(t, nd, string(want))
		wantLines(t, sse, "data: "+string(want), "")
	}

	// Dropping the query ends both: SSE says so, NDJSON just ends.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/queries/nd", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantLines(t, sse, "event: end", "data: {}", "")
	for name, r := range map[string]*bufio.Reader{"sse": sse, "ndjson": nd} {
		if rest, err := io.ReadAll(r); err != nil || len(rest) != 0 {
			t.Errorf("%s after the end of the stream: %q, %v", name, rest, err)
		}
	}
}

// openStream GETs a streaming endpoint for the length of the test, or
// 30 s: a read of bytes that never come then fails instead of hanging.
func openStream(t *testing.T, url, contentType string) *bufio.Reader {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	t.Cleanup(cancel)
	req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != contentType {
		t.Fatalf("GET %s: status %d, content type %q", url, resp.StatusCode, ct)
	}
	return bufio.NewReader(resp.Body)
}

// wantLines reads the stream's next lines and compares them exactly.
func wantLines(t *testing.T, r *bufio.Reader, want ...string) {
	t.Helper()
	for _, w := range want {
		got, err := r.ReadString('\n')
		if err != nil || got != w+"\n" {
			t.Fatalf("stream line = %q, %v; want %q", got, err, w+"\n")
		}
	}
}

// The pump's idle behaviour on a short heartbeat: SSE pings while idle,
// before and after rows, and says goodbye; NDJSON stays silent.
func TestPumpHeartbeatAndEnd(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, "")
	defer eng.Close()
	defer srv.Close(context.Background())
	defer hub.Close()
	schema := value.NewSchema(value.Field{Name: "n", Kind: value.KindInt})
	ds := catalog.NewDerivedStream("beat", schema)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.pump(w, r, ds, streamSpec{name: "beat", sse: r.URL.Query().Get("format") != "ndjson",
			heartbeat: 10 * time.Millisecond, sub: catalog.SubOptions{Buffer: 8}})
	}))
	defer ts.Close()

	sse := openStream(t, ts.URL, "text/event-stream")
	nd := openStream(t, ts.URL+"?format=ndjson", "application/x-ndjson")
	waitFor(t, 5*time.Second, "subscribers", func() bool { return ds.Stats().Subscribers == 2 })
	wantLines(t, sse, `: stream beat columns=["n"]`, "")
	// Two pings: the heartbeat re-arms after it fires.
	wantLines(t, sse, ": ping", "", ": ping", "")
	ds.Publish(value.NewTuple(schema, []value.Value{value.Int(1)}, time.Time{}))
	frame := func() string { // the next SSE frame that is not a ping
		for {
			var f string
			for {
				line, err := sse.ReadString('\n')
				if err != nil {
					t.Fatalf("sse: %q then %v", f, err)
				}
				if line == "\n" {
					break
				}
				f += line
			}
			if f != ": ping\n" {
				return f
			}
		}
	}
	if got := frame(); got != "data: {\"n\":1}\n" {
		t.Fatalf("frame after publish = %q", got)
	}
	wantLines(t, sse, ": ping", "") // idle again after a row
	ds.CloseStream()
	if got := frame(); got != "event: end\ndata: {}\n" {
		t.Fatalf("frame after close = %q", got)
	}
	if rest, err := io.ReadAll(sse); err != nil || len(rest) != 0 {
		t.Errorf("sse after end: %q, %v", rest, err)
	}
	if all, err := io.ReadAll(nd); err != nil || string(all) != "{\"n\":1}\n" {
		t.Errorf("ndjson stream = %q, %v; want one row and no pings", all, err)
	}
}

// A non-finite float used to fail json.Marshal: the stream skipped the
// row without a trace and the snapshot answered 200 with an empty body.
// Both now deliver the row with null in the cell, through one encoder.
func TestNonFiniteFloatIsNullNotDropped(t *testing.T) {
	eng, hub, srv := newTestDeployment(t, t.TempDir())
	defer eng.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())
	defer hub.Close()

	// TweeQL has no exponent literals: 1e100, four times over, is +Inf.
	googol := "1" + strings.Repeat("0", 100) + ".0"
	inf := fmt.Sprintf("(followers + 1) * %[1]s * %[1]s * %[1]s * %[1]s AS big", googol)
	createQuery(t, ts.URL, "live", "SELECT id, "+inf+" FROM twitter")
	createQuery(t, ts.URL, "logged", "SELECT id, "+inf+" FROM twitter INTO TABLE inf_log")

	nd := openStream(t, ts.URL+"/api/queries/live/stream?format=ndjson", "application/x-ndjson")
	waitFor(t, 5*time.Second, "subscriber", func() bool { return getStatus(t, ts.URL, "live").Subscribers == 1 })
	hub.PublishBatch([]*tweet.Tweet{mkTweet(1, "a", 1), mkTweet(2, "b", 2)})
	wantLines(t, nd, `{"big":null,"id":1}`, `{"big":null,"id":2}`)

	var body []byte
	var snap snapshotResp
	waitFor(t, 10*time.Second, "both rows in a well-formed snapshot", func() bool {
		resp, err := http.Get(ts.URL + "/api/tables/inf_log/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ = io.ReadAll(resp.Body)
		snap = snapshotResp{}
		return resp.StatusCode == http.StatusOK && json.Unmarshal(body, &snap) == nil && snap.Count == 2
	})
	if len(snap.Rows) != 2 {
		t.Fatalf("snapshot = %s", body)
	}
	for i, row := range snap.Rows {
		if big, ok := row["big"]; !ok || big != nil || row["id"] != float64(i+1) {
			t.Errorf("snapshot row %d = %v, want big null and id %d", i, row, i+1)
		}
	}
}
