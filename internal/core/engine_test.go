package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/testutil"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// testEngine wires a full engine over a synthetic stream. It returns
// the engine and a replay function: issue queries first (so their
// connections exist), then call replay to publish the whole stream and
// close the hub. Connection buffers are sized to the stream, so replay
// is lossless and tests are deterministic.
func testEngine(t *testing.T, cfg firehose.Config) (*Engine, func()) {
	t.Helper()
	lts := firehose.New(cfg).Generate()
	tweets := firehose.Tweets(lts)

	hub := twitterapi.NewHub()
	// Selectivity sample: the stream's own prefix.
	sampleN := len(tweets) / 10
	if sampleN > 2000 {
		sampleN = 2000
	}
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, tweets[:sampleN]))
	svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(time.Duration) {}})
	err := RegisterStandardUDFs(cat, Deps{Geocoder: geocode.NewCachedClient(svc, 10000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SourceBuffer = len(tweets) + 16
	eng := NewEngine(cat, opts)
	t.Cleanup(func() { hub.Close() })
	var once sync.Once
	replay := func() {
		once.Do(func() { twitterapi.Replay(hub, tweets) })
	}
	return eng, replay
}

func drainCursor(t *testing.T, cur *Cursor) []value.Tuple {
	t.Helper()
	var out []value.Tuple
	for row := range cur.Rows() {
		out = append(out, row)
	}
	return out
}

func TestSimpleProjection(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 10})
	cur, err := eng.Query(context.Background(), "SELECT text, username FROM twitter")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if cur.Schema().Len() != 2 {
		t.Errorf("schema = %s", cur.Schema())
	}
	for _, r := range rows {
		if r.Get("text").IsNull() || r.Get("username").IsNull() {
			t.Fatalf("bad row %s", r)
		}
	}
	if cur.Stats().RowsIn.Load() == 0 || cur.Stats().RowsOut.Load() != int64(len(rows)) {
		t.Errorf("stats: in=%d out=%d", cur.Stats().RowsIn.Load(), cur.Stats().RowsOut.Load())
	}
}

func TestPaperQuery1EndToEnd(t *testing.T) {
	// SELECT sentiment(text), latitude(loc), longitude(loc) FROM twitter
	// WHERE text contains 'obama' — the paper's first example.
	cfg := firehose.ObamaMonth(7)
	cfg.Duration = 6 * time.Hour
	eng, replay := testEngine(t, cfg)
	cur, err := eng.Query(context.Background(),
		`SELECT sentiment(text) AS s, latitude(loc) AS la, longitude(loc) AS lo, text
		 FROM twitter WHERE text contains 'obama'`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) == 0 {
		t.Fatal("no obama rows")
	}
	geocoded := 0
	for _, r := range rows {
		txt, _ := r.Get("text").StringVal()
		if !tweet.ContainsWord(txt, "obama") {
			t.Fatalf("non-matching row leaked: %q", txt)
		}
		s := r.Get("s")
		if !s.IsNull() {
			f, _ := s.FloatVal()
			if f < -1 || f > 1 {
				t.Fatalf("sentiment out of range: %v", f)
			}
		}
		if !r.Get("la").IsNull() {
			geocoded++
			if r.Get("lo").IsNull() {
				t.Fatal("lat without lon")
			}
		}
	}
	// Most users have geocodable profile locations (80% by default).
	if frac := float64(geocoded) / float64(len(rows)); frac < 0.5 {
		t.Errorf("geocoded fraction = %v", frac)
	}
	// The keyword candidate must have been pushed to the API.
	if !cur.Info().Pushed || len(cur.Info().Chosen.Track) == 0 {
		t.Errorf("pushdown info = %+v", cur.Info())
	}
}

func TestPushdownPicksLowestSelectivity(t *testing.T) {
	// Generate a stream where 'obama' matches far more than the NYC box;
	// the paper's policy must push the box.
	cfg := firehose.ObamaMonth(3)
	cfg.Duration = 3 * time.Hour
	cfg.GeoTagProb = 0.1
	eng, replay := testEngine(t, cfg)
	cur, err := eng.Query(context.Background(),
		`SELECT text FROM twitter
		 WHERE text contains 'obama' AND location IN [BOUNDING BOX FOR nyc]`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	info := cur.Info()
	if !info.Pushed {
		t.Fatal("nothing pushed")
	}
	if len(info.Chosen.Locations) == 0 {
		t.Errorf("chose %s, want the location filter", info.Chosen)
	}
	if len(info.Estimates) != 2 {
		t.Fatalf("estimates = %v", info.Estimates)
	}
	// Both conjuncts still hold on every output row.
	for _, r := range rows {
		txt, _ := r.Get("text").StringVal()
		if !tweet.ContainsWord(txt, "obama") {
			t.Fatalf("row fails residual keyword filter: %q", txt)
		}
	}
}

func TestPaperQuery3Aggregation(t *testing.T) {
	// The uneven-groups query: AVG sentiment per 1°x1° cell.
	cfg := firehose.ObamaMonth(5)
	cfg.Duration = 12 * time.Hour
	eng, replay := testEngine(t, cfg)
	cur, err := eng.Query(context.Background(),
		`SELECT AVG(sentiment(text)) AS avg_sent,
		        floor(latitude(loc)) AS lat,
		        floor(longitude(loc)) AS long
		 FROM twitter
		 WHERE text contains 'obama'
		 GROUP BY lat, long
		 WINDOW 3 HOURS`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) == 0 {
		t.Fatal("no aggregate rows")
	}
	cells := make(map[string]bool)
	for _, r := range rows {
		if !r.Get("avg_sent").IsNull() {
			v, _ := r.Get("avg_sent").FloatVal()
			if v < -1 || v > 1 {
				t.Fatalf("avg sentiment %v out of range", v)
			}
		}
		cells[r.Get("lat").String()+","+r.Get("long").String()] = true
		ws, err1 := r.Get("window_start").TimeVal()
		we, err2 := r.Get("window_end").TimeVal()
		if err1 != nil || err2 != nil || !we.After(ws) {
			t.Fatalf("bad window bounds on %s", r)
		}
		if we.Sub(ws) != 3*time.Hour {
			t.Fatalf("window size = %v", we.Sub(ws))
		}
	}
	// Users span many cities, so multiple geographic cells appear
	// (including the NULL,NULL cell for junk locations).
	if len(cells) < 10 {
		t.Errorf("distinct cells = %d", len(cells))
	}
}

func TestConfidenceClauseEndToEnd(t *testing.T) {
	cfg := firehose.Config{Seed: 2, Duration: 30 * time.Minute, BaseRate: 40, SentimentProb: 0.9}
	eng, replay := testEngine(t, cfg)
	cur, err := eng.Query(context.Background(),
		`SELECT AVG(sentiment(text)) AS s, COUNT(*) AS n
		 FROM twitter
		 GROUP BY has_geo
		 WINDOW 30 MINUTES
		 WITH CONFIDENCE 0.95 WITHIN 0.05`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	sawEarly := false
	for _, r := range rows {
		if !r.Has("early") {
			t.Fatal("confidence query missing early column")
		}
		if e, err := r.Get("early").BoolVal(); err == nil && e {
			sawEarly = true
		}
	}
	if !sawEarly {
		t.Error("dense stream never met the confidence bar")
	}
}

func TestCountWindowTimeline(t *testing.T) {
	// COUNT(*) per minute — the TwitInfo timeline query.
	eng, replay := testEngine(t, firehose.Config{Seed: 4, Duration: 10 * time.Minute, BaseRate: 20})
	cur, err := eng.Query(context.Background(),
		`SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) < 9 || len(rows) > 11 {
		t.Fatalf("timeline rows = %d, want ≈10", len(rows))
	}
	var total int64
	for _, r := range rows {
		n, _ := r.Get("n").IntVal()
		total += n
	}
	if total != cur.Stats().RowsIn.Load() {
		t.Errorf("counted %d != input %d", total, cur.Stats().RowsIn.Load())
	}
}

func TestLimitQuery(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 30})
	cur, err := eng.Query(context.Background(), "SELECT text FROM twitter LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) != 5 {
		t.Errorf("limit rows = %d", len(rows))
	}
}

func TestIntoTable(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 10})
	cur, err := eng.Query(context.Background(),
		"SELECT text FROM twitter LIMIT 10 INTO TABLE results")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	// Cursor is empty for INTO queries.
	if rows := drainCursor(t, cur); len(rows) != 0 {
		t.Errorf("INTO cursor rows = %d", len(rows))
	}
	if !cur.Routed() {
		t.Error("INTO TABLE cursor should report Routed")
	}
	// Drained is the sync hook: once it closes, the table holds every
	// routed row — no polling.
	select {
	case <-cur.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("Drained did not close")
	}
	table := eng.Catalog().Table("results")
	if table.Len() != 10 {
		t.Fatalf("table rows = %d after drain", table.Len())
	}
	if got := table.Rows()[0]; got.Get("text").IsNull() {
		t.Errorf("bad table row: %s", got)
	}
	if err := cur.Stats().Err(); err != nil {
		t.Errorf("routing error: %v", err)
	}
}

func TestIntoStreamComposition(t *testing.T) {
	// Query 1 feeds a derived stream; query 2 reads from it — stream
	// composition, the INTO STREAM feature of the original TweeQL.
	eng, replay := testEngine(t, firehose.Config{Seed: 8, Duration: 2 * time.Minute, BaseRate: 20})
	_, err := eng.Query(context.Background(),
		"SELECT text, followers FROM twitter INTO STREAM loud")
	if err != nil {
		t.Fatal(err)
	}
	// INTO STREAM registers the derived stream asynchronously; poll
	// rather than sleep so the test cannot flake under load.
	var cur2 *Cursor
	testutil.WaitFor(t, 10*time.Second, func() bool {
		cur2, err = eng.Query(context.Background(),
			"SELECT text FROM loud WHERE followers > 10 LIMIT 3")
		return err == nil
	}, "derived stream to register")
	go replay()
	done := make(chan []value.Tuple, 1)
	go func() { done <- drainCursorQuiet(cur2) }()
	select {
	case rows := <-done:
		if len(rows) > 3 {
			t.Errorf("derived rows = %d", len(rows))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("derived query did not finish")
	}
}

func drainCursorQuiet(cur *Cursor) []value.Tuple {
	var out []value.Tuple
	for row := range cur.Rows() {
		out = append(out, row)
	}
	return out
}

func TestStopCancelsQuery(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 1, Duration: 5 * time.Minute, BaseRate: 50})
	cur, err := eng.Query(context.Background(), "SELECT text FROM twitter")
	if err != nil {
		t.Fatal(err)
	}
	go replay()
	first, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for range cur.Rows() {
			if n++; n == 1 {
				close(first)
			}
		}
	}()
	<-first
	cur.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("rows did not end after Stop")
	}
}

func TestExplain(t *testing.T) {
	eng, _ := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 5})
	out, err := eng.Explain(
		`SELECT COUNT(*) FROM twitter WHERE text CONTAINS 'obama' AND followers > 10 WINDOW 1 HOURS`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pushdown candidates (1)", "track[obama]", "aggregate"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

// TestExplainJoinSharing: a self-join on a live source reads it through
// the shared scan of the bare source, one reference for both sides, and
// EXPLAIN says so.
func TestExplainJoinSharing(t *testing.T) {
	eng, _ := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 5})
	const join = `SELECT a.text FROM twitter AS a JOIN twitter AS b ON a.id = b.id WINDOW 1 MINUTE`
	line := func(sql, prefix string) string {
		t.Helper()
		out, err := eng.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(l, prefix); ok {
				return rest
			}
		}
		t.Fatalf("no %q line:\n%s", prefix, out)
		return ""
	}
	sharing := func(sql string) string { return line(sql, "shared scan: ") }
	if got := line(join, "scan signature: "); got != "src=twitter" {
		t.Errorf("join scan signature: %q", got)
	}
	if got := sharing(join); got != "on (would open the shared scan)" {
		t.Errorf("join before any scan: %q", got)
	}
	plain, err := eng.Query(context.Background(), "SELECT text FROM twitter")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Stop()
	if got := sharing(join); got != "on (would join live scan serving 1 queries)" {
		t.Errorf("join beside a full-stream query: %q", got)
	}
	cur, err := eng.Query(context.Background(), join)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Stop()
	if !cur.ScanShared() {
		t.Error("join did not attach to the shared scan")
	}
	if got := sharing("SELECT id FROM twitter"); got != "on (would join live scan serving 2 queries)" {
		t.Errorf("full-stream query beside a join: %q", got)
	}
}

// TestExplainPipeline pins EXPLAIN's pipeline= line to the shape
// openSingle/openJoin actually build, not to engine defaults: an async
// UDF projection leaves the columnar path, a stateful UDF stays on it
// (its stage runs row-major).
func TestExplainPipeline(t *testing.T) {
	eng, _ := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 5})
	registerRunningN(t, eng)
	for sql, want := range map[string]string{
		`SELECT text FROM twitter WHERE followers > 10`:                                    "pipeline=columnar\n",
		`SELECT running_n(text) AS n FROM twitter`:                                         "pipeline=columnar\n",
		`SELECT latitude(loc) FROM twitter`:                                                "pipeline=async\n",
		`SELECT a.text FROM twitter AS a JOIN twitter AS b ON a.id = b.id WINDOW 1 MINUTE`: "pipeline=join\n",
	} {
		out, err := eng.Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("%s: explain missing %q:\n%s", sql, want, out)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	eng, _ := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 5})
	bad := map[string]string{
		"SELECT text FROM nosuchstream":                                    "unknown stream",
		"SELECT text FROM twitter WINDOW 1 MINUTE":                         "WINDOW requires",
		"SELECT text FROM twitter WITH CONFIDENCE 0.9":                     "CONFIDENCE requires",
		"SELECT COUNT(*), text FROM twitter":                               "GROUP BY",
		"SELECT floor(COUNT(*)) FROM twitter":                              "top of a select item",
		"SELECT text FROM twitter WHERE COUNT(*) > 1":                      "not allowed in WHERE",
		"SELECT * FROM twitter GROUP BY text":                              "not allowed",
		"SELECT COUNT(text, loc) FROM twitter":                             "exactly one argument",
		"SELECT a.text FROM twitter AS a JOIN twitter AS b ON a.id = b.id": "WINDOW",
	}
	for q, wantSub := range bad {
		_, err := eng.Query(context.Background(), q)
		if err == nil {
			t.Errorf("%s: expected error", q)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: err %q missing %q", q, err, wantSub)
		}
	}
}

func TestOrOfContainsPushdown(t *testing.T) {
	cfg := firehose.SoccerMatch(2)
	cfg.Duration = 10 * time.Minute
	eng, replay := testEngine(t, cfg)
	cur, err := eng.Query(context.Background(),
		`SELECT text FROM twitter
		 WHERE text CONTAINS 'soccer' OR text CONTAINS 'manchester' OR text CONTAINS 'liverpool'
		 LIMIT 20`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	info := cur.Info()
	if !info.Pushed || len(info.Chosen.Track) != 3 {
		t.Errorf("OR-of-contains pushdown: %+v", info)
	}
	for _, r := range rows {
		txt, _ := r.Get("text").StringVal()
		if !tweet.ContainsWord(txt, "soccer") && !tweet.ContainsWord(txt, "manchester") && !tweet.ContainsWord(txt, "liverpool") {
			t.Fatalf("row matches no keyword: %q", txt)
		}
	}
}

func TestFollowPushdown(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 1, Duration: 2 * time.Minute, BaseRate: 30})
	cur, err := eng.Query(context.Background(),
		"SELECT username FROM twitter WHERE user_id IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if !cur.Info().Pushed || len(cur.Info().Chosen.Follow) != 3 {
		t.Errorf("follow pushdown: %+v", cur.Info())
	}
	for _, r := range rows {
		u, _ := r.Get("username").StringVal()
		if u != "user1" && u != "user2" && u != "user3" {
			t.Fatalf("wrong user leaked: %s", u)
		}
	}
}

func TestStreamJoin(t *testing.T) {
	// Self-join the stream on username within a window: every tweet
	// joins at least with itself.
	eng, replay := testEngine(t, firehose.Config{Seed: 9, Duration: time.Minute, BaseRate: 10})
	cur, err := eng.Query(context.Background(),
		`SELECT a.username, b.text FROM twitter AS a JOIN twitter AS b ON a.username = b.username
		 WINDOW 1 MINUTE LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) == 0 {
		t.Fatal("join produced nothing")
	}
	for _, r := range rows {
		if r.Get("username").IsNull() || r.Get("text").IsNull() {
			t.Fatalf("bad join row: %s", r)
		}
	}
}
