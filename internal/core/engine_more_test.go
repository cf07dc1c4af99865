package core

import (
	"context"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/twitterapi"
)

func TestSlidingWindowEndToEnd(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 21, Duration: 10 * time.Minute, BaseRate: 10})
	cur, err := eng.Query(context.Background(),
		`SELECT COUNT(*) AS n FROM twitter WINDOW 2 MINUTES EVERY 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) < 9 {
		t.Fatalf("sliding rows = %d", len(rows))
	}
	// Every window is 2 minutes wide and starts on a 1-minute boundary.
	starts := make(map[time.Time]bool)
	for _, r := range rows {
		ws, _ := r.Get("window_start").TimeVal()
		we, _ := r.Get("window_end").TimeVal()
		if we.Sub(ws) != 2*time.Minute {
			t.Fatalf("window width %v", we.Sub(ws))
		}
		if !ws.Truncate(time.Minute).Equal(ws) {
			t.Fatalf("window start not aligned: %v", ws)
		}
		if starts[ws] {
			t.Fatalf("duplicate window %v", ws)
		}
		starts[ws] = true
	}
	// Adjacent sliding windows overlap: the sum over windows is ≈ 2x the
	// stream (each tweet in 2 windows).
	var total int64
	for _, r := range rows {
		n, _ := r.Get("n").IntVal()
		total += n
	}
	in := cur.Stats().RowsIn.Load()
	if total < in*3/2 || total > in*5/2 {
		t.Errorf("sliding coverage: sum %d vs input %d (want ≈2x)", total, in)
	}
}

func TestCountWindowEndToEnd(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 22, Duration: 5 * time.Minute, BaseRate: 20})
	cur, err := eng.Query(context.Background(),
		"SELECT COUNT(*) AS n FROM twitter WINDOW 500 TWEETS")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) < 2 {
		t.Fatalf("count-window rows = %d", len(rows))
	}
	// Every full batch counts exactly 500; only the final may be short.
	for i, r := range rows[:len(rows)-1] {
		n, _ := r.Get("n").IntVal()
		if n != 500 {
			t.Fatalf("batch %d count = %d", i, n)
		}
	}
	// Confidence + count window is rejected.
	_, err = eng.Query(context.Background(),
		"SELECT AVG(followers) FROM twitter WINDOW 100 TWEETS WITH CONFIDENCE 0.95 WITHIN 1")
	if err == nil {
		t.Error("confidence with count window should error")
	}
	// JOIN + count window is rejected.
	_, err = eng.Query(context.Background(),
		"SELECT a.id FROM twitter AS a JOIN twitter AS b ON a.id = b.id WINDOW 100 TWEETS")
	if err == nil {
		t.Error("join with count window should error")
	}
}

func TestRegexQueriesEndToEnd(t *testing.T) {
	cfg := firehose.SoccerMatch(31)
	cfg.Duration = 100 * time.Minute // includes goal-1 ("1-0")
	eng, replay := testEngine(t, cfg)
	cur, err := eng.Query(context.Background(),
		`SELECT regex_extract(text, '[0-9]+-[0-9]+') AS score, text
		 FROM twitter
		 WHERE text MATCHES '[0-9]+-[0-9]+'
		 LIMIT 20`)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) == 0 {
		t.Fatal("no score rows")
	}
	for _, r := range rows {
		if r.Get("score").IsNull() {
			t.Fatalf("MATCHES row with NULL extraction: %s", r)
		}
	}
}

func TestAsyncDisabledStillCorrect(t *testing.T) {
	// AsyncWorkers=0 forces the synchronous projection path even for
	// high-latency UDFs; results must be identical.
	lts := firehose.New(firehose.Config{Seed: 12, Duration: 2 * time.Minute, BaseRate: 10}).Generate()
	tweets := firehose.Tweets(lts)

	runWith := func(asyncWorkers int) []string {
		hub := twitterapi.NewHub()
		cat := catalog.New()
		cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
		svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(time.Duration) {}})
		if err := RegisterStandardUDFs(cat, Deps{Geocoder: geocode.NewCachedClient(svc, 1000, 0)}); err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.AsyncWorkers = asyncWorkers
		opts.SourceBuffer = len(tweets) + 16
		eng := NewEngine(cat, opts)
		cur, err := eng.Query(context.Background(),
			"SELECT latitude(loc) AS la, username FROM twitter")
		if err != nil {
			t.Fatal(err)
		}
		twitterapi.Replay(hub, tweets)
		var out []string
		for r := range cur.Rows() {
			out = append(out, r.String())
		}
		return out
	}
	sync := runWith(0)
	async := runWith(8)
	if len(sync) == 0 || len(sync) != len(async) {
		t.Fatalf("row counts differ: %d vs %d", len(sync), len(async))
	}
	for i := range sync {
		if sync[i] != async[i] {
			t.Fatalf("row %d differs:\n sync  %s\n async %s", i, sync[i], async[i])
		}
	}
}

func TestWindowMetadataTimestamps(t *testing.T) {
	// Aggregate row event time equals the window end, so downstream
	// windowed consumers (derived streams) re-window correctly.
	eng, replay := testEngine(t, firehose.Config{Seed: 15, Duration: 4 * time.Minute, BaseRate: 10})
	cur, err := eng.Query(context.Background(),
		"SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	for _, r := range drainCursor(t, cur) {
		we, _ := r.Get("window_end").TimeVal()
		if !r.TS.Equal(we) {
			t.Fatalf("row TS %v != window_end %v", r.TS, we)
		}
	}
}

func TestUnknownUDFQueryFailsFastOnProjection(t *testing.T) {
	// Errors in projection are per-row (streams survive), but the rows
	// drop and the error is recorded.
	eng, replay := testEngine(t, firehose.Config{Seed: 16, Duration: time.Minute, BaseRate: 5})
	cur, err := eng.Query(context.Background(), "SELECT nosuchfn(text) FROM twitter")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	rows := drainCursor(t, cur)
	if len(rows) != 0 {
		t.Errorf("error rows leaked: %d", len(rows))
	}
	if cur.Stats().Err() == nil || cur.Stats().EvalErrors.Load() == 0 {
		t.Error("evaluation errors not recorded")
	}
}
