package twitinfo_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tweeql"
	"tweeql/internal/catalog"
	"tweeql/internal/obs"
	"tweeql/internal/testutil"
	"tweeql/twitinfo"
)

func TestTrackQueryEndToEnd(t *testing.T) {
	// The full paper architecture: TwitInfo defines an event, TweeQL
	// serves the keyword query over the streaming API, the tracker
	// builds the dashboard.
	eng, stream, err := tweeql.NewSimulated(tweeql.SimConfig{Scenario: "soccer", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tr := twitinfo.NewTracker(twitinfo.EventConfig{
		Name:     "Soccer: Manchester City vs Liverpool",
		Keywords: []string{"soccer", "football", "premierleague", "manchester", "liverpool"},
	})
	tk, err := twitinfo.StartTracking(context.Background(), eng, tr)
	if err != nil {
		t.Fatal(err)
	}
	stream.Replay()
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if tr.Ingested() == 0 {
		t.Fatal("tracker ingested nothing")
	}
	d := tr.Dashboard(twitinfo.DashboardOptions{})
	if len(d.Peaks) < 3 {
		t.Errorf("peaks = %d, want the goals detected", len(d.Peaks))
	}
	// The flags render TwitInfo-style.
	if d.Peaks[0].Flag() != "A" {
		t.Errorf("first flag = %q", d.Peaks[0].Flag())
	}
}

func TestStoreAndHandler(t *testing.T) {
	store := twitinfo.NewStore()
	_, err := store.Create(twitinfo.EventConfig{Name: "quakes", Keywords: []string{"earthquake", "quake", "tremor"}})
	if err != nil {
		t.Fatal(err)
	}
	// A two-hour slice of the earthquake day keeps the test fast.
	_, stream, err := tweeql.NewSimulated(tweeql.SimConfig{Scenario: "earthquakes", Seed: 2, Duration: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range stream.Tweets() {
		store.Ingest(tw)
	}
	store.FinishAll()

	srv := httptest.NewServer(twitinfo.Handler(store, twitinfo.DashboardOptions{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/event/quakes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestPeakDetectUDFPublic(t *testing.T) {
	// Register the §3.2 stateful UDF and run it over a windowed COUNT(*)
	// query: SELECT peak_detect(window_end, n) over the soccer stream.
	eng, stream, err := tweeql.NewSimulated(tweeql.SimConfig{Scenario: "soccer", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterStatefulUDF("peak_detect", twitinfo.PeakDetectUDF(twitinfo.PeakConfig{Bin: time.Minute})); err != nil {
		t.Fatal(err)
	}
	// Two-stage composition: windowed counts into a derived stream, then
	// the stateful UDF over that stream.
	_, err = eng.Query(context.Background(),
		"SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE INTO STREAM counts")
	if err != nil {
		t.Fatal(err)
	}
	// INTO STREAM registers the derived stream before Query returns;
	// poll (rather than sleep a fixed time) in case that ever becomes
	// asynchronous, so the test cannot flake on a loaded machine.
	var cur *tweeql.Cursor
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	testutil.WaitFor(t, 10*time.Second, func() bool {
		cur, err = eng.Query(ctx,
			"SELECT peak_detect(window_end, n) AS flag, n FROM counts")
		return err == nil
	}, "derived counts stream to register")
	go stream.Replay()
	flags := map[string]bool{}
	for row := range cur.Rows() {
		if f, err := row.Get("flag").StringVal(); err == nil {
			flags[f] = true
		}
	}
	if ctx.Err() != nil {
		t.Fatal("query did not finish")
	}
	if len(flags) == 0 {
		t.Error("no peaks flagged by the stateful UDF")
	}
	if !flags["A"] {
		t.Errorf("first peak flag missing: %v", flags)
	}
}

func TestHistoricalReplayFromPersistentTable(t *testing.T) {
	// The full durable pipeline: log the stream INTO TABLE with a data
	// dir, shut the engine down, then rebuild the event dashboard from
	// disk in a fresh engine — TwitInfo timeline replay over logged
	// tweets, no re-crawl.
	dir := t.TempDir()
	opts := tweeql.DefaultOptions()
	opts.DataDir = dir
	eng, stream, err := tweeql.NewSimulated(tweeql.SimConfig{Scenario: "soccer", Seed: 6, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := eng.Query(context.Background(), "SELECT * FROM twitter INTO TABLE tweets_log")
	if err != nil {
		t.Fatal(err)
	}
	stream.Replay()
	select {
	case <-cur.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("logging did not drain")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh engine over the same data dir (empty scenario: nothing
	// live to stream; the logged table is the only source of tweets).
	opts2 := tweeql.DefaultOptions()
	opts2.DataDir = dir
	eng2, _, err := tweeql.NewSimulated(tweeql.SimConfig{Options: &opts2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	tr := twitinfo.NewTracker(twitinfo.EventConfig{
		Name:     "Soccer replay",
		Keywords: []string{"soccer", "football", "premierleague", "manchester", "liverpool"},
	})
	if err := twitinfo.ReplayEvent(context.Background(), eng2, tr, "tweets_log", time.Time{}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if tr.Ingested() == 0 {
		t.Fatal("replay ingested nothing")
	}
	d := tr.Dashboard(twitinfo.DashboardOptions{})
	if len(d.Peaks) < 3 {
		t.Errorf("replayed dashboard peaks = %d, want the goals detected", len(d.Peaks))
	}

	// A time-bounded replay (second half only) sees strictly fewer
	// tweets but still a dashboard.
	first := stream.Tweets()[0].CreatedAt
	last := stream.Tweets()[len(stream.Tweets())-1].CreatedAt
	mid := first.Add(last.Sub(first) / 2)
	tr2 := twitinfo.NewTracker(twitinfo.EventConfig{
		Name:     "Soccer second half",
		Keywords: []string{"soccer", "football", "premierleague", "manchester", "liverpool"},
	})
	if err := twitinfo.ReplayEvent(context.Background(), eng2, tr2, "tweets_log", mid, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if tr2.Ingested() == 0 || tr2.Ingested() >= tr.Ingested() {
		t.Errorf("bounded replay ingested %d of %d", tr2.Ingested(), tr.Ingested())
	}
}

func TestSentimentLabelsExported(t *testing.T) {
	if twitinfo.Positive.String() != "positive" || twitinfo.Negative.String() != "negative" || twitinfo.Neutral.String() != "neutral" {
		t.Error("label exports wrong")
	}
}

func TestEscapedKeywords(t *testing.T) {
	eng, stream, err := tweeql.NewSimulated(tweeql.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := twitinfo.NewTracker(twitinfo.EventConfig{Name: "q", Keywords: []string{"it's"}})
	// StartTracking returns once the streaming connection is
	// established, so closing the stream afterwards cannot race the
	// subscription — no sleep needed.
	tk, err := twitinfo.StartTracking(context.Background(), eng, tr)
	if err != nil {
		t.Fatalf("track with quoted keyword: %v", err)
	}
	stream.Close()
	if err := tk.Wait(); err != nil && !strings.Contains(err.Error(), "context") {
		t.Errorf("track with quoted keyword: %v", err)
	}
}

// TestOpsEventTracksSysMetrics pins the tweeqld ops-dashboard wiring:
// Store.Create must accept a keyword-less metric event (the daemon
// died at startup when validation demanded keywords), and
// StartOpsTracking must feed $sys.metrics rows for the chosen series
// into the tracker as value-weighted timeline points.
func TestOpsEventTracksSysMetrics(t *testing.T) {
	opts := tweeql.DefaultOptions()
	opts.SysStreams = true
	eng, _, err := tweeql.NewSimulated(tweeql.SimConfig{Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	store := twitinfo.NewStore()
	tr, err := store.Create(twitinfo.OpsEventConfig("output_lag_p99", 250*time.Millisecond))
	if err != nil {
		t.Fatalf("ops event rejected: %v", err)
	}
	tk, err := twitinfo.StartOpsTracking(context.Background(), eng, tr, "output_lag_p99")
	if err != nil {
		t.Fatal(err)
	}
	// StartOpsTracking returns once the tracking query's subscription is
	// established (same guarantee StartTracking gives), so rows published
	// now are buffered for it; CloseStream delivers the buffer before
	// end-of-stream, and Wait synchronizes with the ingest goroutine —
	// the tracker itself is single-goroutine by contract, so all reads
	// happen after Wait.
	mstream, _ := eng.Core().Catalog().SysStreams()
	catalog.PublishMetrics(mstream, []obs.Metric{
		{Name: "output_lag_p99", Labels: `query="scored"`, Value: 0.25, At: time.Now().UTC()},
		{Name: "scan_rows_in", Labels: `scan="x"`, Value: 10, At: time.Now().UTC()},
	})
	mstream.CloseStream()
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	// The off-series scan_rows_in sample must be filtered out by the
	// tracking query's WHERE.
	if got := tr.Ingested(); got != 1 {
		t.Fatalf("ingested %d metric samples, want 1", got)
	}
	if len(tr.Tweets()) == 0 || tr.Tweets()[0].Username != "tweeqld" {
		t.Errorf("metric samples not stored as timeline points: %+v", tr.Tweets())
	}
}

// TestDashboardReadsDuringLiveIngest is tweeqld's arrangement: the
// tracker is fed by StartTracking's goroutine while dashboard requests
// read it. Run under -race it fails on any tracker state a read method
// touches outside the tracker's lock.
func TestDashboardReadsDuringLiveIngest(t *testing.T) {
	eng, stream, err := tweeql.NewSimulated(tweeql.SimConfig{Scenario: "soccer", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	store := twitinfo.NewStore()
	tr, err := store.Create(twitinfo.CannedEvents()[0].Event)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := twitinfo.StartTracking(context.Background(), eng, tr)
	if err != nil {
		t.Fatal(err)
	}
	ingested := make(chan error, 1)
	go func() {
		stream.Replay()
		ingested <- tk.Wait()
	}()

	// A writer takes the tracker's lock once per tweet and so waits out
	// whichever read is in flight: reading in a tight loop would pace
	// ingest at one tweet per dashboard. Read once per 2000 tweets.
	reads, lastIngested := 0, int64(0)
	for done := false; !done; reads++ {
		for waiting := true; waiting; {
			select {
			case err := <-ingested:
				if err != nil {
					t.Fatal(err)
				}
				done, waiting = true, false // one more pass, over the finished event
			default:
				waiting = tr.Ingested() < lastIngested+2000
				runtime.Gosched()
			}
		}
		err := store.WithTracker(tr.Config().Name, func(tr *twitinfo.Tracker) error {
			d := tr.Dashboard(twitinfo.DashboardOptions{})
			if d.Ingested < lastIngested || d.Ingested != d.Pie.Positive+d.Pie.Negative+d.Pie.Neutral {
				t.Errorf("dashboard is not one snapshot: ingested %d (was %d), pie %+v", d.Ingested, lastIngested, d.Pie)
			}
			lastIngested = d.Ingested
			for _, p := range d.Peaks {
				if _, err := tr.PeakDashboard(p.ID, twitinfo.DashboardOptions{}); err != nil {
					return err
				}
			}
			tr.SearchPeaks("goal", 5)
			_ = tr.String()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if lastIngested == 0 || lastIngested != tr.Ingested() || int(lastIngested) != len(tr.Tweets()) {
		t.Errorf("last dashboard saw %d tweets; tracker ingested %d, stored %d", lastIngested, tr.Ingested(), len(tr.Tweets()))
	}
	t.Logf("%d dashboard passes while %d tweets were ingested", reads, lastIngested)
}
