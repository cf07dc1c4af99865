package core

import (
	"context"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/testutil"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
)

// replayEngine is an engine reading "twitter" from a hub whose
// connections are sized to the whole stream, as replays size them, so
// every batched scan's connection is no-loss and the hub waits for it.
func replayEngine(t *testing.T, batchSize int, abl ablation) (*Engine, *twitterapi.Hub, []*tweet.Tweet) {
	t.Helper()
	tweets := firehose.Tweets(firehose.New(firehose.Config{Seed: 7, Duration: 5 * time.Minute, BaseRate: 20}).Generate())
	hub := twitterapi.NewHub()
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
	opts := DefaultOptions()
	opts.SourceBuffer = len(tweets) + 16
	opts.BatchSize = batchSize
	t.Cleanup(hub.Close)
	return newEngine(cat, opts, abl), hub, tweets
}

// replayWithin runs a synchronous replay, failing the test instead of
// hanging if the publisher never gets past a parked wait.
func replayWithin(t *testing.T, hub *twitterapi.Hub, tweets []*tweet.Tweet) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		twitterapi.Replay(hub, tweets)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("replay never finished: the publisher stayed parked")
	}
}

// TestReplayPastUnreadLimitQuery: a LIMIT query nobody reads until the
// synchronous replay returned, at one-row and 64-row batches. The
// replay must finish without it; its cut then detaches the scan
// mid-stream, and the connection's Close must release a publisher
// parked on it; the reader gets exactly the limit.
func TestReplayPastUnreadLimitQuery(t *testing.T) {
	for _, bs := range []int{1, 64} {
		eng, hub, tweets := replayEngine(t, bs, ablation{})
		cur, err := eng.Query(context.Background(), "SELECT text FROM twitter LIMIT 7")
		if err != nil {
			t.Fatal(err)
		}
		replayWithin(t, hub, tweets)
		n := 0
		for range cur.Rows() {
			n++
		}
		if n != 7 {
			t.Errorf("batch size %d: %d rows, want 7", bs, n)
		}
	}
}

// TestStopReleasesParkedPublisher: a query on a private scan that
// nobody reads backs its pipeline up to the hub, and the publisher
// parks on its full connection; Stop closes the connection and lets
// the replay finish.
func TestStopReleasesParkedPublisher(t *testing.T) {
	eng, hub, tweets := replayEngine(t, 64, ablation{PrivateScans: true})
	cur, err := eng.Query(context.Background(), "SELECT text, username FROM twitter")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		twitterapi.Replay(hub, tweets)
	}()
	testutil.WaitFor(t, 10*time.Second, func() bool {
		waits, _ := hub.WaitStats()
		return waits > 0
	}, "the publisher to park on the unread query")
	select {
	case <-done:
		t.Fatal("the replay finished with the query unread: nothing held the publisher back")
	default:
	}
	cur.Stop()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop did not release the parked publisher")
	}
	for range cur.Rows() {
	}
}
