package twitterapi

import (
	"testing"
	"time"

	"tweeql/internal/testutil"
	"tweeql/internal/tweet"
)

// stream returns n matching tweets.
func stream(n int) []*tweet.Tweet {
	ts := make([]*tweet.Tweet, n)
	for i := range ts {
		ts[i] = mkTweet(int64(i), "x")
	}
	return ts
}

// parkedOn reports whether a publisher is parked on c.
func parkedOn(c *Connection) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiters > 0
}

// parkPublisher connects an unread no-loss connection with watermark w
// and publishes n > w tweets in the background until the publisher
// parks; the returned channel closes when PublishBatch returns.
func parkPublisher(t *testing.T, h *Hub, w, n int) (*Connection, <-chan struct{}) {
	t.Helper()
	conn, err := h.Connect(Filter{Track: []string{"x"}}, WithBuffer(n+1), WithWatermark(w))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.PublishBatch(stream(n))
	}()
	testutil.WaitFor(t, 10*time.Second, func() bool { return parkedOn(conn) }, "the publisher to park")
	if got := conn.Stats().Delivered; got != int64(w) {
		t.Fatalf("parked with %d tweets queued, want the watermark %d", got, w)
	}
	return conn, done
}

func waitReleased(t *testing.T, done <-chan struct{}, by string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not release the parked publisher", by)
	}
}

func TestParkedPublisherReleasedByConnectionClose(t *testing.T) {
	h := NewHub()
	defer h.Close()
	other, err := h.Connect(Filter{Track: []string{"x"}}, WithBuffer(100))
	if err != nil {
		t.Fatal(err)
	}
	conn, done := parkPublisher(t, h, 8, 50)
	conn.Close()
	waitReleased(t, done, "Connection.Close")
	// The rest of the stream went to the best-effort connection, whose
	// buffer holds it all.
	if st := other.Stats(); st.Delivered != 50 || st.Dropped != 0 {
		t.Errorf("other connection: %+v, want all 50 delivered", st)
	}
	if st := conn.Stats(); st.Delivered != 8 || st.Dropped != 0 || st.Waits != 1 {
		t.Errorf("closed connection: %+v, want 8 delivered, 0 dropped, 1 wait", st)
	}
	if waits, waited := h.WaitStats(); waits != 1 || waited <= 0 {
		t.Errorf("hub WaitStats = %d, %v; want 1 wait of positive length", waits, waited)
	}
}

func TestParkedPublisherReleasedByHubClose(t *testing.T) {
	h := NewHub()
	conn, done := parkPublisher(t, h, 8, 50)
	h.Close()
	waitReleased(t, done, "Hub.Close")
	n := 0
	for range conn.C() {
		n++
	}
	if n != 8 || h.Published() != 8 {
		t.Errorf("read %d tweets, hub published %d; want the 8 queued before the close", n, h.Published())
	}
}

// TestNoLossSlowConsumer: a consumer slower than the publisher never
// has more than W tweets queued, loses none, and wakes the publisher
// once per W/2 tweets it drains, not once per tweet.
func TestNoLossSlowConsumer(t *testing.T) {
	const w, n = 16, 2000
	h := NewHub()
	conn, err := h.Connect(Filter{Track: []string{"x"}}, WithBuffer(n), WithWatermark(w))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		h.PublishBatch(stream(n))
		h.Close()
	}()
	got, maxQueued := 0, 0
	for tw := range conn.C() {
		// The tweet just received was queued too.
		maxQueued = max(maxQueued, len(conn.C())+1)
		if tw.ID != int64(got) {
			t.Fatalf("tweet %d arrived at position %d", tw.ID, got)
		}
		got++
		conn.Took()
		if got%w == 0 {
			// Fall behind: let the publisher fill the queue again.
			testutil.WaitFor(t, 10*time.Second, func() bool {
				return parkedOn(conn) || conn.Stats().Delivered == n
			}, "the publisher to refill the queue")
		}
	}
	if got != n {
		t.Errorf("received %d of %d", got, n)
	}
	if maxQueued > w {
		t.Errorf("%d tweets queued at once, want at most the watermark %d", maxQueued, w)
	}
	st := conn.Stats()
	if st.Dropped != 0 || st.Delivered != n {
		t.Errorf("stats %+v, want %d delivered and none dropped", st, n)
	}
	if limit := int64(n/(w/2) + 1); st.Waits == 0 || st.Waits > limit {
		t.Errorf("%d waits, want between 1 and %d (one per W/2 tweets)", st.Waits, limit)
	}
}

// TestBestEffortDespiteWatermark: a buffer no larger than the
// watermark, or a rate cap, keeps best-effort delivery: the publisher
// never waits and the excess is counted as drops.
func TestBestEffortDespiteWatermark(t *testing.T) {
	for name, opts := range map[string][]ConnectOpt{
		"small buffer": {WithBuffer(4), WithWatermark(8)},
		"rate cap":     {WithBuffer(100), WithWatermark(8), WithRateCap(1000)},
	} {
		t.Run(name, func(t *testing.T) {
			h := NewHub()
			conn, err := h.Connect(Filter{Track: []string{"x"}}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			h.PublishBatch(stream(cap(conn.ch) + 5))
			h.Close()
			if st := conn.Stats(); st.Dropped != 5 || st.Waits != 0 {
				t.Errorf("stats %+v, want 5 dropped and no waits", st)
			}
		})
	}
}
