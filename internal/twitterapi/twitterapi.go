// Package twitterapi simulates the 2011 Twitter streaming API that
// TweeQL sits on top of (§2: "The streaming API allows users to issue
// long-running HTTP requests with keyword, location, or userid filters,
// and receive most tweets that appear on the stream and match these
// filters").
//
// The simulation preserves the three contract points TweeQL's design
// reacts to:
//
//   - exactly ONE filter type per connection (keywords OR location boxes
//     OR user ids OR random sample) — the root of the paper's "Uncertain
//     Selectivities" problem;
//   - best-effort delivery: a connection that cannot keep up, or whose
//     matched volume exceeds the per-connection rate cap, loses tweets
//     ("receive *most* tweets"), with drops counted like the real API's
//     limit notices;
//   - server-side matching semantics: track terms match on token
//     boundaries, location boxes require device GPS.
//
// One departure bounds the hand-off to consumers that want every tweet
// (a replay, or a scan whose buffer holds the whole stream): a consumer
// may connect WithWatermark(W) and acknowledge each tweet it takes with
// Took. If its buffer is larger than W and it has no rate cap, the
// connection is no-loss: once W tweets are queued for it the publisher
// waits, holding no lock, until the consumer has drained it to W/2, the
// connection closes or the hub closes. Such waits are counted
// (ConnStats.Waits, Hub.WaitStats). Every other connection keeps the
// best-effort contract and its counted drops.
package twitterapi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tweeql/internal/tweet"
)

// Box is a geographic bounding box (south-west / north-east corners).
type Box struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Contains reports whether the point is inside the box (inclusive).
func (b Box) Contains(lat, lon float64) bool {
	return lat >= b.MinLat && lat <= b.MaxLat && lon >= b.MinLon && lon <= b.MaxLon
}

// NYCBox and BostonBox are the demo bounding boxes the paper's example
// queries use ("location in [bounding box for NYC]").
var (
	NYCBox    = Box{MinLat: 40.4774, MinLon: -74.2591, MaxLat: 40.9176, MaxLon: -73.7004}
	BostonBox = Box{MinLat: 42.2279, MinLon: -71.1912, MaxLat: 42.3974, MaxLon: -70.9860}
)

// Filter is a streaming-API predicate. Exactly one of the four fields
// may be set; Validate enforces this, reproducing the API restriction
// that forces TweeQL to choose which filter to push down.
type Filter struct {
	// Track matches tweets containing any of these keywords.
	Track []string
	// Locations matches GPS-tagged tweets inside any box.
	Locations []Box
	// Follow matches tweets authored by any of these user ids.
	Follow []int64
	// SampleRate ∈ (0,1] subscribes to a deterministic pseudo-random
	// sample of the whole stream (the API's statuses/sample endpoint).
	SampleRate float64
}

// ErrFilterArity is returned when zero or multiple filter types are set.
var ErrFilterArity = errors.New("twitterapi: exactly one filter type per connection")

// Validate checks the one-filter-type contract.
func (f Filter) Validate() error {
	set := 0
	if len(f.Track) > 0 {
		set++
	}
	if len(f.Locations) > 0 {
		set++
	}
	if len(f.Follow) > 0 {
		set++
	}
	if f.SampleRate != 0 {
		if f.SampleRate < 0 || f.SampleRate > 1 {
			return fmt.Errorf("twitterapi: sample rate %v outside (0,1]", f.SampleRate)
		}
		set++
	}
	if set != 1 {
		return ErrFilterArity
	}
	return nil
}

// Matches applies the server-side matching semantics.
func (f Filter) Matches(t *tweet.Tweet) bool {
	switch {
	case len(f.Track) > 0:
		return tweet.ContainsAnyWord(t.Text, f.Track)
	case len(f.Locations) > 0:
		if !t.HasGeo {
			return false
		}
		for _, b := range f.Locations {
			if b.Contains(t.Lat, t.Lon) {
				return true
			}
		}
		return false
	case len(f.Follow) > 0:
		for _, id := range f.Follow {
			if t.UserID == id {
				return true
			}
		}
		return false
	case f.SampleRate > 0:
		// Deterministic hash sample so replays are reproducible.
		h := fnv.New32a()
		var buf [8]byte
		id := uint64(t.ID)
		for i := 0; i < 8; i++ {
			buf[i] = byte(id >> (8 * i))
		}
		_, _ = h.Write(buf[:])
		return float64(h.Sum32())/float64(1<<32) < f.SampleRate
	default:
		return false
	}
}

// String renders the filter for logs and plan explanations.
func (f Filter) String() string {
	switch {
	case len(f.Track) > 0:
		return fmt.Sprintf("track%v", f.Track)
	case len(f.Locations) > 0:
		return fmt.Sprintf("locations(%d boxes)", len(f.Locations))
	case len(f.Follow) > 0:
		return fmt.Sprintf("follow(%d users)", len(f.Follow))
	case f.SampleRate > 0:
		return fmt.Sprintf("sample(%.2f%%)", f.SampleRate*100)
	default:
		return "invalid"
	}
}

// ConnStats counts per-connection delivery outcomes.
type ConnStats struct {
	Matched   int64 // passed the server-side filter
	Delivered int64 // actually enqueued to the client
	Dropped   int64 // lost to rate cap or full client buffer
	// Waits counts the times a publisher parked on this no-loss
	// connection's full queue (from the moment it parks), and Waited
	// the time it spent parked.
	Waits  int64
	Waited time.Duration
}

// Connection is one long-running streaming request.
type Connection struct {
	hub    *Hub
	filter Filter
	ch     chan *tweet.Tweet
	// list is a track connection's list in hub.track, -1 for the other
	// filter types. It belongs to the hub, under hub.mu.
	list int

	// highWater is W on a no-loss connection, 0 on a best-effort one.
	// sent counts the tweets enqueued on ch and seen the last value of
	// taken the publisher loaded; both belong to the publisher, under
	// hub.mu, so the common check of a queue's length touches no line
	// the consumer writes.
	highWater  int64
	sent, seen int64

	mu      sync.Mutex
	space   sync.Cond // a parked publisher waits here for the queue to drain
	waiters int       // publishers parked on space
	stats   ConnStats
	rateCap int // max deliveries per event-second; 0 = unlimited
	curSec  int64
	curCnt  int
	closed  bool

	_      [64]byte     // keep the consumer's per-tweet write off the lines above
	taken  atomic.Int64 // tweets the consumer took off C (Took)
	wakeAt atomic.Int64 // taken count that releases the parked publishers; 0 = none parked
}

// C returns the tweet delivery channel. It closes when the connection is
// closed or the hub shuts down.
func (c *Connection) C() <-chan *tweet.Tweet { return c.ch }

// Took acknowledges one tweet received from C. A consumer that
// connected WithWatermark must call it for every tweet it receives: a
// no-loss connection's queue is the tweets sent minus the tweets taken,
// and the receive that drains it to W/2 wakes the parked publisher —
// one wake-up per W/2 tweets, not one per tweet.
func (c *Connection) Took() {
	n := c.taken.Add(1)
	if w := c.wakeAt.Load(); w != 0 && n >= w && c.wakeAt.CompareAndSwap(w, 0) {
		c.mu.Lock()
		c.space.Broadcast()
		c.mu.Unlock()
	}
}

// Stats returns a snapshot of delivery counters.
func (c *Connection) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close detaches the connection from the hub and closes C, releasing a
// publisher parked on it.
func (c *Connection) Close() { c.hub.disconnect(c) }

// full reports whether a no-loss connection holds W undelivered
// tweets, refreshing the consumer's count only when the publisher's
// cached one says so. Called with hub.mu held.
func (c *Connection) full() bool {
	if c.highWater == 0 || c.sent-c.seen < c.highWater {
		return false
	}
	c.seen = c.taken.Load()
	return c.sent-c.seen >= c.highWater
}

// park blocks the calling publisher, which holds no hub lock, until the
// consumer has taken target tweets or the connection closed, and
// returns how long it waited. With several publishers parked, wakeAt is
// the largest target, so the one wake-up releases them all.
func (c *Connection) park(target int64) time.Duration {
	start := time.Now()
	c.mu.Lock()
	c.waiters++
	c.stats.Waits++
	for !c.closed {
		// Publish the target before reading taken: Took adds to taken
		// before it reads wakeAt, so one of the two sees the other.
		if c.wakeAt.Load() < target {
			c.wakeAt.Store(target)
		}
		if c.taken.Load() >= target {
			break
		}
		c.space.Wait()
	}
	c.waiters--
	if c.waiters == 0 {
		c.wakeAt.Store(0)
	}
	waited := time.Since(start)
	c.stats.Waited += waited
	c.mu.Unlock()
	return waited
}

// markClosed flips the connection to closed and wakes any publisher
// parked on it. Called with hub.mu held, just before C is closed.
func (c *Connection) markClosed() {
	c.mu.Lock()
	c.closed = true
	c.space.Broadcast()
	c.mu.Unlock()
}

// offer delivers t if the rate cap and buffer allow; otherwise counts a
// drop. Called with hub lock held (serialized), so per-connection state
// needs only the local lock. A no-loss connection never finds its
// buffer full: the publisher waited for room before this tweet.
func (c *Connection) offer(t *tweet.Tweet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.stats.Matched++
	if c.rateCap > 0 {
		sec := t.CreatedAt.Unix()
		if sec != c.curSec {
			c.curSec, c.curCnt = sec, 0
		}
		if c.curCnt >= c.rateCap {
			c.stats.Dropped++
			return
		}
		c.curCnt++
	}
	select {
	case c.ch <- t:
		c.sent++
		c.stats.Delivered++
		c.hub.delivered.Add(1)
	default:
		c.stats.Dropped++ // slow consumer: best-effort delivery
	}
}

// Hub is the simulated streaming endpoint: publish the firehose into it,
// open filtered connections out of it.
type Hub struct {
	mu    sync.Mutex
	conns []*Connection
	// track holds every track connection's words, list i being the
	// track connection with Connection.list i, and hits is the match of
	// the tweet being published. Both are rebuilt under mu as the set of
	// track connections changes.
	track     *tweet.Keywords
	hits      []bool
	published int64
	delivered atomic.Int64 // rows enqueued across ALL connections, ever
	waits     atomic.Int64 // publisher parks on full no-loss connections, ever
	waited    atomic.Int64 // nanoseconds publishers spent parked, ever
	closed    bool
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{}
}

// ConnectOpt tunes a connection.
type ConnectOpt func(*Connection)

// WithRateCap limits deliveries per event-time second, modeling the
// streaming API's cap on high-volume filters.
func WithRateCap(perSec int) ConnectOpt {
	return func(c *Connection) { c.rateCap = perSec }
}

// WithBuffer sets the client buffer size (default 1024).
func WithBuffer(n int) ConnectOpt {
	return func(c *Connection) { c.ch = make(chan *tweet.Tweet, n) }
}

// WithWatermark declares that the consumer acknowledges every tweet it
// receives with Took, and sets the high watermark w: the queue length
// at which a publisher waits for this consumer instead of dropping. It
// makes the connection no-loss only if the buffer exceeds w and there
// is no rate cap; otherwise delivery stays best-effort.
func WithWatermark(w int) ConnectOpt {
	return func(c *Connection) { c.highWater = int64(w) }
}

// Connect opens a streaming connection with the filter.
func (h *Hub) Connect(f Filter, opts ...ConnectOpt) (*Connection, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	c := &Connection{hub: h, filter: f, ch: make(chan *tweet.Tweet, 1024), list: -1}
	c.space.L = &c.mu
	for _, opt := range opts {
		opt(c)
	}
	if c.highWater < 0 || c.rateCap > 0 || int64(cap(c.ch)) <= c.highWater {
		c.highWater = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errors.New("twitterapi: hub closed")
	}
	h.conns = append(h.conns, c)
	if len(f.Track) > 0 {
		h.reindex()
	}
	return c, nil
}

// reindex rebuilds the track index from the open connections, in
// connection order. Called with h.mu held.
func (h *Hub) reindex() {
	var lists [][]string
	for _, c := range h.conns {
		if len(c.filter.Track) > 0 {
			c.list = len(lists)
			lists = append(lists, c.filter.Track)
		}
	}
	h.track, h.hits = nil, nil
	if len(lists) > 0 {
		h.track, h.hits = tweet.NewKeywords(lists...), make([]bool, len(lists))
	}
}

// Publish pushes one firehose tweet through every connection's filter,
// waiting first while a no-loss connection is full.
func (h *Hub) Publish(t *tweet.Tweet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.publish(t)
}

// PublishBatch pushes a chunk of firehose tweets under one hub lock —
// the publisher-side half of batched ingestion (per-tweet Publish pays
// a lock round trip per tweet, which dominates replays of pre-generated
// streams). Delivery order and per-connection semantics are identical
// to calling Publish in a loop, waits included.
func (h *Hub) PublishBatch(ts []*tweet.Tweet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range ts {
		if !h.publish(t) {
			return
		}
	}
}

// publish offers t to every matching connection, in connection order,
// once each no-loss connection has room for it, and reports false if
// the hub closed first. The text is matched against every track
// connection in one pass over the track index. Called with h.mu held;
// it is released while parked.
func (h *Hub) publish(t *tweet.Tweet) bool {
	for i := 0; i < len(h.conns); {
		c := h.conns[i]
		if !c.full() {
			i++
			continue
		}
		// Wait for the consumer to drain to W/2, holding no hub lock, so
		// Close, disconnects and other publishers proceed meanwhile. The
		// set of connections may change, so look at all of them again.
		target := c.sent - c.highWater/2
		h.waits.Add(1)
		h.mu.Unlock()
		h.waited.Add(int64(c.park(target)))
		h.mu.Lock()
		i = 0
	}
	if h.closed {
		return false
	}
	h.published++
	if h.track != nil {
		h.track.Match(t.Text, h.hits)
	}
	for _, c := range h.conns {
		if c.list >= 0 && h.hits[c.list] || c.list < 0 && c.filter.Matches(t) {
			c.offer(t)
		}
	}
	return true
}

// Connections reports the number of currently open streaming
// connections. Tests use it to wait for a long-poll client to attach
// before publishing, instead of sleeping and hoping.
func (h *Hub) Connections() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// Published reports the number of firehose tweets seen.
func (h *Hub) Published() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published
}

// Delivered reports the total rows enqueued across every connection
// the hub has ever had — the endpoint's cumulative delivery work, the
// quantity shared scans exist to keep O(1) in the query count.
func (h *Hub) Delivered() int64 { return h.delivered.Load() }

// WaitStats reports how often publishers parked on a full no-loss
// connection, counting a park as it begins, and how long the finished
// parks lasted in total, over the hub's life.
func (h *Hub) WaitStats() (waits int64, waited time.Duration) {
	return h.waits.Load(), time.Duration(h.waited.Load())
}

// Close shuts the hub, closes every connection channel and releases
// any parked publisher.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, c := range h.conns {
		c.markClosed()
		close(c.ch)
	}
	h.conns = nil
	h.reindex()
}

func (h *Hub) disconnect(c *Connection) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := slices.Index(h.conns, c)
	if i < 0 {
		return
	}
	h.conns = slices.Delete(h.conns, i, i+1)
	c.markClosed()
	close(c.ch)
	if c.list >= 0 {
		h.reindex()
	}
}

// Replay publishes a pre-generated stream through the hub and closes it,
// for batch experiments. Tweets are published in chunks (PublishBatch)
// so a replay is not bottlenecked on per-tweet lock round trips.
func Replay(h *Hub, tweets []*tweet.Tweet) {
	const chunk = 256
	for lo := 0; lo < len(tweets); lo += chunk {
		h.PublishBatch(tweets[lo:min(lo+chunk, len(tweets))])
	}
	h.Close()
}
