package catalog

import (
	"context"
	"sync"
	"sync/atomic"

	"tweeql/internal/value"
)

// streamShards splits a DerivedStream's subscriber set so that
// subscribe/cancel churn on one shard never contends with churn on
// another, and a publisher touches one atomic pointer load per shard
// per batch instead of one mutex acquisition per tuple.
const streamShards = 8

// BackpressurePolicy decides what a DerivedStream does when a
// subscriber's queue is full.
type BackpressurePolicy int

const (
	// DropOldest gives up the oldest queued row and counts a drop —
	// the streaming-API contract ("receive *most* tweets"): slow readers
	// lose data, the publisher never stalls.
	DropOldest BackpressurePolicy = iota
	// Block makes the publisher wait for room. Total delivery at
	// the price of publisher throughput: one blocked subscriber slows
	// every downstream of the publishing query. Subscribers holding this
	// policy MUST be cancelled when their reader goes away.
	Block
)

// String renders the policy for stats and metrics output.
func (p BackpressurePolicy) String() string {
	if p == Block {
		return "block"
	}
	return "drop"
}

// SubOptions shape one subscription.
type SubOptions struct {
	// Buffer is the most rows the subscriber queues (<= 0 means 256).
	// Nothing is allocated for it up front.
	Buffer int
	// Policy picks the full-ring behaviour.
	Policy BackpressurePolicy
}

// SubStats is a snapshot of one subscription's delivery counters.
type SubStats struct {
	Delivered int64 // rows handed to the reader
	Dropped   int64 // rows lost to queue overflow (DropOldest only)
}

// StreamStats is a snapshot of a DerivedStream's broadcast counters.
type StreamStats struct {
	Subscribers int
	Published   int64 // rows offered to the stream
	Dropped     int64 // rows lost across all subscribers, ever
}

// DerivedStream is a live stream fed by a query's INTO STREAM clause and
// consumable by later FROM clauses. It broadcasts to all subscribers;
// the serving layer also uses it as the fan-out hub behind SSE/NDJSON
// result streaming, so the subscriber set is sharded and the publish
// hot path is lock-free (copy-on-write subscriber slices, one atomic
// load per shard per batch).
type DerivedStream struct {
	name   string
	schema *value.Schema

	published atomic.Int64
	dropped   atomic.Int64
	nextShard atomic.Uint32
	closed    atomic.Bool
	// seq numbers publishes: a subscription receives only those that
	// began after it subscribed (see Subscription.from).
	seq atomic.Uint64

	shards [streamShards]subShard
}

// subShard holds one slice of the subscriber set. Mutations rebuild the
// slice under mu (copy-on-write); publishers read it with one atomic
// load and never take the lock.
type subShard struct {
	mu   sync.Mutex
	subs atomic.Pointer[[]*Subscription]
}

// NewDerivedStream creates a derived stream with the producing query's
// output schema.
func NewDerivedStream(name string, schema *value.Schema) *DerivedStream {
	return &DerivedStream{name: name, schema: schema}
}

// Schema implements Source.
func (d *DerivedStream) Schema() *value.Schema { return d.schema }

// LiveStream implements LiveSource: a derived stream is live — a
// subscriber sees what is published after it attaches — so queries
// reading it may share one upstream subscription.
func (d *DerivedStream) LiveStream() bool { return true }

// Name reports the stream's name.
func (d *DerivedStream) Name() string { return d.name }

// Subscribe attaches a new subscriber. On an already-closed stream the
// returned subscription is immediately at end-of-stream. The caller
// must Cancel the subscription when done with it.
func (d *DerivedStream) Subscribe(opts SubOptions) *Subscription {
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 256
	}
	s := &Subscription{
		d:      d,
		policy: opts.Policy,
		limit:  buffer,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	s.space.L = &s.mu
	if d.closed.Load() {
		s.closed = true
		close(s.done)
		return s
	}
	s.shard = int(d.nextShard.Add(1) % streamShards)
	sh := &d.shards[s.shard]
	sh.mu.Lock()
	// CloseStream marks the stream closed BEFORE sweeping the shards, so
	// re-checking under the shard lock guarantees no subscriber slips in
	// after its shard was swept.
	if d.closed.Load() {
		sh.mu.Unlock()
		s.closed = true
		close(s.done)
		return s
	}
	// A publish numbered up to here began before this subscription
	// existed; one still walking the shards must not reach it.
	s.from = d.seq.Load() + 1
	var next []*Subscription
	if cur := sh.subs.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, s)
	sh.subs.Store(&next)
	sh.mu.Unlock()
	return s
}

// Publish broadcasts one tuple to all subscribers. Prefer PublishBatch
// on hot paths: it pays the per-shard subscriber lookup once per batch.
func (d *DerivedStream) Publish(row value.Tuple) {
	d.PublishBatch([]value.Tuple{row})
}

// PublishBatch broadcasts rows, in order, to all subscribers that
// subscribed before it began, and takes ownership of the slice: each
// subscriber queues a run of it (rows[:k:k] or a later part), not a
// copy, so the caller must not write the slice or its rows after the
// call. Every subscriber reads the same rows. Block-policy subscribers
// may make the call wait for room. Publishing to a closed stream is a
// no-op.
func (d *DerivedStream) PublishBatch(rows []value.Tuple) {
	if len(rows) == 0 || d.closed.Load() {
		return
	}
	// Capped, so that no run a reader receives can be appended into the
	// rows after it.
	rows = rows[:len(rows):len(rows)]
	d.published.Add(int64(len(rows)))
	seq := d.seq.Add(1)
	for i := range d.shards {
		if i > 0 && betweenShards != nil {
			betweenShards()
		}
		ptr := d.shards[i].subs.Load()
		if ptr == nil {
			continue
		}
		for _, s := range *ptr {
			if s.from <= seq {
				s.offer(rows)
			}
		}
	}
}

// betweenShards, when set, runs as a publish moves on to the next
// shard: a test's handle on the moment a publish is partway through
// the subscriber set. nil outside tests.
var betweenShards func()

// CloseStream ends the stream: every subscription reaches end-of-stream
// once its buffered rows are drained, and later subscribers see an
// empty, closed stream. Safe to call more than once.
func (d *DerivedStream) CloseStream() {
	if d.closed.Swap(true) {
		return
	}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		ptr := sh.subs.Load()
		sh.subs.Store(nil)
		sh.mu.Unlock()
		if ptr == nil {
			continue
		}
		for _, s := range *ptr {
			s.markClosed()
		}
	}
}

// Stats snapshots the stream's broadcast counters.
func (d *DerivedStream) Stats() StreamStats {
	st := StreamStats{
		Published: d.published.Load(),
		Dropped:   d.dropped.Load(),
	}
	for i := range d.shards {
		if ptr := d.shards[i].subs.Load(); ptr != nil {
			st.Subscribers += len(*ptr)
		}
	}
	return st
}

// Open implements Source: a drop-policy subscription of req.Buffer
// rows, each burst it receives handed on as it arrives, cut into
// batches of at most req.Size rows. A partial batch waits for nothing:
// a reader sees a row as soon as the subscription has it.
func (d *DerivedStream) Open(ctx context.Context, req OpenRequest) (<-chan []value.Tuple, *OpenInfo, error) {
	size := max(req.Size, 1)
	sub := d.Subscribe(SubOptions{Buffer: req.Buffer, Policy: DropOldest})
	// The subscription is the buffer; room for a few batches lets one
	// burst's cuts pass on while the reader finishes the last.
	out := make(chan []value.Tuple, 4)
	go func() {
		defer close(out)
		defer sub.Cancel()
		for {
			// A fresh slice per burst: its disjoint parts pass to the
			// receiver as batches.
			rows, err := sub.RecvInto(ctx, nil)
			if err != nil {
				return
			}
			for len(rows) > 0 {
				n := min(size, len(rows))
				select {
				case out <- rows[:n:n]:
				case <-ctx.Done():
					return
				}
				rows = rows[n:]
			}
		}
	}()
	return out, &OpenInfo{Schema: d.schema}, nil
}

// ErrStreamClosed is returned by Subscription.Recv at end-of-stream.
var ErrStreamClosed = errStreamClosed{}

type errStreamClosed struct{}

func (errStreamClosed) Error() string { return "catalog: derived stream closed" }

// Subscription is one subscriber's handle on a DerivedStream: a
// bounded queue of runs, each a capped part of a batch the publisher
// handed to PublishBatch, which the reader drains with Recv. The stream
// keeps the publisher's slices, so every subscriber reads the same rows
// and none is copied on the way in. At most limit rows are queued, and
// so at most limit runs, since a run holds at least one row.
type Subscription struct {
	d      *DerivedStream
	shard  int
	policy BackpressurePolicy
	// from is the sequence number of the first publish delivered here,
	// fixed before the subscription joins its shard.
	from uint64
	// limit is the row budget, SubOptions.Buffer.
	limit int

	mu    sync.Mutex
	space sync.Cond // Block-policy publishers wait here for room
	// runs[head:] are the queued runs, oldest first, holding n rows.
	runs      [][]value.Tuple
	head, n   int
	delivered int64
	dropped   int64
	closed    bool

	notify chan struct{} // 1-buffered reader wakeup
	done   chan struct{} // closed once (Cancel or CloseStream)
}

// offer queues rows (capped by PublishBatch), applying the backpressure
// policy. Called by the publisher with no stream-level lock held, so a
// blocked Block-policy publisher stalls only itself.
func (s *Subscription) offer(rows []value.Tuple) {
	s.mu.Lock()
	if s.policy == Block {
		for len(rows) > 0 && !s.closed {
			if s.n == s.limit {
				// The reader may be parked on notify from before this
				// offer; wake it NOW — the queue it must drain is full —
				// or Wait below deadlocks against a reader that never
				// learns there is data (the end-of-offer notify hasn't
				// been sent yet).
				s.wake()
				for s.n == s.limit && !s.closed {
					s.space.Wait()
				}
				continue
			}
			k := min(len(rows), s.limit-s.n)
			s.push(rows[:k:k])
			rows = rows[k:]
		}
	} else if !s.closed {
		s.pushDropping(rows)
	}
	s.mu.Unlock()
	s.wake()
}

// pushDropping queues rows under DropOldest: the oldest rows, queued or
// in rows itself, give way one for one to the newest until the queue
// holds at most limit, and each counts as one drop.
func (s *Subscription) pushDropping(rows []value.Tuple) {
	drop := 0
	if over := len(rows) - s.limit; over > 0 {
		rows, drop = rows[over:], over
	}
	for excess := s.n + len(rows) - s.limit; excess > 0; {
		r := s.runs[s.head]
		k := min(len(r), excess)
		if k == len(r) {
			s.runs[s.head] = nil
			s.head++
		} else {
			s.runs[s.head] = r[k:]
		}
		s.n -= k
		drop += k
		excess -= k
	}
	if drop > 0 {
		s.dropped += int64(drop)
		s.d.dropped.Add(int64(drop))
	}
	s.push(rows)
}

// push queues one non-empty capped run. When the slice is out of room
// and at least half of it is consumed front, the live runs move down
// instead of the slice growing: each run is moved O(1) times, and a
// queue nobody reads holds fewer than 4·limit run headers.
func (s *Subscription) push(run []value.Tuple) {
	if s.head == len(s.runs) || len(s.runs) == cap(s.runs) && 2*s.head >= len(s.runs) {
		live := copy(s.runs, s.runs[s.head:])
		clear(s.runs[live:])
		s.runs, s.head = s.runs[:live], 0
	}
	s.runs = append(s.runs, run)
	s.n += len(run)
}

// wake nudges the reader (non-blocking; the 1-buffered channel makes a
// pending nudge idempotent). Safe with or without s.mu held.
func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Recv blocks until rows are queued, then pops and returns all of them.
// One queued run comes back as it is, with no copy and no allocation;
// several are joined into a fresh slice. The rows are shared with every
// other subscriber of the stream: the caller reads them and must not
// write them or append to the slice. It returns ErrStreamClosed once the
// stream ended or the subscription was cancelled AND the queue is
// drained, or ctx.Err() if ctx ends first.
func (s *Subscription) Recv(ctx context.Context) ([]value.Tuple, error) {
	return s.recv(ctx, nil, false)
}

// RecvInto is Recv into the caller's buffer: the popped rows are copied
// over dst from its start (dst is reallocated only when the burst
// exceeds its capacity), so the result is the caller's to write, and a
// reader that is done with a burst before it asks for the next one — an
// SSE pump encoding rows to bytes — receives without allocating. With a
// nil dst every call returns a fresh slice. The returned slice aliases
// dst and is valid only until the next RecvInto with it; on error it is
// dst[:0], so the buffer survives a timed-out wait.
func (s *Subscription) RecvInto(ctx context.Context, dst []value.Tuple) ([]value.Tuple, error) {
	return s.recv(ctx, dst, true)
}

// Ready is signalled when rows are queued and when the subscription ends.
func (s *Subscription) Ready() <-chan struct{} { return s.notify }

// recv is Recv (private false) and RecvInto (private true).
func (s *Subscription) recv(ctx context.Context, dst []value.Tuple, private bool) ([]value.Tuple, error) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			queued := s.runs[s.head:]
			out := queued[0]
			if private || len(queued) > 1 {
				out = dst[:0]
				if cap(out) < s.n {
					out = make([]value.Tuple, 0, s.n)
				}
				for _, r := range queued {
					out = append(out, r...)
				}
			}
			clear(queued)
			s.runs, s.head = s.runs[:0], 0
			s.delivered += int64(s.n)
			s.n = 0
			if s.policy == Block {
				s.space.Broadcast()
			}
			s.mu.Unlock()
			return out, nil
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return dst[:0], ErrStreamClosed
		}
		select {
		case <-s.notify:
		case <-s.done:
			// Loop: drain anything offered before the close landed.
		case <-ctx.Done():
			return dst[:0], ctx.Err()
		}
	}
}

// Stats snapshots the subscription's delivery counters.
func (s *Subscription) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubStats{Delivered: s.delivered, Dropped: s.dropped}
}

// Cancel detaches the subscription: publishers stop delivering to it
// (waking a Block-policy publisher mid-wait) and Recv drains the buffer
// then returns ErrStreamClosed. Safe to call more than once.
func (s *Subscription) Cancel() {
	if !s.markClosed() {
		return
	}
	if s.d == nil {
		return
	}
	sh := &s.d.shards[s.shard]
	sh.mu.Lock()
	if cur := sh.subs.Load(); cur != nil {
		for i, sub := range *cur {
			if sub == s {
				next := make([]*Subscription, 0, len(*cur)-1)
				next = append(next, (*cur)[:i]...)
				next = append(next, (*cur)[i+1:]...)
				if len(next) == 0 {
					sh.subs.Store(nil)
				} else {
					sh.subs.Store(&next)
				}
				break
			}
		}
	}
	sh.mu.Unlock()
}

// markClosed flips the subscription to closed exactly once, waking any
// blocked publisher and the reader. Reports whether this call did it.
func (s *Subscription) markClosed() bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	s.space.Broadcast()
	s.mu.Unlock()
	close(s.done)
	s.wake()
	return true
}
