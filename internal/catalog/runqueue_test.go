package catalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tweeql/internal/value"
)

// ringStream is the fan-out DerivedStream was before subscriptions
// queued runs: each subscriber copies every published row into a ring
// allocated at its full Buffer size, and each receive copies the rows
// out again. It stays as the oracle for the run queue: driven through
// the same operations, the two must deliver the same rows and count
// the same drops. One lock stands in for the sharded subscriber set,
// which the differential does not exercise.
type ringStream struct {
	mu        sync.Mutex
	subs      []*ringSub
	published int64
	closed    bool
	dropped   atomic.Int64
}

func (d *ringStream) subscribe(opts SubOptions) *ringSub {
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 256
	}
	s := &ringSub{d: d, policy: opts.Policy, buf: make([]value.Tuple, buffer),
		notify: make(chan struct{}, 1), done: make(chan struct{})}
	s.space.L = &s.mu
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		s.closed = true
		close(s.done)
		return s
	}
	d.subs = append(d.subs, s)
	return s
}

func (d *ringStream) publish(rows []value.Tuple) {
	d.mu.Lock()
	if len(rows) == 0 || d.closed {
		d.mu.Unlock()
		return
	}
	d.published += int64(len(rows))
	subs := append([]*ringSub(nil), d.subs...)
	d.mu.Unlock()
	for _, s := range subs {
		s.offer(rows)
	}
}

func (d *ringStream) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	subs := d.subs
	d.subs = nil
	d.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

func (d *ringStream) stats() StreamStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return StreamStats{Subscribers: len(d.subs), Published: d.published, Dropped: d.dropped.Load()}
}

type ringSub struct {
	d      *ringStream
	policy BackpressurePolicy

	mu        sync.Mutex
	space     sync.Cond
	buf       []value.Tuple
	head, n   int
	delivered int64
	dropped   int64
	closed    bool

	notify chan struct{}
	done   chan struct{}
}

func (s *ringSub) offer(rows []value.Tuple) {
	s.mu.Lock()
	for _, row := range rows {
		if s.closed {
			break
		}
		if s.n == len(s.buf) {
			if s.policy == Block {
				s.wake()
				for s.n == len(s.buf) && !s.closed {
					s.space.Wait()
				}
				if s.closed {
					break
				}
			} else {
				s.buf[s.head] = value.Tuple{}
				s.head = (s.head + 1) % len(s.buf)
				s.n--
				s.dropped++
				s.d.dropped.Add(1)
			}
		}
		s.buf[(s.head+s.n)%len(s.buf)] = row
		s.n++
	}
	s.mu.Unlock()
	s.wake()
}

func (s *ringSub) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (s *ringSub) recvInto(ctx context.Context, dst []value.Tuple) ([]value.Tuple, error) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			out := dst[:0]
			if cap(out) < s.n {
				out = make([]value.Tuple, 0, s.n)
			}
			for s.n > 0 {
				out = append(out, s.buf[s.head])
				s.buf[s.head] = value.Tuple{}
				s.head = (s.head + 1) % len(s.buf)
				s.n--
			}
			s.head = 0
			s.delivered += int64(len(out))
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
		case <-ctx.Done():
			return dst[:0], ctx.Err()
		}
	}
}

func (s *ringSub) stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubStats{Delivered: s.delivered, Dropped: s.dropped}
}

func (s *ringSub) cancel() {
	if !s.markClosed() {
		return
	}
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	for i, sub := range s.d.subs {
		if sub == s {
			s.d.subs = append(s.d.subs[:i:i], s.d.subs[i+1:]...)
			break
		}
	}
}

func (s *ringSub) markClosed() bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	s.space.Broadcast()
	s.mu.Unlock()
	close(s.done)
	return true
}

// subPair is one subscriber on both implementations, with the ids each
// has delivered since the last comparison.
type subPair struct {
	sub       *Subscription
	ring      *ringSub
	got, want []int64
	buf       []value.Tuple // RecvInto's reused buffer (run queue side)
	ringBuf   []value.Tuple // the same for the oracle
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []int64) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func ids(rows []value.Tuple) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i], _ = r.Values[0].IntVal() // every row here holds an int
	}
	return out
}

// rowPool is a run of rows numbered 0, 1, ...; publishes take slices of
// it (nothing writes them, so the streams may keep them).
func rowPool(n int) []value.Tuple {
	s := intSchema()
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = streamRow(s, i)
	}
	return rows
}

// TestRunQueueMatchesRingOracle drives the run queue and the per-row
// ring through one seeded sequence of publishes of 0 to 3x the buffer,
// Recv and RecvInto calls, cancels, late subscribes and a CloseStream,
// at buffers of 1, 2, 7 and 4096 under both policies. After every step
// each subscriber has delivered the same rows and counted the same
// drops on both, the streams' counters agree, and the queue holds at
// most its row budget in at most as many runs. A Block publish that
// would overflow a ring runs beside one reader per subscriber, on each
// implementation in turn, until it returns.
func TestRunQueueMatchesRingOracle(t *testing.T) {
	for _, buffer := range []int{1, 2, 7, 4096} {
		pool := rowPool(8 * buffer)
		for _, policy := range []BackpressurePolicy{DropOldest, Block} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("buffer=%d/%s/seed=%d", buffer, policy, seed), func(t *testing.T) {
					diffRunQueue(t, rand.New(rand.NewSource(seed)), pool, SubOptions{Buffer: buffer, Policy: policy})
				})
			}
		}
	}
}

func diffRunQueue(t *testing.T, r *rand.Rand, pool []value.Tuple, opts SubOptions) {
	d := NewDerivedStream("d", intSchema())
	o := &ringStream{}
	var pairs []*subPair
	subscribe := func() {
		pairs = append(pairs, &subPair{sub: d.Subscribe(opts), ring: o.subscribe(opts)})
	}
	for range 3 {
		subscribe()
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()

	check := func(step int, what string) {
		t.Helper()
		for i, p := range pairs {
			if !slices.Equal(p.got, p.want) {
				t.Fatalf("step %d (%s): subscriber %d delivered %d rows, oracle %d; first difference at %d",
					step, what, i, len(p.got), len(p.want), firstDiff(p.got, p.want))
			}
			p.got, p.want = p.got[:0], p.want[:0] // compared; keep only what follows
			if got, want := p.sub.Stats(), p.ring.stats(); got != want {
				t.Fatalf("step %d (%s): subscriber %d stats %+v, oracle %+v", step, what, i, got, want)
			}
			s := p.sub
			s.mu.Lock()
			queued, rows := len(s.runs)-s.head, 0
			for _, run := range s.runs[s.head:] {
				rows += len(run)
			}
			n, limit := s.n, s.limit
			s.mu.Unlock()
			if rows != n || n > limit || queued > limit {
				t.Fatalf("step %d (%s): subscriber %d queues %d runs of %d rows (n=%d), budget %d", step, what, i, queued, rows, n, limit)
			}
		}
		if got, want := d.Stats(), o.stats(); got != want {
			t.Fatalf("step %d (%s): stream stats %+v, oracle %+v", step, what, got, want)
		}
	}

	// recvBoth makes one receive on each side of p with an expired
	// context: what is queued comes back, or the same error does.
	recvBoth := func(step int, p *subPair, into bool) error {
		t.Helper()
		var got []value.Tuple
		var err error
		if into {
			got, err = p.sub.RecvInto(expired, p.buf)
			p.buf = got
		} else {
			got, err = p.sub.Recv(expired)
		}
		want, werr := p.ring.recvInto(expired, p.ringBuf)
		p.ringBuf = want
		if !errors.Is(err, werr) {
			t.Fatalf("step %d: receive error %v, oracle %v", step, err, werr)
		}
		p.got = append(p.got, ids(got)...)
		p.want = append(p.want, ids(want)...)
		return err
	}

	// drainDuring runs publish beside one reader per subscriber, then
	// empties every queue, and returns what each subscriber received.
	// No receive may return more than the row budget: a Block publisher
	// waits for room rather than queue past it.
	drainDuring := func(step int, publish func(), recv []func(context.Context, int) ([]value.Tuple, error)) [][]int64 {
		ctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		got := make([][]int64, len(recv))
		burst := make([]int, len(recv))
		for i := range recv {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; ; k++ {
					rows, err := recv[i](ctx, k)
					if err != nil {
						return
					}
					burst[i] = max(burst[i], len(rows))
					got[i] = append(got[i], ids(rows)...)
				}
			}()
		}
		publish()
		stop()
		wg.Wait()
		for i, b := range burst {
			if b > opts.Buffer {
				t.Fatalf("step %d: subscriber %d received a burst of %d rows past its budget of %d", step, i, b, opts.Buffer)
			}
		}
		// A reader that saw ctx end may have left rows queued.
		for i := range recv {
			for {
				rows, err := recv[i](expired, 0)
				if err != nil {
					break
				}
				got[i] = append(got[i], ids(rows)...)
			}
		}
		return got
	}

	next := 0
	closed := false
	for step := range 100 {
		var what string
		switch op := r.Intn(20); {
		case op < 9:
			what = "publish"
			n := r.Intn(3*opts.Buffer + 1)
			if next+n > len(pool) {
				next = 0
			}
			rows := pool[next : next+n]
			next += n
			overflow := false
			for _, p := range pairs {
				p.ring.mu.Lock()
				overflow = overflow || !p.ring.closed && p.ring.n+n > len(p.ring.buf)
				p.ring.mu.Unlock()
			}
			if opts.Policy != Block || !overflow {
				d.PublishBatch(rows)
				o.publish(rows)
				break
			}
			what = "blocking publish"
			runQueue := make([]func(context.Context, int) ([]value.Tuple, error), len(pairs))
			oracle := make([]func(context.Context, int) ([]value.Tuple, error), len(pairs))
			for i, p := range pairs {
				runQueue[i] = func(ctx context.Context, k int) ([]value.Tuple, error) {
					if k%2 == 0 {
						return p.sub.Recv(ctx)
					}
					return p.sub.RecvInto(ctx, nil)
				}
				oracle[i] = func(ctx context.Context, _ int) ([]value.Tuple, error) {
					return p.ring.recvInto(ctx, nil)
				}
			}
			got := drainDuring(step, func() { d.PublishBatch(rows) }, runQueue)
			want := drainDuring(step, func() { o.publish(rows) }, oracle)
			for i, p := range pairs {
				p.got = append(p.got, got[i]...)
				p.want = append(p.want, want[i]...)
			}
		case op < 16:
			what = "receive"
			recvBoth(step, pairs[r.Intn(len(pairs))], r.Intn(2) == 0)
		case op < 18:
			what = "cancel"
			p := pairs[r.Intn(len(pairs))]
			p.sub.Cancel()
			p.ring.cancel()
		case op == 18:
			what = "subscribe"
			subscribe()
		default:
			if closed || r.Intn(4) > 0 {
				continue
			}
			what = "close"
			closed = true
			d.CloseStream()
			o.close()
		}
		check(step, what)
	}

	d.CloseStream()
	o.close()
	for _, p := range pairs {
		for recvBoth(-1, p, r.Intn(2) == 0) == nil {
		}
	}
	check(-1, "final drain")
}

// A DropOldest subscription nobody reads keeps its row budget, and so
// at most that many runs, however many batches arrive; the run headers
// of dropped runs are reclaimed rather than piling up in front of the
// live ones.
func TestDropOldestUnreadStaysBounded(t *testing.T) {
	pool := rowPool(64)
	for _, buffer := range []int{1, 7, 64} {
		d := NewDerivedStream("d", intSchema())
		sub := d.Subscribe(SubOptions{Buffer: buffer, Policy: DropOldest})
		r := rand.New(rand.NewSource(int64(buffer)))
		published := 0
		for range 10_000 {
			n := 1 + r.Intn(3)
			d.PublishBatch(pool[:n])
			published += n
		}
		sub.mu.Lock()
		queued, headers, n := len(sub.runs)-sub.head, cap(sub.runs), sub.n
		sub.mu.Unlock()
		if queued > buffer || n != buffer {
			t.Errorf("buffer %d: %d runs holding %d rows queued after 10 000 publishes", buffer, queued, n)
		}
		if headers > 4*buffer+8 {
			t.Errorf("buffer %d: run queue grew to %d headers", buffer, headers)
		}
		if st := sub.Stats(); st.Dropped != int64(published-buffer) {
			t.Errorf("buffer %d: dropped %d of %d rows, want %d", buffer, st.Dropped, published, published-buffer)
		}
		sub.Cancel()
	}
}

// A subscriber that keeps up receives each published batch as it is:
// a publish-then-Recv round allocates nothing, on one subscriber or
// eight, under either policy.
func TestPublishRecvAllocatesNothing(t *testing.T) {
	batch := rowPool(256)
	ctx := context.Background()
	for _, policy := range []BackpressurePolicy{DropOldest, Block} {
		for _, n := range []int{1, 8} {
			d := NewDerivedStream("d", intSchema())
			subs := make([]*Subscription, n)
			for i := range subs {
				subs[i] = d.Subscribe(SubOptions{Buffer: 1024, Policy: policy})
			}
			allocs := testing.AllocsPerRun(100, func() {
				d.PublishBatch(batch)
				for _, sub := range subs {
					rows, err := sub.Recv(ctx)
					if err != nil || len(rows) != len(batch) || &rows[0] != &batch[0] {
						t.Fatalf("Recv = %d rows, %v; want the published batch itself", len(rows), err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s, %d subscribers: %.1f allocations per publish-then-Recv round, want 0", policy, n, allocs)
			}
			d.CloseStream()
		}
	}
}

// Subscribe costs the same at any Buffer: the row budget is a bound on
// what the subscription queues, not storage it allocates.
func TestSubscribeAllocatesConstant(t *testing.T) {
	d := NewDerivedStream("d", intSchema())
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		d.Subscribe(SubOptions{Buffer: 1 << 20, Policy: Block}).Cancel()
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured ones.
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if allocs > 8 || bytes > 1024 {
		t.Errorf("Subscribe(Buffer: 1<<20) + Cancel = %.0f allocations, %d bytes; want O(1), not O(Buffer)", allocs, bytes)
	}
}
