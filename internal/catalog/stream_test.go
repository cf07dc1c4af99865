package catalog

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tweeql/internal/testutil"
	"tweeql/internal/value"
)

func streamRow(schema *value.Schema, i int) value.Tuple {
	return value.NewTuple(schema, []value.Value{value.Int(int64(i))}, time.Unix(int64(i), 0))
}

func intSchema() *value.Schema {
	return value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
}

// A drop-policy subscriber whose ring overflows loses the OLDEST rows,
// keeps the newest, and counts every loss — on the subscription, and
// aggregated on the stream.
func TestSubscriptionDropOldest(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	sub := d.Subscribe(SubOptions{Buffer: 4, Policy: DropOldest})
	defer sub.Cancel()

	rows := make([]value.Tuple, 10)
	for i := range rows {
		rows[i] = streamRow(s, i)
	}
	d.PublishBatch(rows)

	got, err := sub.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d rows, want 4", len(got))
	}
	for i, row := range got {
		if row.Values[0].Kind() != value.KindInt {
			t.Fatalf("row %d kind = %v, want int", i, row.Values[0].Kind())
		}
		if v := row.Values[0].IntRaw(); v != int64(6+i) {
			t.Errorf("row %d = %d, want %d (newest rows kept)", i, v, 6+i)
		}
	}
	if st := sub.Stats(); st.Dropped != 6 || st.Delivered != 4 {
		t.Errorf("sub stats = %+v, want 6 dropped / 4 delivered", st)
	}
	if st := d.Stats(); st.Dropped != 6 || st.Published != 10 || st.Subscribers != 1 {
		t.Errorf("stream stats = %+v, want 6 dropped / 10 published / 1 subscriber", st)
	}
}

// A block-policy subscriber never loses a row: the publisher waits for
// ring space, and cancellation releases a blocked publisher.
func TestSubscriptionBlock(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	sub := d.Subscribe(SubOptions{Buffer: 2, Policy: Block})

	const n = 50
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 0; i < n; i++ {
			d.Publish(streamRow(s, i))
		}
	}()

	var got []value.Tuple
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for len(got) < n {
		rows, err := sub.Recv(ctx)
		if err != nil {
			t.Fatalf("recv after %d rows: %v", len(got), err)
		}
		got = append(got, rows...)
	}
	<-pubDone
	for i, row := range got {
		if row.Values[0].Kind() != value.KindInt {
			t.Fatalf("row %d kind = %v, want int", i, row.Values[0].Kind())
		}
		if v := row.Values[0].IntRaw(); v != int64(i) {
			t.Fatalf("row %d = %d: block policy must deliver every row in order", i, v)
		}
	}
	if st := sub.Stats(); st.Dropped != 0 {
		t.Errorf("block subscriber dropped %d rows", st.Dropped)
	}

	// A publisher stuck on a full ring must unblock when the subscriber
	// cancels.
	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		d.PublishBatch([]value.Tuple{streamRow(s, 0), streamRow(s, 1), streamRow(s, 2)})
	}()
	// Wait until the ring is full — the publisher is then parked in (or
	// about to enter) its space.Wait — before cancelling out from under it.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		sub.mu.Lock()
		full := sub.n == sub.limit
		sub.mu.Unlock()
		return full
	}, "publisher to fill the ring")
	sub.Cancel()
	select {
	case <-stuck:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after Cancel")
	}
}

// Regression: a Block-policy publisher whose batch overflows the ring
// while the reader is already parked in Recv must wake that reader
// mid-offer — the end-of-offer notify alone deadlocks both sides.
func TestBlockPublishToParkedReader(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	sub := d.Subscribe(SubOptions{Buffer: 2, Policy: Block})
	defer sub.Cancel()

	const n = 7 // > buffer: the publisher must wait mid-batch
	got := make(chan int, 1)
	go func() {
		total := 0
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for total < n {
			rows, err := sub.Recv(ctx) // parked before the publish starts
			if err != nil {
				break
			}
			total += len(rows)
		}
		got <- total
	}()
	// Pacing, not correctness: give the scheduler a beat so the reader is
	// parked in Recv when the publish starts — the interleaving this
	// regression test exists to exercise. The asserted property (all n
	// rows delivered) holds in either interleaving.
	//tweeqlvet:ignore sleepsync -- scheduler pacing to reach the regression interleaving; the assertion holds either way
	time.Sleep(10 * time.Millisecond)

	batch := make([]value.Tuple, n)
	for i := range batch {
		batch[i] = streamRow(s, i)
	}
	done := make(chan struct{})
	go func() {
		d.PublishBatch(batch)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("PublishBatch deadlocked against a parked Block-policy reader")
	}
	if total := <-got; total != n {
		t.Fatalf("reader got %d rows, want %d", total, n)
	}
}

// Recv drains rows buffered before CloseStream, then reports
// end-of-stream; subscribing after close is immediately at end.
func TestSubscriptionCloseDrains(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	sub := d.Subscribe(SubOptions{})
	d.Publish(streamRow(s, 1))
	d.CloseStream()

	rows, err := sub.Recv(context.Background())
	if err != nil || len(rows) != 1 {
		t.Fatalf("Recv = %d rows, %v; want the pre-close row", len(rows), err)
	}
	if _, err := sub.Recv(context.Background()); err != ErrStreamClosed {
		t.Fatalf("Recv after drain = %v, want ErrStreamClosed", err)
	}
	late := d.Subscribe(SubOptions{})
	if _, err := late.Recv(context.Background()); err != ErrStreamClosed {
		t.Fatalf("post-close subscribe Recv = %v, want ErrStreamClosed", err)
	}
}

// The COW sharded subscriber set stays consistent under concurrent
// subscribe/unsubscribe/publish churn (run with -race).
func TestConcurrentSubscribeUnsubscribePublish(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publishers: batches and single rows.
	batch := make([]value.Tuple, 16)
	for i := range batch {
		batch[i] = streamRow(s, i)
	}
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.PublishBatch(batch)
				d.Publish(batch[0])
			}
		}()
	}

	// Churners: subscribe, read a little, cancel. Half use Block.
	var churned atomic.Int64
	for c := 0; c < 8; c++ {
		policy := DropOldest
		if c%2 == 1 {
			policy = Block
		}
		wg.Add(1)
		go func(policy BackpressurePolicy) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub := d.Subscribe(SubOptions{Buffer: 8, Policy: policy})
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_, _ = sub.Recv(ctx)
				cancel()
				sub.Cancel()
				churned.Add(1)
			}
		}(policy)
	}

	// Let the churn run until every churner has cycled a few times, then
	// stop — a condition, not a fixed delay, so a loaded machine cannot
	// end the test before any churn happened.
	testutil.WaitFor(t, 10*time.Second, func() bool {
		return churned.Load() >= 32
	}, "subscription churn")
	close(stop)
	wg.Wait()
	if churned.Load() == 0 {
		t.Fatal("no subscriptions churned")
	}
	d.CloseStream()
	if st := d.Stats(); st.Subscribers != 0 {
		t.Errorf("%d subscribers survived CloseStream", st.Subscribers)
	}
	// Publishing after close is a harmless no-op.
	before := d.Stats().Published
	d.PublishBatch(batch)
	if after := d.Stats().Published; after != before {
		t.Errorf("publish after close counted rows: %d -> %d", before, after)
	}
}

// Cancelling one of many subscribers must not disturb the others.
func TestCancelIsolation(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	subs := make([]*Subscription, 2*streamShards+1)
	for i := range subs {
		subs[i] = d.Subscribe(SubOptions{Buffer: 64})
	}
	for i := 0; i < len(subs); i += 2 {
		subs[i].Cancel()
		subs[i].Cancel() // idempotent
	}
	d.Publish(streamRow(s, 7))
	for i, sub := range subs {
		if i%2 == 0 {
			if _, err := sub.Recv(context.Background()); err != ErrStreamClosed {
				t.Fatalf("cancelled sub %d: Recv = %v, want ErrStreamClosed", i, err)
			}
			continue
		}
		rows, err := sub.Recv(context.Background())
		if err != nil || len(rows) != 1 {
			t.Fatalf("live sub %d: Recv = %d rows, %v", i, len(rows), err)
		}
	}
	if st := d.Stats(); st.Subscribers != len(subs)/2 {
		t.Errorf("subscribers = %d, want %d", st.Subscribers, len(subs)/2)
	}
	d.CloseStream()
}

// Publish order is preserved within a subscriber even when rows arrive
// via a mix of Publish and PublishBatch from one goroutine.
func TestPublishOrdering(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	sub := d.Subscribe(SubOptions{Buffer: 1024})
	defer sub.Cancel()
	want := 0
	for i := 0; i < 100; i += 4 {
		d.Publish(streamRow(s, i))
		d.PublishBatch([]value.Tuple{streamRow(s, i+1), streamRow(s, i+2), streamRow(s, i+3)})
	}
	d.CloseStream()
	for {
		rows, err := sub.Recv(context.Background())
		if err != nil {
			break
		}
		for _, row := range rows {
			if row.Values[0].Kind() != value.KindInt {
				t.Fatalf("row kind = %v, want int", row.Values[0].Kind())
			}
			if v := row.Values[0].IntRaw(); v != int64(want) {
				t.Fatalf("row = %d, want %d", v, want)
			}
			want++
		}
	}
	if want != 100 {
		t.Fatalf("delivered %d rows, want 100", want)
	}
}

// RecvInto with one reused buffer, against a concurrent Block-policy
// publisher (run with -race): every row arrives once and in order, the
// buffer is reallocated only to grow, a timed-out wait hands the buffer
// back, and the stream drains to ErrStreamClosed.
func TestRecvIntoReusesBuffer(t *testing.T) {
	s := intSchema()
	d := NewDerivedStream("d", s)
	sub := d.Subscribe(SubOptions{Buffer: 16, Policy: Block})
	defer sub.Cancel()

	buf := make([]value.Tuple, 0, 16)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := sub.RecvInto(expired, buf); err != context.Canceled || len(got) != 0 || cap(got) != cap(buf) {
		t.Fatalf("RecvInto on an idle stream = len %d cap %d, %v; want the empty buffer back and context.Canceled", len(got), cap(got), err)
	}

	const n = 5000
	go func() {
		for i := 0; i < n; i += 5 {
			d.Publish(streamRow(s, i))
			d.PublishBatch([]value.Tuple{streamRow(s, i+1), streamRow(s, i+2), streamRow(s, i+3), streamRow(s, i+4)})
		}
		d.CloseStream()
	}()
	want, allocated := 0, 0
	for {
		got, err := sub.RecvInto(context.Background(), buf)
		if err != nil {
			if err != ErrStreamClosed {
				t.Fatal(err)
			}
			break
		}
		if len(got) > 0 && &got[0] != &buf[:1][0] {
			allocated++
		}
		for _, row := range got {
			if row.Values[0].Kind() != value.KindInt {
				t.Fatalf("row kind = %v, want int", row.Values[0].Kind())
			}
			if v := row.Values[0].IntRaw(); v != int64(want) {
				t.Fatalf("row = %d, want %d", v, want)
			}
			want++
		}
		buf = got
	}
	if want != n {
		t.Fatalf("delivered %d rows, want %d", want, n)
	}
	// A burst is at most the ring, and buf starts at the ring's size.
	if allocated != 0 {
		t.Errorf("RecvInto left the caller's buffer %d times", allocated)
	}
	if st := sub.Stats(); st.Delivered != n || st.Dropped != 0 {
		t.Errorf("stats = %+v, want %d delivered, none dropped", st, n)
	}
}

func ExampleDerivedStream_PublishBatch() {
	s := intSchema()
	d := NewDerivedStream("counts", s)
	sub := d.Subscribe(SubOptions{Buffer: 8})
	d.PublishBatch([]value.Tuple{streamRow(s, 1), streamRow(s, 2)})
	rows, _ := sub.Recv(context.Background())
	fmt.Println(len(rows))
	d.CloseStream()
	// Output: 2
}

// TestPublishSkipsLaterSubscriber is the deterministic reproducer of a
// stale delivery: a subscriber that attaches while a publish is partway
// through the shards must not receive that publish, only what is
// published after it subscribed. The hook parks the publish between its
// first two shards and subscribes there, into a shard the publish has
// not walked yet.
func TestPublishSkipsLaterSubscriber(t *testing.T) {
	d := NewDerivedStream("s", intSchema())
	early := d.Subscribe(SubOptions{Buffer: 16})
	defer early.Cancel()
	var late *Subscription
	betweenShards = func() {
		if late == nil {
			late = d.Subscribe(SubOptions{Buffer: 16})
		}
	}
	d.PublishBatch([]value.Tuple{streamRow(d.Schema(), 1)})
	betweenShards = nil
	if late == nil {
		t.Fatal("hook never ran; test is vacuous")
	}
	defer late.Cancel()
	if late.shard <= early.shard {
		t.Fatalf("late subscriber in shard %d, not after shard %d the publish had reached", late.shard, early.shard)
	}
	d.PublishBatch([]value.Tuple{streamRow(d.Schema(), 2)})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, tc := range []struct {
		name string
		sub  *Subscription
		want string
	}{{"early", early, "[1 2]"}, {"late", late, "[2]"}} {
		rows, err := tc.sub.Recv(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var xs []int64
		for _, r := range rows {
			x, _ := r.Get("x").IntVal()
			xs = append(xs, x)
		}
		if got := fmt.Sprint(xs); got != tc.want {
			t.Errorf("%s subscriber got rows %s, want %s", tc.name, got, tc.want)
		}
	}
}
