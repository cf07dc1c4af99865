package asyncop

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func feed(n int) <-chan int {
	ch := make(chan int)
	go func() {
		defer close(ch)
		for i := 0; i < n; i++ {
			ch <- i
		}
	}()
	return ch
}

func TestUnorderedDeliversAll(t *testing.T) {
	d := New(func(_ context.Context, x int) (int, error) { return x * 2, nil }, WithWorkers(4))
	seen := make(map[int]bool)
	for r := range d.Run(context.Background(), feed(100)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Out != r.In*2 {
			t.Fatalf("out = %d for in %d", r.Out, r.In)
		}
		seen[r.In] = true
	}
	if len(seen) != 100 {
		t.Errorf("delivered %d results", len(seen))
	}
}

func TestOrderPreserved(t *testing.T) {
	// Workers sleep inversely to index, so completion order inverts input
	// order — output must still be input order.
	d := New(func(_ context.Context, x int) (int, error) {
		//tweeqlvet:ignore sleepsync -- simulated work latency inside the operation under test, not synchronization
		time.Sleep(time.Duration(10-x) * time.Millisecond)
		return x, nil
	}, WithWorkers(10), WithOrderPreserved())
	var got []int
	for r := range d.Run(context.Background(), feed(10)) {
		got = append(got, r.Out)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, x := range got {
		if x != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	var inFlight, peak atomic.Int64
	d := New(func(_ context.Context, x int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		//tweeqlvet:ignore sleepsync -- simulated work latency so concurrent workers overlap, not synchronization
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return x, nil
	}, WithWorkers(3))
	for range d.Run(context.Background(), feed(30)) {
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d > 3", p)
	}
}

func TestErrorsDelivered(t *testing.T) {
	boom := errors.New("boom")
	d := New(func(_ context.Context, x int) (int, error) {
		if x%2 == 0 {
			return 0, boom
		}
		return x, nil
	}, WithWorkers(2))
	var errs, oks int
	for r := range d.Run(context.Background(), feed(10)) {
		if r.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if errs != 5 || oks != 5 {
		t.Errorf("errs=%d oks=%d", errs, oks)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := New(func(ctx context.Context, x int) (int, error) {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
		}
		return x, nil
	}, WithWorkers(2))
	in := make(chan int)
	go func() {
		for i := 0; ; i++ {
			select {
			case in <- i:
			case <-ctx.Done():
				close(in)
				return
			}
		}
	}()
	out := d.Run(ctx, in)
	<-out // at least one result or close
	cancel()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("output did not close after cancel")
		}
	}
}

func TestOrderedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d := New(func(ctx context.Context, x int) (int, error) {
		return x, nil
	}, WithWorkers(2), WithOrderPreserved())
	out := d.Run(ctx, feed(1000))
	<-out
	cancel()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("ordered output did not close after cancel")
		}
	}
}

func TestSeqAssigned(t *testing.T) {
	d := New(func(_ context.Context, x int) (int, error) { return x, nil }, WithWorkers(4))
	seqs := make(map[int64]bool)
	for r := range d.Run(context.Background(), feed(50)) {
		if r.Seq != int64(r.In) {
			t.Fatalf("seq %d for input %d", r.Seq, r.In)
		}
		seqs[r.Seq] = true
	}
	if len(seqs) != 50 {
		t.Errorf("distinct seqs = %d", len(seqs))
	}
}

func TestMap(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	out, err := Map(context.Background(), items, 3, func(_ context.Context, x int) (int, error) {
		return x * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range items {
		if out[i] != x*x {
			t.Errorf("out[%d] = %d", i, out[i])
		}
	}
	boom := errors.New("boom")
	_, err = Map(context.Background(), items, 2, func(_ context.Context, x int) (int, error) {
		if x == 3 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("Map err = %v", err)
	}
	// Empty input.
	if out, err := Map(context.Background(), nil, 2, func(_ context.Context, x int) (int, error) { return x, nil }); err != nil || len(out) != 0 {
		t.Errorf("empty Map = %v, %v", out, err)
	}
}

func TestMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := make([]int, 10000)
	_, err := Map(ctx, items, 1, func(ctx context.Context, x int) (int, error) {
		//tweeqlvet:ignore sleepsync -- simulated work latency inside the operation under test, not synchronization
		time.Sleep(time.Millisecond)
		return x, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestThroughputAdvantage(t *testing.T) {
	// The E4 claim in miniature: with 5ms per call and 8 workers, 40
	// calls should take far less than the serial 200ms.
	d := New(func(_ context.Context, x int) (int, error) {
		//tweeqlvet:ignore sleepsync -- the E4 experiment needs a fixed per-call latency to measure against; not synchronization
		time.Sleep(5 * time.Millisecond)
		return x, nil
	}, WithWorkers(8))
	start := time.Now()
	n := 0
	for range d.Run(context.Background(), feed(40)) {
		n++
	}
	elapsed := time.Since(start)
	if n != 40 {
		t.Fatalf("delivered %d", n)
	}
	if elapsed > 120*time.Millisecond {
		t.Errorf("async run took %v, want well under serial 200ms", elapsed)
	}
}

func TestPerCallTimeoutFreesHungWorker(t *testing.T) {
	// Item 0 hangs until its ctx dies; the per-call deadline must free
	// the worker so the remaining items still complete.
	d := New(func(ctx context.Context, x int) (int, error) {
		if x == 0 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return x, nil
	}, WithWorkers(1), WithPerCallTimeout(10*time.Millisecond))
	var ok, timedOut int
	for r := range d.Run(context.Background(), feed(4)) {
		if r.Err != nil {
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("in %d: err = %v", r.In, r.Err)
			}
			timedOut++
			continue
		}
		ok++
	}
	if timedOut != 1 || ok != 3 {
		t.Fatalf("timedOut=%d ok=%d, want 1/3", timedOut, ok)
	}
}

func TestPerCallTimeoutDisabledByDefault(t *testing.T) {
	d := New(func(ctx context.Context, x int) (int, error) {
		if _, has := ctx.Deadline(); has {
			return 0, errors.New("unexpected deadline")
		}
		return x, nil
	}, WithWorkers(2))
	for r := range d.Run(context.Background(), feed(4)) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// collectChunks drains ChunkAcked's output with a nil ack.
func collectChunks(in <-chan int, size int, flushEvery time.Duration) [][]int {
	var out [][]int
	for c := range ChunkAcked(context.Background(), in, size, flushEvery, nil) {
		out = append(out, c)
	}
	return out
}

func TestChunkSplitAndFinalPartial(t *testing.T) {
	got := collectChunks(feed(10), 4, 0)
	if len(got) != 3 || len(got[0]) != 4 || len(got[1]) != 4 || len(got[2]) != 2 {
		t.Fatalf("chunks = %v", got)
	}
	// Order is preserved across the split.
	i := 0
	for _, c := range got {
		for _, v := range c {
			if v != i {
				t.Fatalf("item %d out of order: %d", i, v)
			}
			i++
		}
	}
}

func TestChunkEmptyInput(t *testing.T) {
	if got := collectChunks(feed(0), 4, 0); len(got) != 0 {
		t.Fatalf("empty input produced %d chunks", len(got))
	}
}

func TestChunkFlushInterval(t *testing.T) {
	// A partial chunk on a stalled stream must flush after the
	// interval, not wait for the chunk to fill.
	in := make(chan int, 4)
	out := ChunkAcked(context.Background(), in, 1000, 5*time.Millisecond, nil)
	in <- 7
	select {
	case c := <-out:
		if len(c) != 1 || c[0] != 7 {
			t.Fatalf("flushed chunk = %v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partial chunk never flushed")
	}
	close(in)
}
