// Package asyncop implements asynchronous iteration for high-latency
// operators, the executor change §2 sketches via Goldman & Widom's
// WSQ/DSQ: instead of blocking the pipeline for hundreds of milliseconds
// per web-service call, the dispatcher keeps a bounded pool of in-flight
// requests and lets cheap tuples continue flowing, emitting results as
// they complete (optionally in input order for order-sensitive sinks).
package asyncop

import (
	"context"
	"sync"
	"time"
)

// Result pairs an input with its computed output or error.
type Result[I, O any] struct {
	In  I
	Out O
	Err error
	// Seq is the input's 0-based arrival position, for callers that need
	// to reassemble order themselves.
	Seq int64
}

// Dispatcher fans tuple work out to a bounded worker pool.
type Dispatcher[I, O any] struct {
	workers       int
	preserveOrder bool
	callTimeout   time.Duration
	fn            func(context.Context, I) (O, error)
}

// Option tunes a Dispatcher.
type Option func(*options)

type options struct {
	workers       int
	preserveOrder bool
	callTimeout   time.Duration
}

// WithWorkers bounds in-flight calls (default 8).
func WithWorkers(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.workers = n
		}
	}
}

// WithOrderPreserved makes Run emit results in input order. Completed-
// out-of-order results buffer until their predecessors finish — this is
// the partial-results trade-off of Raman & Hellerstein: order costs
// latency, unordered emission gives results as soon as they exist.
func WithOrderPreserved() Option {
	return func(o *options) { o.preserveOrder = true }
}

// WithPerCallTimeout gives every in-flight call its own derived deadline
// (0 disables). Without it a hung web-service call occupies a worker
// slot forever; with it the call's ctx expires, the worker frees, and
// the timeout surfaces as the Result's Err.
func WithPerCallTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.callTimeout = d
		}
	}
}

// New builds a dispatcher around fn.
func New[I, O any](fn func(context.Context, I) (O, error), opts ...Option) *Dispatcher[I, O] {
	o := options{workers: 8}
	for _, opt := range opts {
		opt(&o)
	}
	return &Dispatcher[I, O]{workers: o.workers, preserveOrder: o.preserveOrder, callTimeout: o.callTimeout, fn: fn}
}

// call runs fn under the per-call deadline, if configured.
func (d *Dispatcher[I, O]) call(ctx context.Context, item I) (O, error) {
	if d.callTimeout > 0 {
		cctx, cancel := context.WithTimeout(ctx, d.callTimeout)
		defer cancel()
		ctx = cctx
	}
	return d.fn(ctx, item)
}

// Run consumes in until it closes (or ctx is cancelled), applying fn
// with bounded concurrency. The returned channel closes after the last
// result. Errors are delivered as Results, never swallowed: a slow
// stream must not silently lose tweets.
func (d *Dispatcher[I, O]) Run(ctx context.Context, in <-chan I) <-chan Result[I, O] {
	out := make(chan Result[I, O], d.workers)
	if d.preserveOrder {
		go d.runOrdered(ctx, in, out)
	} else {
		go d.runUnordered(ctx, in, out)
	}
	return out
}

func (d *Dispatcher[I, O]) runUnordered(ctx context.Context, in <-chan I, out chan<- Result[I, O]) {
	defer close(out)
	var wg sync.WaitGroup
	sem := make(chan struct{}, d.workers)
	var seq int64
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case item, ok := <-in:
			if !ok {
				wg.Wait()
				return
			}
			s := seq
			seq++
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				wg.Wait()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				o, err := d.call(ctx, item)
				select {
				case out <- Result[I, O]{In: item, Out: o, Err: err, Seq: s}:
				case <-ctx.Done():
				}
			}()
		}
	}
}

func (d *Dispatcher[I, O]) runOrdered(ctx context.Context, in <-chan I, out chan<- Result[I, O]) {
	defer close(out)
	// Each item gets a single-use channel; a forwarder drains them in
	// submission order, so output order equals input order while up to
	// `workers` calls still run concurrently.
	pending := make(chan chan Result[I, O], d.workers)
	var wg sync.WaitGroup

	// Forwarder.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ch := range pending {
			select {
			case r := <-ch:
				select {
				case out <- r:
				case <-ctx.Done():
					// Keep draining pending so workers don't leak.
				}
			case <-ctx.Done():
			}
		}
	}()

	sem := make(chan struct{}, d.workers)
	var seq int64
feed:
	for {
		select {
		case <-ctx.Done():
			break feed
		case item, ok := <-in:
			if !ok {
				break feed
			}
			s := seq
			seq++
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				break feed
			}
			slot := make(chan Result[I, O], 1)
			select {
			case pending <- slot:
			case <-ctx.Done():
				<-sem
				break feed
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				o, err := d.call(ctx, item)
				slot <- Result[I, O]{In: item, Out: o, Err: err, Seq: s}
			}()
		}
	}
	wg.Wait()
	close(pending)
	<-done
}

// Map is the convenience form: apply fn to every element of items with
// bounded concurrency, returning outputs in input order and the first
// error encountered (after all work completes).
func Map[I, O any](ctx context.Context, items []I, workers int, fn func(context.Context, I) (O, error)) ([]O, error) {
	in := make(chan int)
	outs := make([]O, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	if workers <= 0 {
		workers = 8
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range in {
				outs[i], errs[i] = fn(ctx, items[i])
			}
		}()
	}
	for i := range items {
		select {
		case in <- i:
		case <-ctx.Done():
			close(in)
			wg.Wait()
			return outs, ctx.Err()
		}
	}
	close(in)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// ChunkAcked groups a channel's items into slices of up to size, the
// accumulate/flush loop behind a batching source. flushEvery bounds
// how long a partial chunk may wait before being delivered (0 =
// deliver only full chunks and the final partial chunk when in
// closes). Chunks are never empty, item order is preserved, and
// ownership of each delivered chunk passes to the receiver. ack, when
// non-nil, is called after every receive from in: how a producer that
// bounds its queue by the consumer's progress — a no-loss twitterapi
// connection — learns of it receive by receive, not chunk by chunk.
// The returned channel closes when in closes or ctx is cancelled.
func ChunkAcked[T any](ctx context.Context, in <-chan T, size int, flushEvery time.Duration, ack func()) <-chan []T {
	if size < 1 {
		size = 1
	}
	out := make(chan []T, 4)
	go func() {
		defer close(out)
		var timer *time.Timer
		var timerC <-chan time.Time
		if flushEvery > 0 {
			timer = time.NewTimer(flushEvery)
			defer timer.Stop()
			timerC = timer.C
		}
		chunk := make([]T, 0, size)
		flush := func() bool {
			if len(chunk) == 0 {
				return true
			}
			select {
			case out <- chunk:
			case <-ctx.Done():
				return false
			}
			chunk = make([]T, 0, size)
			return true
		}
		for {
			select {
			case t, ok := <-in:
				if !ok {
					flush()
					return
				}
				if ack != nil {
					ack()
				}
				chunk = append(chunk, t)
				if len(chunk) >= size {
					if !flush() {
						return
					}
				}
			case <-timerC:
				if !flush() {
					return
				}
				timer.Reset(flushEvery)
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
