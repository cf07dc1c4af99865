package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/testutil"
	"tweeql/internal/value"
)

// countingLiveSource is a live stream source that counts physical
// opens and closes — the observability the shared-scan lifecycle tests
// key on. Rows are fed through an internal DerivedStream; every open
// subscription sees rows published after it attached, the live-source
// contract.
type countingLiveSource struct {
	ds     *catalog.DerivedStream
	opens  atomic.Int32
	closes atomic.Int32
}

var liveSchema = value.NewSchema(
	value.Field{Name: "text", Kind: value.KindString},
	value.Field{Name: "n", Kind: value.KindInt},
)

func newCountingLiveSource() *countingLiveSource {
	return &countingLiveSource{ds: catalog.NewDerivedStream("live", liveSchema)}
}

func (s *countingLiveSource) Schema() *value.Schema { return liveSchema }
func (s *countingLiveSource) LiveStream() bool      { return true }

func (s *countingLiveSource) Open(ctx context.Context, req catalog.OpenRequest) (<-chan []value.Tuple, *catalog.OpenInfo, error) {
	s.opens.Add(1)
	in, info, err := s.ds.Open(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	out := make(chan []value.Tuple, 4)
	go func() {
		defer s.closes.Add(1)
		defer close(out)
		for b := range in {
			select {
			case out <- b:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, info, nil
}

func (s *countingLiveSource) feed(lo, hi int) {
	batch := make([]value.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ts := time.Unix(int64(1000+i), 0).UTC()
		batch = append(batch, value.NewTuple(liveSchema, []value.Value{
			value.String(fmt.Sprintf("row %d", i)),
			value.Int(int64(i)),
		}, ts))
	}
	s.ds.PublishBatch(batch)
}

// liveEngine wires an engine over one countingLiveSource named "live".
func liveEngine(t *testing.T, opts Options) (*Engine, *countingLiveSource) {
	t.Helper()
	cat := catalog.New()
	src := newCountingLiveSource()
	cat.RegisterSource("live", src)
	return NewEngine(cat, opts), src
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	testutil.WaitFor(t, 5*time.Second, cond, what)
}

// TestSharedScanCoalescesQueries pins the tentpole contract: N queries
// with one scan signature open ONE physical source subscription, and
// every query still sees every row.
func TestSharedScanCoalescesQueries(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchFlushEvery = time.Millisecond
	eng, src := liveEngine(t, opts)

	const nq = 5
	cursors := make([]*Cursor, nq)
	for i := range cursors {
		cur, err := eng.Query(context.Background(), "SELECT text, n FROM live")
		if err != nil {
			t.Fatal(err)
		}
		cursors[i] = cur
		if !cur.ScanShared() {
			t.Fatalf("query %d did not attach to a shared scan", i)
		}
		if got := cur.ScanSignature(); got != "src=live" {
			t.Fatalf("scan signature = %q, want src=live", got)
		}
	}
	if got := src.opens.Load(); got != 1 {
		t.Fatalf("physical opens = %d, want 1 for %d queries", got, nq)
	}
	scans := eng.Scans()
	if len(scans) != 1 || scans[0].Queries != nq || scans[0].Source != "live" {
		t.Fatalf("Scans() = %+v, want one scan with %d queries", scans, nq)
	}

	// Everyone attached; feed and end the stream.
	src.feed(0, 200)
	src.ds.CloseStream()
	for i, cur := range cursors {
		rows := drainCursor(t, cur)
		if len(rows) != 200 {
			t.Fatalf("query %d got %d rows, want 200", i, len(rows))
		}
		for j, r := range rows {
			if n, _ := r.Get("n").IntVal(); n != int64(j) {
				t.Fatalf("query %d row %d: n=%d (reordered or dropped)", i, j, n)
			}
		}
	}
	if got := eng.Scans(); len(got) != 0 {
		// The stream ended, so every bridge detached and the scan is gone.
		eventually(t, "scan teardown after end-of-stream", func() bool { return len(eng.Scans()) == 0 })
	}
}

// TestSharedScanLastDetachClosesSource pins the ref-count contract:
// stopping all but one query keeps the physical scan open; the last
// stop closes it; the next query opens a fresh one.
func TestSharedScanLastDetachClosesSource(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchFlushEvery = time.Millisecond
	eng, src := liveEngine(t, opts)

	curs := make([]*Cursor, 3)
	for i := range curs {
		cur, err := eng.Query(context.Background(), "SELECT text FROM live")
		if err != nil {
			t.Fatal(err)
		}
		curs[i] = cur
	}
	if src.opens.Load() != 1 {
		t.Fatalf("opens = %d, want 1", src.opens.Load())
	}

	curs[0].Stop()
	curs[1].Stop()
	eventually(t, "two queries detached", func() bool {
		s := eng.Scans()
		return len(s) == 1 && s[0].Queries == 1
	})
	if got := src.closes.Load(); got != 0 {
		t.Fatalf("physical source closed with a query still attached (closes=%d)", got)
	}

	curs[2].Stop()
	eventually(t, "last detach closes the physical scan", func() bool {
		return src.closes.Load() == 1 && len(eng.Scans()) == 0
	})

	// A new query after teardown opens a fresh subscription.
	cur, err := eng.Query(context.Background(), "SELECT text FROM live")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Stop()
	if got := src.opens.Load(); got != 2 {
		t.Fatalf("opens after re-query = %d, want 2", got)
	}
}

// TestSharedScanSignatureSeparation: different pushdown sets mean
// different physical streams, so they must NOT share a scan — while
// equal sets (in any conjunct order) must.
func TestSharedScanSignatureSeparation(t *testing.T) {
	eng, replay := testEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 20})
	ctx := context.Background()

	q1, err := eng.Query(ctx, "SELECT text FROM twitter WHERE text CONTAINS 'goal' AND followers > 10")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := eng.Query(ctx, "SELECT username FROM twitter WHERE followers > 10 AND text CONTAINS 'goal'")
	if err != nil {
		t.Fatal(err)
	}
	q3, err := eng.Query(ctx, "SELECT text FROM twitter")
	if err != nil {
		t.Fatal(err)
	}
	if q1.ScanSignature() != q2.ScanSignature() {
		t.Fatalf("commuted conjuncts got different signatures:\n %s\n %s", q1.ScanSignature(), q2.ScanSignature())
	}
	if q1.ScanSignature() == q3.ScanSignature() {
		t.Fatalf("different pushdown sets share signature %s", q1.ScanSignature())
	}
	scans := eng.Scans()
	if len(scans) != 2 {
		t.Fatalf("Scans() = %d entries, want 2: %+v", len(scans), scans)
	}
	for _, sc := range scans {
		switch sc.Signature {
		case q1.ScanSignature():
			if sc.Queries != 2 {
				t.Fatalf("pushdown scan serves %d queries, want 2", sc.Queries)
			}
			if !sc.Pushed {
				t.Fatal("pushdown scan did not push its candidate")
			}
		case q3.ScanSignature():
			if sc.Queries != 1 {
				t.Fatalf("full-stream scan serves %d queries, want 1", sc.Queries)
			}
		default:
			t.Fatalf("unexpected scan %q", sc.Signature)
		}
	}
	replay()
	r1, r2, r3 := drainCursor(t, q1), drainCursor(t, q2), drainCursor(t, q3)
	if len(r1) == 0 || len(r1) != len(r2) {
		t.Fatalf("sibling queries diverged: %d vs %d rows", len(r1), len(r2))
	}
	if len(r3) <= len(r1) {
		t.Fatalf("full-stream query got %d rows, filtered got %d", len(r3), len(r1))
	}
}

// TestSharedScanLimitSiblingIsolation: one query hitting its LIMIT
// (which cancels its context mid-stream) must not stall or starve a
// sibling on the same scan.
func TestSharedScanLimitSiblingIsolation(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchFlushEvery = time.Millisecond
	eng, src := liveEngine(t, opts)
	ctx := context.Background()

	limited, err := eng.Query(ctx, "SELECT n FROM live LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng.Query(ctx, "SELECT n FROM live")
	if err != nil {
		t.Fatal(err)
	}
	src.feed(0, 50)
	rows := drainCursor(t, limited)
	if len(rows) != 5 {
		t.Fatalf("limited query got %d rows, want 5", len(rows))
	}
	// The limited query's detach must leave the scan running for the
	// sibling, which keeps receiving rows fed afterwards.
	eventually(t, "limited query detached", func() bool {
		s := eng.Scans()
		return len(s) == 1 && s[0].Queries == 1
	})
	src.feed(50, 100)
	src.ds.CloseStream()
	got := drainCursor(t, full)
	if len(got) != 100 {
		t.Fatalf("sibling got %d rows, want all 100", len(got))
	}
	if src.opens.Load() != 1 {
		t.Fatalf("opens = %d, want 1", src.opens.Load())
	}
}

// TestSharedScansDisabled pins the fallback: with sharing ablated
// every query opens its own subscription.
func TestSharedScansDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchFlushEvery = time.Millisecond
	cat := catalog.New()
	src := newCountingLiveSource()
	cat.RegisterSource("live", src)
	eng := NewAblatedEngine(cat, opts, Ablation{PrivateScans: true})

	for i := 0; i < 3; i++ {
		cur, err := eng.Query(context.Background(), "SELECT text FROM live")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Stop()
		if cur.ScanShared() {
			t.Fatal("private scan reported as shared")
		}
	}
	if got := src.opens.Load(); got != 3 {
		t.Fatalf("opens = %d, want 3 private scans", got)
	}
	if got := eng.Scans(); len(got) != 0 {
		t.Fatalf("Scans() = %+v, want none", got)
	}
}

// TestSharedScanAttachDetachRace churns queries starting and stopping
// against a continuously fed scan; run under -race this is the
// synchronization gate for the ref-count and fan-out paths.
func TestSharedScanAttachDetachRace(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchFlushEvery = time.Millisecond
	eng, src := liveEngine(t, opts)

	stop := make(chan struct{})
	var feedWg sync.WaitGroup
	feedWg.Add(1)
	go func() {
		defer feedWg.Done()
		for i := 0; ; i += 10 {
			select {
			case <-stop:
				return
			default:
				src.feed(i, i+10)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
				cur, err := eng.Query(ctx, "SELECT n FROM live")
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				// Read a little, then walk away mid-stream; every other
				// query walks away without reading at all.
				if i%2 == 0 {
					n := 0
					for range cur.Rows() {
						if n++; n == 3 {
							break
						}
					}
				}
				cur.Stop()
				cancel()
			}
		}()
	}
	wg.Wait()
	close(stop)
	feedWg.Wait()

	eventually(t, "all scans torn down", func() bool { return len(eng.Scans()) == 0 })
	if src.opens.Load() != src.closes.Load() {
		eventually(t, "opens == closes", func() bool { return src.opens.Load() == src.closes.Load() })
	}
}

// TestDerivedStreamReadDeliversWithoutFlush: a query FROM a derived
// stream (an INTO STREAM target, $sys.metrics) receives each burst the
// stream hands on as it arrives. No flush timer stands between them:
// with BatchFlushEvery at an hour, ten rows reach the reader while the
// stream is still open.
func TestDerivedStreamReadDeliversWithoutFlush(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchFlushEvery = time.Hour
	cat := catalog.New()
	ds := catalog.NewDerivedStream("d", liveSchema)
	cat.RegisterSource("d", ds)
	eng := NewEngine(cat, opts)
	cur, err := eng.Query(context.Background(), "SELECT text, n FROM d")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Stop()
	got, done := make(chan int64, 10), make(chan struct{})
	go func() {
		defer close(done)
		for r := range cur.Rows() {
			n, _ := r.Get("n").IntVal()
			got <- n
		}
	}()
	rows := make([]value.Tuple, 10)
	for i := range rows {
		rows[i] = value.NewTuple(liveSchema, []value.Value{
			value.String(fmt.Sprintf("row %d", i)), value.Int(int64(i)),
		}, time.Unix(int64(1000+i), 0).UTC())
	}
	ds.PublishBatch(rows)
	for i := int64(0); i < 10; i++ {
		select {
		case n := <-got:
			if n != i {
				t.Fatalf("row %d: n=%d", i, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("row %d did not arrive while the stream was open", i)
		}
	}
	ds.CloseStream()
	<-done
}

// TestDerivedStreamChainKeepsBurst: SELECT id, text FROM twitter INTO
// STREAM s, then SELECT id FROM s, and one 1 000-row PublishBatch into
// s before the reader runs. The read of s subscribes with the query's
// SourceBuffer, which covers the burst, so no row is lost on the way.
func TestDerivedStreamChainKeepsBurst(t *testing.T) {
	const burst = 1000
	opts := DefaultOptions()
	opts.SourceBuffer = 2 * burst
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewDerivedStream("twitter", catalog.TweetSchema))
	eng := NewEngine(cat, opts)
	into, err := eng.Query(context.Background(), "SELECT id, text FROM twitter INTO STREAM s")
	if err != nil {
		t.Fatal(err)
	}
	defer into.Stop()
	read, err := eng.Query(context.Background(), "SELECT id FROM s")
	if err != nil {
		t.Fatal(err)
	}
	defer read.Stop()
	src, err := cat.Source("s")
	if err != nil {
		t.Fatal(err)
	}
	s := src.(*catalog.DerivedStream)
	rows := make([]value.Tuple, burst)
	for i := range rows {
		rows[i] = value.NewTuple(s.Schema(), []value.Value{value.Int(int64(i)), value.String("burst")}, time.Unix(int64(1000+i), 0).UTC())
	}
	s.PublishBatch(rows)
	s.CloseStream()
	n := 0
	for r := range read.Rows() {
		if id, _ := r.Get("id").IntVal(); id != int64(n) {
			t.Fatalf("row %d: id %d", n, id)
		}
		n++
	}
	if n != burst {
		t.Fatalf("read %d of %d rows (stream dropped %d)", n, burst, s.Stats().Dropped)
	}
}
