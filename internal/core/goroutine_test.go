package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tweeql/internal/testutil"
)

// settledGoroutines returns the goroutine count once it has held still
// for 20 polls, so goroutines still winding down from earlier work do
// not count.
func settledGoroutines(t *testing.T) int {
	n, same := -1, 0
	testutil.WaitFor(t, 5*time.Second, func() bool {
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
		return same >= 20
	}, "goroutine count to settle")
	return n
}

// TestQueryGoroutines pins where a query runs: in the goroutine that
// reads its cursor. A query attached to a live shared scan starts no
// goroutine of its own at Query, runs in its one consumer while read,
// and Stop — read or never read — returns the count to where it was and
// detaches the query from the scan. A self-join is read the same way:
// it attaches to that scan once, for both sides, and runs in its
// consumer.
func TestQueryGoroutines(t *testing.T) {
	opts := DefaultOptions()
	opts.BatchFlushEvery = time.Millisecond
	eng, src := liveEngine(t, opts)
	const sql = "SELECT text, n FROM live WHERE n >= 0"

	// The first query opens the scan: its reader goroutines and its
	// supervisor are the baseline.
	first, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Stop()
	attached := func(n int) func() bool {
		return func() bool { s := eng.Scans(); return len(s) == 1 && s[0].Queries == n }
	}
	base := settledGoroutines(t)
	atMost := func(what string, n int) {
		t.Helper()
		eventually(t, what, func() bool { return runtime.NumGoroutine() <= n })
	}

	second, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !second.ScanShared() {
		t.Fatal("second query did not attach to the shared scan")
	}
	atMost("no goroutine started at Query", base)

	got, done := make(chan int, 1), make(chan struct{})
	go func() {
		defer close(done)
		for r := range second.Rows() {
			n, _ := r.Get("n").IntVal()
			select {
			case got <- int(n):
			default:
			}
		}
	}()
	src.feed(0, 50)
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("reader saw no rows")
	}
	atMost("nothing beyond the consumer while read", base+1)

	second.Stop()
	<-done
	atMost("count back to baseline after Stop", base)
	eventually(t, "read query detached", attached(1))

	never, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "unread query attached", attached(2))
	src.feed(50, 100)
	never.Stop()
	atMost("count back to baseline after Stop of an unread query", base)
	eventually(t, "unread query detached", attached(1))

	join, err := eng.Query(context.Background(), "SELECT a.text FROM live AS a JOIN live AS b ON a.n = b.n WINDOW 1 MINUTE")
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "join attached once", attached(2))
	atMost("no goroutine started by an unread join", base)
	joined, done := make(chan struct{}, 1), make(chan struct{})
	go func() {
		defer close(done)
		for range join.Rows() {
			select {
			case joined <- struct{}{}:
			default:
			}
		}
	}()
	src.feed(100, 150)
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("join reader saw no rows")
	}
	atMost("nothing beyond the join's consumer while read", base+1)
	join.Stop()
	<-done
	atMost("count back to baseline after Stop of a join", base)
	eventually(t, "join detached", attached(1))
}
