package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/value"
)

// TestAsyncProjectOverBatches runs AsyncProjectStage over batches of 1,
// 3 and 256 rows with a UDF of random latency that fails on one row and
// degrades another. Output order is input order minus the failed row,
// the error and degraded counts are one each at every batch size, and
// with one-row batches the calls in flight still reach the worker bound:
// latency hiding carries across batch boundaries.
func TestAsyncProjectOverBatches(t *testing.T) {
	const (
		n       = 96
		workers = 8
		failRow = 13
		degrRow = 40
	)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	cat := catalog.New()
	if err := cat.RegisterScalar(&catalog.ScalarUDF{
		Name: "lookup", Arity: 1, HighLatency: true,
		Fn: func(ctx context.Context, args []value.Value) (value.Value, error) {
			now := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			mu.Lock()
			d := time.Duration(200+rng.Intn(1800)) * time.Microsecond
			mu.Unlock()
			//tweeqlvet:ignore sleepsync -- simulated web-service latency the async stage must overlap
			time.Sleep(d)
			switch k, _ := args[0].IntVal(); k {
			case failRow:
				return value.Null(), errors.New("lookup: service error")
			case degrRow:
				NoteDegraded(ctx)
				return value.Null(), nil
			}
			return value.Arith("*", args[0], value.Int(10))
		},
	}); err != nil {
		t.Fatal(err)
	}
	items := []ProjItem{{Name: "n", Expr: expr(t, "n")}, {Name: "x", Expr: expr(t, "lookup(n)")}}
	rows := make([]value.Tuple, n)
	for i := range rows {
		rows[i] = row("r", int64(i), value.Null(), value.Null(), time.Unix(int64(i), 0))
	}
	for _, size := range []int{1, 3, 256} {
		inFlight.Store(0)
		peak.Store(0)
		stats := &Stats{}
		ctx := WithStats(context.Background(), stats)
		stage := AsyncProjectStage(NewEvaluator(cat), nil, items, testSchema(), workers, 0, stats)
		var got []value.Tuple
		for b := range stage(ctx, pull(chunk(size, rows))) {
			if len(b) == 0 {
				t.Fatalf("batch size %d: empty output batch", size)
			}
			got = append(got, b...)
		}
		want := int64(0)
		for _, r := range got {
			if want == failRow {
				want++
			}
			if k, _ := r.Get("n").IntVal(); k != want {
				t.Fatalf("batch size %d: row n=%d where n=%d belongs", size, k, want)
			}
			want++
		}
		if len(got) != n-1 {
			t.Fatalf("batch size %d: %d rows, want %d", size, len(got), n-1)
		}
		if e, d := stats.EvalErrors.Load(), stats.Degraded.Load(); e != 1 || d != 1 {
			t.Errorf("batch size %d: EvalErrors = %d, Degraded = %d, want 1 and 1", size, e, d)
		}
		if size == 1 && peak.Load() != workers {
			t.Errorf("one-row batches: peak calls in flight = %d, want %d", peak.Load(), workers)
		}
	}
}
