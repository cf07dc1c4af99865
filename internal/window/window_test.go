package window

import (
	"testing"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/value"
)

var epoch = time.Unix(0, 0).UTC()

func TestTumbling(t *testing.T) {
	size := time.Hour
	ts := epoch.Add(90 * time.Minute)
	s := Tumbling(ts, size)
	if !s.Start.Equal(epoch.Add(time.Hour)) || !s.End.Equal(epoch.Add(2*time.Hour)) {
		t.Errorf("span = %+v", s)
	}
	if !s.Contains(ts) || s.Contains(s.End) || !s.Contains(s.Start) {
		t.Error("Contains semantics wrong (inclusive start, exclusive end)")
	}
}

func TestSliding(t *testing.T) {
	size, every := time.Hour, 15*time.Minute
	ts := epoch.Add(2*time.Hour + 20*time.Minute)
	spans := Sliding(ts, size, every)
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4 (size/every)", len(spans))
	}
	for i, s := range spans {
		if !s.Contains(ts) {
			t.Errorf("span %d %+v does not contain ts", i, s)
		}
		if i > 0 && !spans[i-1].Start.Before(s.Start) {
			t.Error("spans not chronological")
		}
	}
	// Degenerate: every == size → tumbling.
	one := Sliding(ts, size, size)
	if len(one) != 1 || one[0] != Tumbling(ts, size) {
		t.Errorf("degenerate sliding = %+v", one)
	}
	// The manager walks the same spans without building the slice,
	// gaps between hopping windows included.
	for _, c := range []struct{ size, every time.Duration }{
		{size, every}, {size, 0}, {time.Minute, 5 * time.Minute}, {7 * time.Minute, 3 * time.Minute},
	} {
		m := NewManager(c.size, c.every)
		for i := 0; i < 50; i++ {
			at := ts.Add(time.Duration(i) * 37 * time.Second)
			want := Sliding(at, c.size, c.every)
			start, n := m.spansOf(at)
			if n != len(want) || n > 0 && start != want[0].Start {
				t.Fatalf("size %v every %v at %v: spansOf = %v, %d; Sliding = %+v", c.size, c.every, at, start, n, want)
			}
		}
	}
}

func TestEncodeKeys(t *testing.T) {
	a := Encode([]value.Value{value.Int(1), value.String("x")})
	b := Encode([]value.Value{value.Int(1), value.String("x")})
	c := Encode([]value.Value{value.Int(1), value.String("y")})
	if a != b {
		t.Error("equal values produced different keys")
	}
	if a == c {
		t.Error("different values produced same key")
	}
	// Kind participates: Int(1) vs String("1") must differ.
	d := Encode([]value.Value{value.String("1"), value.String("x")})
	if a == d {
		t.Error("kind not encoded in key")
	}
}

func mkCountAvg() []agg.Func {
	c, _ := agg.New("COUNT", true)
	a, _ := agg.New("AVG", false)
	return []agg.Func{c, a}
}

func TestManagerTumblingGroups(t *testing.T) {
	m := NewManager(time.Hour, 0)
	fold := func(x float64) func(*Bucket) {
		return func(b *Bucket) {
			b.Aggs[0].Add(value.Int(1))
			b.Aggs[1].Add(value.Float(x))
		}
	}
	// Two groups in window 0, one in window 1.
	m.Observe(epoch.Add(10*time.Minute), []value.Value{value.String("tokyo")}, mkCountAvg, fold(1))
	m.Observe(epoch.Add(20*time.Minute), []value.Value{value.String("tokyo")}, mkCountAvg, fold(3))
	m.Observe(epoch.Add(30*time.Minute), []value.Value{value.String("capetown")}, mkCountAvg, fold(5))
	m.Observe(epoch.Add(70*time.Minute), []value.Value{value.String("tokyo")}, mkCountAvg, fold(7))

	if m.OpenBuckets() != 3 {
		t.Errorf("open buckets = %d", m.OpenBuckets())
	}
	closed := m.Advance(epoch.Add(time.Hour))
	if len(closed) != 2 {
		t.Fatalf("closed = %d buckets", len(closed))
	}
	// Sorted by key: capetown before tokyo.
	if closed[0].GroupVals[0].String() != "capetown" || closed[1].GroupVals[0].String() != "tokyo" {
		t.Errorf("order: %v, %v", closed[0].GroupVals, closed[1].GroupVals)
	}
	if closed[1].Rows != 2 {
		t.Errorf("tokyo rows = %d", closed[1].Rows)
	}
	avg, _ := closed[1].Aggs[1].Result().FloatVal()
	if avg != 2 {
		t.Errorf("tokyo avg = %v", avg)
	}
	// Window 1 still open.
	if m.OpenBuckets() != 1 {
		t.Errorf("open after advance = %d", m.OpenBuckets())
	}
	rest := m.Flush()
	if len(rest) != 1 || rest[0].Rows != 1 {
		t.Errorf("flush = %+v", rest)
	}
	if m.OpenBuckets() != 0 {
		t.Error("flush left state behind")
	}
}

func TestManagerWatermarkFromObserve(t *testing.T) {
	m := NewManager(time.Minute, 0)
	m.Observe(epoch.Add(61*time.Second), []value.Value{value.Int(0)}, mkCountAvg, func(b *Bucket) {
		b.Aggs[0].Add(value.Int(1))
	})
	if !m.Watermark().Equal(epoch.Add(61 * time.Second)) {
		t.Errorf("watermark = %v", m.Watermark())
	}
	// Advancing with an older watermark must not regress.
	m.Advance(epoch)
	if !m.Watermark().Equal(epoch.Add(61 * time.Second)) {
		t.Error("watermark regressed")
	}
}

func TestConfidenceSampleFloor(t *testing.T) {
	// Identical observations give zero sample variance; without the CLT
	// sample floor the bucket would emit after two rows. With the
	// default floor it must wait for 30.
	m := NewManager(time.Hour, 0)
	m.EnableConfidence(0.95, 0.5)
	mkAvg := func() []agg.Func {
		a, _ := agg.New("AVG", false)
		return []agg.Func{a}
	}
	key := []value.Value{value.String("x")}
	emitted := 0
	for i := 1; i <= DefaultConfidenceMinSamples+5; i++ {
		early := m.Observe(epoch.Add(time.Duration(i)*time.Second), key, mkAvg, func(b *Bucket) {
			b.Aggs[0].Add(value.Float(1))
		})
		if len(early) > 0 {
			emitted = i
			break
		}
	}
	if emitted != DefaultConfidenceMinSamples {
		t.Errorf("constant bucket emitted after %d rows, want %d", emitted, DefaultConfidenceMinSamples)
	}
}

func TestConfidenceEarlyEmission(t *testing.T) {
	m := NewManager(time.Hour, 0)
	m.EnableConfidence(0.95, 0.5)
	m.SetConfidenceMinSamples(2)
	fold := func(x float64) func(*Bucket) {
		return func(b *Bucket) { b.Aggs[0].Add(value.Float(x)) }
	}
	mkAvg := func() []agg.Func {
		a, _ := agg.New("AVG", false)
		return []agg.Func{a}
	}
	// Constant observations: after the second one, variance = 0 → CI = 0
	// ≤ 0.5, so the bucket emits early.
	key := []value.Value{value.String("tokyo")}
	if early := m.Observe(epoch.Add(time.Minute), key, mkAvg, fold(2)); len(early) != 0 {
		t.Fatalf("one observation emitted early: %+v", early)
	}
	early := m.Observe(epoch.Add(2*time.Minute), key, mkAvg, fold(2))
	if len(early) != 1 {
		t.Fatalf("constant bucket did not emit early")
	}
	if !early[0].EmittedEarly || early[0].EarlyAt.IsZero() {
		t.Error("early bucket not marked")
	}
	// Further observations do not re-emit.
	if again := m.Observe(epoch.Add(3*time.Minute), key, mkAvg, fold(2)); len(again) != 0 {
		t.Error("bucket emitted twice")
	}
	// Window close skips the early-emitted bucket.
	if closed := m.Advance(epoch.Add(2 * time.Hour)); len(closed) != 0 {
		t.Errorf("early bucket re-emitted at close: %+v", closed)
	}
}

func TestConfidenceDenseEmitsSparseWaits(t *testing.T) {
	// The E3 shape in miniature: a dense group meets the CI bar within
	// the window; a sparse, high-variance group must wait for the window
	// to close.
	m := NewManager(time.Hour, 0)
	m.EnableConfidence(0.95, 0.3)
	m.SetConfidenceMinSamples(10)
	mkAvg := func() []agg.Func {
		a, _ := agg.New("AVG", false)
		return []agg.Func{a}
	}
	dense := []value.Value{value.String("tokyo")}
	sparse := []value.Value{value.String("capetown")}
	earlyCount := 0
	// Dense: 200 low-variance samples.
	for i := 0; i < 200; i++ {
		x := 0.5
		if i%2 == 0 {
			x = 0.7
		}
		ts := epoch.Add(time.Duration(i) * 10 * time.Second)
		if e := m.Observe(ts, dense, mkAvg, func(b *Bucket) { b.Aggs[0].Add(value.Float(x)) }); len(e) > 0 {
			earlyCount += len(e)
		}
	}
	// Sparse: 3 wild samples.
	for i, x := range []float64{-1, 1, -1} {
		ts := epoch.Add(time.Duration(i) * 19 * time.Minute)
		if e := m.Observe(ts, sparse, mkAvg, func(b *Bucket) { b.Aggs[0].Add(value.Float(x)) }); len(e) > 0 {
			t.Errorf("sparse group emitted early")
		}
	}
	if earlyCount != 1 {
		t.Errorf("dense group early emissions = %d, want 1", earlyCount)
	}
	closed := m.Advance(epoch.Add(2 * time.Hour))
	if len(closed) != 1 || closed[0].GroupVals[0].String() != "capetown" {
		t.Errorf("closed = %+v", closed)
	}
}

func TestSlidingObserveMultipleWindows(t *testing.T) {
	m := NewManager(time.Hour, 30*time.Minute)
	ts := epoch.Add(45 * time.Minute)
	m.Observe(ts, []value.Value{value.Int(0)}, mkCountAvg, func(b *Bucket) {
		b.Aggs[0].Add(value.Int(1))
	})
	// ts=45min belongs to [0,60) and [30,90).
	if m.OpenBuckets() != 2 {
		t.Errorf("open buckets = %d, want 2", m.OpenBuckets())
	}
	closed := m.Advance(epoch.Add(90 * time.Minute))
	if len(closed) != 2 {
		t.Errorf("closed = %d", len(closed))
	}
}

func TestMinMaxNeverGateConfidence(t *testing.T) {
	m := NewManager(time.Hour, 0)
	m.EnableConfidence(0.95, 0.1)
	mk := func() []agg.Func {
		mn, _ := agg.New("MIN", false)
		return []agg.Func{mn}
	}
	// MIN has no CI: a bucket with only CI-less aggregates never
	// early-emits (withinCI requires at least one gated aggregate).
	for i := 0; i < 10; i++ {
		e := m.Observe(epoch.Add(time.Duration(i)*time.Minute), []value.Value{value.Int(0)}, mk, func(b *Bucket) {
			b.Aggs[0].Add(value.Float(1))
		})
		if len(e) != 0 {
			t.Fatal("MIN-only bucket emitted early")
		}
	}
}

// TestOneInstantOneWindow: rows at 13:00:30 UTC and 13:00:40 UTC, the
// second written as 15:00:40 +02:00, fall in one one-minute window,
// which closes once, in UTC.
func TestOneInstantOneWindow(t *testing.T) {
	m := NewManager(time.Minute, 0)
	mk := func() []agg.Func { f, _ := agg.New("COUNT", true); return []agg.Func{f} }
	fold := func(b *Bucket) { b.Aggs[0].Add(value.Int(1)) }
	m.Observe(time.Date(2011, 6, 12, 13, 0, 30, 0, time.UTC), nil, mk, fold)
	m.Observe(time.Date(2011, 6, 12, 15, 0, 40, 0, time.FixedZone("CEST", 2*3600)), nil, mk, fold)
	closed := m.Advance(time.Date(2011, 6, 12, 13, 2, 0, 0, time.UTC))
	if len(closed) != 1 || closed[0].Rows != 2 {
		t.Fatalf("closed %d buckets (%v), want one of 2 rows", len(closed), closed)
	}
	if s := closed[0].Span; !s.Start.Equal(time.Date(2011, 6, 12, 13, 0, 0, 0, time.UTC)) || s.End.Location() != time.UTC {
		t.Fatalf("span %v, want [13:00, 13:01) UTC", s)
	}
}
