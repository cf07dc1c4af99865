package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// sampledSeqs runs `total` timed observations through a fresh profile
// with the given trace options and returns which sequence numbers were
// sampled into the ring.
func sampledSeqs(t *testing.T, opts ProfileOptions, total int) []uint64 {
	t.Helper()
	p := NewProfile("q", opts)
	st := p.Stage("filter", "x", "batch")
	for i := 0; i < total; i++ {
		st.Enter().Exit(1, 1)
	}
	var seqs []uint64
	for _, ev := range p.Tracer().Events() {
		seqs = append(seqs, ev.Seq)
	}
	return seqs
}

// TestTraceSamplingDeterministic: the sampled set is a pure function
// of (TraceEveryN, TraceSeed) — same inputs, same batches, run after
// run; a different seed shifts the set.
func TestTraceSamplingDeterministic(t *testing.T) {
	a := sampledSeqs(t, ProfileOptions{TraceEveryN: 8, TraceSeed: 3}, 100)
	b := sampledSeqs(t, ProfileOptions{TraceEveryN: 8, TraceSeed: 3}, 100)
	if len(a) == 0 {
		t.Fatal("no spans sampled")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed sampled %d vs %d spans", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	for _, seq := range a {
		if (seq+3%8)%8 != 0 {
			t.Errorf("seq %d not on the (seq+seed%%n)%%n==0 grid", seq)
		}
	}

	c := sampledSeqs(t, ProfileOptions{TraceEveryN: 8, TraceSeed: 4}, 100)
	if a[0] == c[0] {
		t.Errorf("different seeds picked the same first span (seq %d)", a[0])
	}
}

// TestTraceRingBound: the ring retains at most TraceCap events,
// newest-first wins, and Dropped counts the overwrites.
func TestTraceRingBound(t *testing.T) {
	p := NewProfile("q", ProfileOptions{TraceEveryN: 1, TraceCap: 4})
	st := p.Stage("scan", "src", "batch")
	for i := 0; i < 10; i++ {
		st.Enter().Exit(1, 1)
	}
	tr := p.Tracer()
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want cap 4", len(evs))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != 10 {
		t.Fatalf("newest retained seq = %d, want 10", evs[len(evs)-1].Seq)
	}
}

// TestObserveLagFakeClock pins the end-to-end lag math with an
// injected clock: lag = now - event timestamp, rows-weighted, with
// zero timestamps ignored.
func TestObserveLagFakeClock(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	p := NewProfile("q", ProfileOptions{Now: func() time.Time { return now }})

	p.ObserveLag(now.Add(-250*time.Millisecond), 3)
	p.ObserveLag(now.Add(-2*time.Second), 1)
	p.ObserveLag(time.Time{}, 5) // no event time: must record nothing

	lag := p.Snapshot().Lag
	if lag.Count != 4 {
		t.Fatalf("lag Count = %d, want 4 (3 rows + 1 row, zero-ts ignored)", lag.Count)
	}
	if want := 3*0.25 + 2.0; lag.Sum != want {
		t.Fatalf("lag Sum = %g, want %g", lag.Sum, want)
	}
	// Majority of rows lag 250ms: P50 must sit in its power-of-2 bucket.
	if p50 := lag.Quantile(0.5); p50 < 0.125 || p50 > 0.5 {
		t.Errorf("lag P50 = %gs, want within [0.125, 0.5]", p50)
	}
	if p99 := lag.Quantile(0.99); p99 < 1 || p99 > 4 {
		t.Errorf("lag P99 = %gs, want within [1, 4]", p99)
	}
}

// TestNilSafety: the disabled state is a nil pointer at every level;
// none of it may allocate work or panic.
func TestNilSafety(t *testing.T) {
	var p *Profile
	st := p.Stage("scan", "x", "batch")
	if st != nil {
		t.Fatal("nil profile returned non-nil stage")
	}
	st.Enter().Exit(1, 1)
	p.ObserveLag(time.Now(), 1)
	if p.Tracer() != nil {
		t.Fatal("nil profile returned non-nil tracer")
	}
	if s := p.Snapshot(); len(s.Stages) != 0 {
		t.Fatal("nil profile snapshot has stages")
	}
	(Span{}).Exit(1, 1)
}

// TestStageOrderAndSelectivity: registration order is pipeline order,
// and stage identity is (kind, name).
func TestStageOrderAndSelectivity(t *testing.T) {
	p := NewProfile("q", ProfileOptions{})
	p.Stage("scan", "source", "batch").Enter().Exit(100, 100)
	p.Stage("filter", "2 conjuncts", "batch").Enter().Exit(100, 25)
	again := p.Stage("scan", "source", "batch")
	again.Enter().Exit(50, 50)

	snap := p.Snapshot()
	if len(snap.Stages) != 2 {
		t.Fatalf("got %d stages, want 2 (re-registration must dedupe)", len(snap.Stages))
	}
	if snap.Stages[0].Kind != "scan" || snap.Stages[1].Kind != "filter" {
		t.Fatalf("stage order = %s,%s; want scan,filter", snap.Stages[0].Kind, snap.Stages[1].Kind)
	}
	if snap.Stages[0].RowsIn != 150 {
		t.Fatalf("deduped stage rows in = %d, want 150", snap.Stages[0].RowsIn)
	}
	if sel := snap.Stages[1].Selectivity(); sel != 0.25 {
		t.Fatalf("filter selectivity = %g, want 0.25", sel)
	}
	if !strings.Contains(snap.Table(), "filter (2 conjuncts)") {
		t.Fatalf("Table() missing filter row:\n%s", snap.Table())
	}
}

// TestTraceExportFormats: JSONL round-trips per line; the Chrome
// export is one JSON array of metadata + "X" span records.
func TestTraceExportFormats(t *testing.T) {
	p := NewProfile("q7", ProfileOptions{TraceEveryN: 1})
	p.Stage("scan", "source", "batch").Enter().Exit(10, 10)
	p.Stage("filter", "f", "batch").Enter().Exit(10, 4)
	events := p.Tracer().Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}

	var jl bytes.Buffer
	if err := WriteJSONL(&jl, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("JSONL line does not parse: %v", err)
	}
	if ev.Stage != "f" || ev.RowsOut != 4 {
		t.Fatalf("round-tripped event = %+v", ev)
	}

	var ct bytes.Buffer
	if err := WriteChromeTrace(&ct, "q7", events); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(ct.Bytes(), &arr); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var spans, meta int
	for _, e := range arr {
		switch e["ph"] {
		case "X":
			spans++
		case "M":
			meta++
		}
	}
	if spans != 2 {
		t.Fatalf("chrome trace has %d X spans, want 2", spans)
	}
	if meta < 3 { // process_name + one thread_name per stage
		t.Fatalf("chrome trace has %d metadata records, want >= 3", meta)
	}
}
