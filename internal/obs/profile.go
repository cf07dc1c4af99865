package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Profile is one query's observability state: an ordered set of
// per-operator stages, the output watermark-lag histogram, and (when
// sampling is armed) a trace ring. A nil *Profile is the disabled
// state — every method no-ops — so callers thread it unconditionally.
type Profile struct {
	// ID identifies the query run in logs, traces, and endpoints.
	ID string

	mu     sync.Mutex
	stages []*Stage
	byKey  map[string]*Stage

	lag    *Histogram // ingest→delivery watermark lag
	tracer *Tracer
	now    func() time.Time
}

// ProfileOptions tune a profile at construction.
type ProfileOptions struct {
	// TraceEveryN samples every Nth batch observation per stage into
	// the trace ring. 0 disables tracing (the disarmed sampling check
	// is then one atomic add on the shared batch sequence).
	TraceEveryN int
	// TraceSeed offsets which batches are sampled; the sampled set is a
	// deterministic function of (TraceEveryN, TraceSeed).
	TraceSeed int64
	// TraceCap bounds retained trace events (newest win). 0 = 4096.
	TraceCap int
	// Now overrides the clock (lag tests). nil = time.Now.
	Now func() time.Time
}

// NewProfile builds an armed profile.
func NewProfile(id string, opts ProfileOptions) *Profile {
	p := &Profile{
		ID:    id,
		byKey: make(map[string]*Stage),
		lag:   NewLagHistogram(),
		now:   opts.Now,
	}
	if p.now == nil {
		p.now = time.Now
	}
	if opts.TraceEveryN > 0 {
		p.tracer = newTracer(opts.TraceEveryN, opts.TraceSeed, opts.TraceCap)
	}
	return p
}

// Stage registers (or returns the existing) stage with the given kind
// and name. Registration order is pipeline order, which is how EXPLAIN
// ANALYZE renders the operator tree. Unit documents what one latency
// observation covers: "batch", "vec" (a columnar batch), or "call". Nil-safe: a nil
// profile returns a nil stage, whose methods are all free no-ops.
func (p *Profile) Stage(kind, name, unit string) *Stage {
	if p == nil {
		return nil
	}
	key := kind + "\x00" + name
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.byKey[key]; ok {
		return s
	}
	s := &Stage{Kind: kind, Name: name, Unit: unit, prof: p, lat: NewLatencyHistogram()}
	p.byKey[key] = s
	p.stages = append(p.stages, s)
	return s
}

// ObserveLag records the ingest→now watermark lag for rows sharing the
// event timestamp ts (a batch's minimum created_at). Zero timestamps
// carry no event time and record nothing. Nil-safe.
func (p *Profile) ObserveLag(ts time.Time, rows int) {
	if p == nil || ts.IsZero() || rows <= 0 {
		return
	}
	p.lag.ObserveN(p.now().Sub(ts), rows)
}

// Tracer exposes the profile's trace ring (nil when sampling is off or
// the profile is disabled).
func (p *Profile) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// Stage is one instrumented operator: rows in/out, batch observations,
// and a latency histogram. All methods are nil-receiver safe.
type Stage struct {
	Kind string // operator family: scan, filter, project, aggregate, ...
	Name string // instance label (stage detail, UDF name, sink name)
	Unit string // what one latency observation covers: batch, vec, call

	prof    *Profile
	lat     *Histogram
	seq     atomic.Uint64 // observation counter, drives trace sampling
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
}

// Span is an in-flight stage observation handed out by Enter.
type Span struct {
	stage *Stage
	seq   uint64
	start int64 // unix nanos
}

// Enter opens a timed observation: use at batch or call granularity,
// where two clock reads amortize over the work. Nil-safe.
func (s *Stage) Enter() Span {
	if s == nil {
		return Span{}
	}
	return Span{stage: s, seq: s.seq.Add(1), start: time.Now().UnixNano()}
}

// Exit closes the observation: it counts rows in/out and records the
// latency sample and, when sampled, the trace event. Safe on the zero
// Span.
func (sp Span) Exit(rowsIn, rowsOut int) {
	s := sp.stage
	if s == nil {
		return
	}
	if rowsIn != 0 {
		s.rowsIn.Add(int64(rowsIn))
	}
	if rowsOut != 0 {
		s.rowsOut.Add(int64(rowsOut))
	}
	end := time.Now().UnixNano()
	d := time.Duration(end - sp.start)
	s.lat.Observe(d)
	if t := s.prof.tracer; t != nil && t.sampled(sp.seq) {
		t.record(Event{
			Stage: s.Name, Kind: s.Kind, Seq: sp.seq,
			Start: sp.start, Dur: int64(d),
			RowsIn: rowsIn, RowsOut: rowsOut,
		})
	}
}

// StageSnapshot is a point-in-time copy of one stage.
type StageSnapshot struct {
	Kind         string       `json:"kind"`
	Name         string       `json:"name"`
	Unit         string       `json:"unit"`
	RowsIn       int64        `json:"rows_in"`
	RowsOut      int64        `json:"rows_out"`
	Observations uint64       `json:"observations"`
	Latency      HistSnapshot `json:"latency"`
}

// Selectivity is rows out / rows in (1 when nothing was seen).
func (s StageSnapshot) Selectivity() float64 {
	if s.RowsIn <= 0 {
		return 1
	}
	return float64(s.RowsOut) / float64(s.RowsIn)
}

// ProfileSnapshot is a point-in-time copy of a whole profile.
type ProfileSnapshot struct {
	ID     string          `json:"id"`
	Stages []StageSnapshot `json:"stages"`
	// Lag is the ingest→delivery watermark lag across delivered rows.
	Lag HistSnapshot `json:"output_lag"`
}

// Snapshot copies the profile. Nil-safe: returns a zero snapshot.
func (p *Profile) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	p.mu.Lock()
	stages := append([]*Stage(nil), p.stages...)
	p.mu.Unlock()
	ps := ProfileSnapshot{ID: p.ID, Lag: p.lag.Snapshot()}
	for _, s := range stages {
		ps.Stages = append(ps.Stages, StageSnapshot{
			Kind: s.Kind, Name: s.Name, Unit: s.Unit,
			RowsIn: s.rowsIn.Load(), RowsOut: s.rowsOut.Load(),
			Observations: s.seq.Load(),
			Latency:      s.lat.Snapshot(),
		})
	}
	return ps
}

// Table renders the per-operator profile as an aligned text table —
// the body of EXPLAIN ANALYZE's output.
func (ps ProfileSnapshot) Table() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "operator\tunit\trows in\trows out\tsel\tobs\tp50\tp99\tmean")
	for _, s := range ps.Stages {
		name := s.Kind
		if s.Name != "" && s.Name != s.Kind {
			name = fmt.Sprintf("%s (%s)", s.Kind, s.Name)
		}
		lat := s.Latency
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f%%\t%d\t%s\t%s\t%s\n",
			name, s.Unit, s.RowsIn, s.RowsOut, 100*s.Selectivity(),
			lat.Count, fmtSeconds(lat.Quantile(0.50)), fmtSeconds(lat.Quantile(0.99)),
			fmtSeconds(lat.Mean()))
	}
	tw.Flush()
	if ps.Lag.Count > 0 {
		fmt.Fprintf(&b, "output lag (ingest→delivery): p50=%s p99=%s over %d rows\n",
			fmtSeconds(ps.Lag.Quantile(0.50)), fmtSeconds(ps.Lag.Quantile(0.99)), ps.Lag.Count)
	}
	return b.String()
}

// SortedStages returns the snapshot's stages sorted by total observed
// time, busiest first — the bottleneck ordering used in logs.
func (ps ProfileSnapshot) SortedStages() []StageSnapshot {
	out := append([]StageSnapshot(nil), ps.Stages...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Latency.Sum > out[j].Latency.Sum })
	return out
}
