// Package window implements TweeQL's windowed grouping state: span
// assignment for tumbling and sliding windows, and the bucket manager
// that emits groups either when event time passes the window boundary or
// — the paper's "Uneven Aggregate Groups" construct — as soon as a
// bucket's aggregate falls within a requested confidence interval
// (CONTROL-style online aggregation). Dense groups (Tokyo) reach the
// confidence bar quickly and emit early; sparse groups (Cape Town) keep
// accumulating until their window closes.
//
// Buckets are found by their group values themselves: each open span
// holds its buckets under the values' hash (value.Hasher) and resolves
// collisions by typed equality (value.SameKey). A bucket's Key — its
// rendered group values — is built once, when the bucket opens, and
// serves display and output ordering only; it never decides which
// bucket a row belongs to.
package window

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/value"
)

// Span is one window instance: [Start, End).
type Span struct {
	Start, End time.Time
}

// Contains reports whether ts falls inside the span.
func (s Span) Contains(ts time.Time) bool {
	return !ts.Before(s.Start) && ts.Before(s.End)
}

// Tumbling returns the single size-aligned window containing ts.
// Alignment is to the Unix epoch, matching fixed wall-clock buckets
// ("every three hours").
func Tumbling(ts time.Time, size time.Duration) Span {
	start := ts.Truncate(size)
	return Span{Start: start, End: start.Add(size)}
}

// Sliding returns every (size, every) window containing ts, earliest
// first. every == size degenerates to one tumbling window.
func Sliding(ts time.Time, size, every time.Duration) []Span {
	if every <= 0 || every == size {
		return []Span{Tumbling(ts, size)}
	}
	var spans []Span
	// The last window to contain ts starts at the highest multiple of
	// `every` that is <= ts; earlier ones step back until ts leaves.
	lastStart := ts.Truncate(every)
	for start := lastStart; ts.Sub(start) < size; start = start.Add(-every) {
		spans = append(spans, Span{Start: start, End: start.Add(size)})
	}
	// Reverse into chronological order.
	for i, j := 0, len(spans)-1; i < j; i, j = i+1, j-1 {
		spans[i], spans[j] = spans[j], spans[i]
	}
	return spans
}

// Key is a bucket's rendered group values, its display and sort key.
// Encode builds it from group values. Distinct groups can share a Key
// (a string cell may contain the separator); bucket identity is typed
// (value.SameKey), and buckets with equal Keys order by creation.
type Key string

// Encode renders group values into a bucket's display and sort key.
func Encode(vals []value.Value) Key {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.Kind().String() + ":" + v.String()
	}
	return Key(strings.Join(parts, "\x1f"))
}

// Bucket accumulates one group within one window span.
type Bucket struct {
	Span Span
	Key  Key
	// GroupVals are the group-by column values for this bucket.
	GroupVals []value.Value
	// Aggs are the bucket's aggregate states, in select-list order.
	Aggs []agg.Func
	// Rows counts tuples folded into the bucket.
	Rows int64
	// EmittedEarly marks buckets already emitted by the confidence
	// trigger; they are skipped at window close (no duplicate output) but
	// EarlyAt records when the confidence bar was met.
	EmittedEarly bool
	EarlyAt      time.Time

	// seq orders buckets with equal Keys by creation.
	seq uint64
	// next chains buckets whose group values share a hash.
	next *Bucket
}

// withinCI reports whether every CI-capable aggregate in the bucket is
// inside the half-width at the level, with at least minN observations.
// The sample floor keeps the CLT interval honest: two identical
// observations have zero sample variance and would otherwise claim a
// zero-width interval immediately.
func (b *Bucket) withinCI(level, halfWidth float64, minN int64) bool {
	gated := false
	for _, a := range b.Aggs {
		hw, ok := a.CI(level)
		if !ok {
			continue
		}
		gated = true
		if a.N() < minN || hw > halfWidth {
			return false
		}
	}
	return gated
}

// Manager tracks all open buckets for one windowed group-by operator.
// It is single-goroutine, like the operator that owns it.
type Manager struct {
	size, every time.Duration
	// conf enables the confidence trigger when non-nil.
	confLevel     float64
	confHalfWidth float64
	confMinN      int64
	confEnabled   bool

	hasher value.Hasher
	// spans holds the open spans by start instant (UnixNano), so one
	// instant in two zones is one span.
	spans map[int64]*spanBuckets
	// last is the span an observation found most recently, tried before
	// the map: a tumbling window's rows arrive span after span.
	last *spanBuckets
	// minEnd is the earliest End of an open span (meaningful while spans
	// is non-empty): until the watermark reaches it, nothing closes.
	minEnd    time.Time
	seq       uint64
	watermark time.Time
}

// spanBuckets holds one span's buckets by group-value hash. Its span is
// in UTC.
type spanBuckets struct {
	start   int64 // span.Start.UnixNano()
	span    Span
	buckets map[uint64]*Bucket
	n       int
}

// find returns the span's bucket for groupVals, or nil.
func (sb *spanBuckets) find(h uint64, groupVals []value.Value) *Bucket {
	for b := sb.buckets[h]; b != nil; b = b.next {
		if value.SameKey(b.GroupVals, groupVals) {
			return b
		}
	}
	return nil
}

// appendOpen appends the span's buckets not emitted early.
func (sb *spanBuckets) appendOpen(out []*Bucket) []*Bucket {
	for _, b := range sb.buckets {
		for ; b != nil; b = b.next {
			if !b.EmittedEarly {
				out = append(out, b)
			}
		}
	}
	return out
}

// NewManager builds a manager for WINDOW size EVERY every. every <= 0
// means tumbling.
func NewManager(size, every time.Duration) *Manager {
	if every <= 0 {
		every = size
	}
	return &Manager{size: size, every: every, hasher: value.NewHasher(), spans: make(map[int64]*spanBuckets)}
}

// EnableConfidence switches on CONTROL-style early emission: a bucket
// whose CI-capable aggregates are all within halfWidth at level (after
// at least DefaultConfidenceMinSamples observations) emits immediately.
func (m *Manager) EnableConfidence(level, halfWidth float64) {
	m.confEnabled = true
	m.confLevel = level
	m.confHalfWidth = halfWidth
	if m.confMinN == 0 {
		m.confMinN = DefaultConfidenceMinSamples
	}
}

// DefaultConfidenceMinSamples is the CLT sample floor for the
// confidence trigger.
const DefaultConfidenceMinSamples = 30

// SetConfidenceMinSamples overrides the sample floor (tests use small
// values).
func (m *Manager) SetConfidenceMinSamples(n int64) { m.confMinN = n }

// Watermark reports the latest event time observed.
func (m *Manager) Watermark() time.Time { return m.watermark }

// OpenBuckets reports the number of buckets currently held.
func (m *Manager) OpenBuckets() int {
	n := 0
	for _, sb := range m.spans {
		n += sb.n
	}
	return n
}

// Observe folds one tuple into every window it belongs to. groupVals
// identify the bucket and are copied when one opens, so the caller may
// reuse the slice; mkAggs constructs fresh aggregate state for new
// buckets; fold applies the tuple's values to the bucket's aggregates.
// It returns any buckets the observation pushed over the confidence bar
// (at most one per containing span), already marked emitted.
func (m *Manager) Observe(ts time.Time, groupVals []value.Value, mkAggs func() []agg.Func, fold func(*Bucket)) []*Bucket {
	if ts.After(m.watermark) {
		m.watermark = ts
	}
	h := m.hasher.Cells(groupVals)
	// A new bucket's key and values are built once per row and shared by
	// every span it opens in.
	var key Key
	var vals []value.Value
	opened := false
	var early []*Bucket
	start, n := m.spansOf(ts)
	for i := 0; i < n; i, start = i+1, start.Add(m.every) {
		sb := m.spanFor(start)
		b := sb.find(h, groupVals)
		if b == nil {
			if !opened {
				key, vals, opened = Encode(groupVals), slices.Clone(groupVals), true
			}
			m.seq++
			b = &Bucket{Span: sb.span, Key: key, GroupVals: vals, Aggs: mkAggs(), seq: m.seq, next: sb.buckets[h]}
			sb.buckets[h] = b
			sb.n++
		}
		b.Rows++
		fold(b)
		if m.confEnabled && !b.EmittedEarly && b.withinCI(m.confLevel, m.confHalfWidth, m.confMinN) {
			b.EmittedEarly = true
			b.EarlyAt = ts
			early = append(early, b)
		}
	}
	return early
}

// spansOf returns the start of the earliest window containing ts and
// the number of windows containing it: the spans Sliding lists, without
// building the slice.
func (m *Manager) spansOf(ts time.Time) (time.Time, int) {
	if m.every == m.size {
		return ts.Truncate(m.size), 1
	}
	last, n := ts.Truncate(m.every), 0
	for s := last; ts.Sub(s) < m.size; s = s.Add(-m.every) {
		n++
	}
	return last.Add(-time.Duration(n-1) * m.every), n
}

// spanFor returns the buckets of the span that starts at start, opening
// the span if it is new.
func (m *Manager) spanFor(start time.Time) *spanBuckets {
	key := start.UnixNano()
	if m.last != nil && m.last.start == key {
		return m.last
	}
	sb := m.spans[key]
	if sb == nil {
		start = start.UTC()
		sb = &spanBuckets{start: key, span: Span{Start: start, End: start.Add(m.size)}, buckets: make(map[uint64]*Bucket)}
		m.spans[key] = sb
		if len(m.spans) == 1 || sb.span.End.Before(m.minEnd) {
			m.minEnd = sb.span.End
		}
	}
	m.last = sb
	return sb
}

// Advance moves the watermark and returns the buckets of every window
// whose end has passed, excluding ones already emitted early, ordered by
// (window start, key, creation). Closed windows are dropped from state.
// While the watermark is before every open window's end it returns at
// once.
func (m *Manager) Advance(watermark time.Time) []*Bucket {
	if watermark.After(m.watermark) {
		m.watermark = watermark
	}
	if len(m.spans) == 0 || m.minEnd.After(m.watermark) {
		return nil
	}
	var closed []*Bucket
	open := false
	for _, sb := range m.spans {
		if end := sb.span.End; end.After(m.watermark) {
			if !open || end.Before(m.minEnd) {
				m.minEnd, open = end, true
			}
			continue
		}
		closed = sb.appendOpen(closed)
		m.drop(sb)
	}
	sortBuckets(closed)
	return closed
}

// Flush closes every remaining window regardless of the watermark (end
// of stream), again excluding early-emitted buckets.
func (m *Manager) Flush() []*Bucket {
	var out []*Bucket
	for _, sb := range m.spans {
		out = sb.appendOpen(out)
		m.drop(sb)
	}
	sortBuckets(out)
	return out
}

func (m *Manager) drop(sb *spanBuckets) {
	delete(m.spans, sb.start)
	if m.last == sb {
		m.last = nil
	}
}

func sortBuckets(bs []*Bucket) {
	slices.SortFunc(bs, func(a, b *Bucket) int {
		if c := a.Span.Start.Compare(b.Span.Start); c != 0 {
			return c
		}
		if c := strings.Compare(string(a.Key), string(b.Key)); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}
