package window

import (
	"sort"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/value"
)

// oracleManager is the bucket manager as it was before buckets were
// keyed on typed cells: every observation renders its group values with
// Encode and finds each containing span's bucket under that string, and
// Advance walks every open span after every row. The differential tests
// hold Manager to its output byte for byte, on inputs where Encode is
// injective (no string cell containing its "\x1f" separator, where the
// oracle merges distinct groups).
type oracleManager struct {
	size, every time.Duration

	confLevel     float64
	confHalfWidth float64
	confMinN      int64
	confEnabled   bool

	buckets   map[Span]map[Key]*Bucket
	watermark time.Time
}

func newOracleManager(size, every time.Duration) *oracleManager {
	if every <= 0 {
		every = size
	}
	return &oracleManager{size: size, every: every, buckets: make(map[Span]map[Key]*Bucket)}
}

func (m *oracleManager) EnableConfidence(level, halfWidth float64) {
	m.confEnabled = true
	m.confLevel = level
	m.confHalfWidth = halfWidth
	if m.confMinN == 0 {
		m.confMinN = DefaultConfidenceMinSamples
	}
}

func (m *oracleManager) SetConfidenceMinSamples(n int64) { m.confMinN = n }

func (m *oracleManager) OpenBuckets() int {
	n := 0
	for _, g := range m.buckets {
		n += len(g)
	}
	return n
}

func (m *oracleManager) Observe(ts time.Time, groupVals []value.Value, mkAggs func() []agg.Func, fold func(*Bucket)) []*Bucket {
	if ts.After(m.watermark) {
		m.watermark = ts
	}
	key := Encode(groupVals)
	var early []*Bucket
	for _, span := range Sliding(ts, m.size, m.every) {
		group := m.buckets[span]
		if group == nil {
			group = make(map[Key]*Bucket)
			m.buckets[span] = group
		}
		b := group[key]
		if b == nil {
			vals := make([]value.Value, len(groupVals))
			copy(vals, groupVals)
			b = &Bucket{Span: span, Key: key, GroupVals: vals, Aggs: mkAggs()}
			group[key] = b
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

func (m *oracleManager) Advance(watermark time.Time) []*Bucket {
	if watermark.After(m.watermark) {
		m.watermark = watermark
	}
	var closed []*Bucket
	for span, group := range m.buckets {
		if span.End.After(m.watermark) {
			continue
		}
		for _, b := range group {
			if !b.EmittedEarly {
				closed = append(closed, b)
			}
		}
		delete(m.buckets, span)
	}
	oracleSort(closed)
	return closed
}

func (m *oracleManager) Flush() []*Bucket {
	var out []*Bucket
	for span, group := range m.buckets {
		for _, b := range group {
			if !b.EmittedEarly {
				out = append(out, b)
			}
		}
		delete(m.buckets, span)
	}
	oracleSort(out)
	return out
}

func oracleSort(bs []*Bucket) {
	sort.Slice(bs, func(i, j int) bool {
		if !bs[i].Span.Start.Equal(bs[j].Span.Start) {
			return bs[i].Span.Start.Before(bs[j].Span.Start)
		}
		return bs[i].Key < bs[j].Key
	})
}
