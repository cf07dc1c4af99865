package exec

import (
	"context"
	"sort"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/value"
	"tweeql/internal/window"
)

// countState folds rows for WINDOW n TWEETS: a tumbling batch of n
// input rows. All groups accumulated during the batch emit together
// when the n-th row arrives; window_start/window_end report the event
// times of the batch's first and last rows, which is exactly how the
// paper critiques the design — a sparse group's batch can span hours,
// so its "current" aggregate includes stale tweets.
type countState struct {
	cfg       AggregateConfig
	stats     *Stats
	outSchema *value.Schema
	// groupFns/argFns are the bound group keys and aggregate arguments
	// (argFns slots are nil for COUNT(*)).
	groupFns, argFns []CompiledExpr
	buckets          map[window.Key]*countBucket
	// rows counts the open batch's rows; first and last are its first
	// and last event times.
	rows        int64
	first, last time.Time
}

type countBucket struct {
	key       window.Key
	groupVals []value.Value
	aggs      []agg.Func
}

func newCountState(ev *Evaluator, cfg AggregateConfig, inSchema *value.Schema, stats *Stats) *countState {
	s := &countState{cfg: cfg, stats: stats, outSchema: AggSchema(cfg), buckets: make(map[window.Key]*countBucket)}
	s.groupFns, s.argFns = bindAggExprs(ev, cfg, inSchema)
	return s
}

// observe adds one row to its group's bucket, emitting the batch when
// it holds n rows.
func (s *countState) observe(ctx context.Context, t value.Tuple, emit func(value.Tuple) bool) bool {
	groupVals := make([]value.Value, len(s.cfg.GroupExprs))
	for i, fn := range s.groupFns {
		v, err := fn(ctx, t)
		if err != nil {
			s.stats.NoteError(err)
			return true
		}
		groupVals[i] = v
	}
	key := window.Encode(groupVals)
	b := s.buckets[key]
	if b == nil {
		b = &countBucket{key: key, groupVals: groupVals, aggs: newAggs(s.cfg.Aggs)}
		s.buckets[key] = b
	}
	for i, fn := range s.argFns {
		if fn == nil { // COUNT(*)
			b.aggs[i].Add(value.Int(1))
			continue
		}
		v, err := fn(ctx, t)
		if err != nil {
			s.stats.NoteError(err)
			v = value.Null()
		}
		b.aggs[i].Add(v)
	}
	if s.rows == 0 {
		s.first = t.TS
	}
	s.last = t.TS
	s.rows++
	return s.rows < s.cfg.Window.Count || s.flush(emit)
}

// flush emits the open batch's groups in key order and starts the next
// batch.
func (s *countState) flush(emit func(value.Tuple) bool) bool {
	if s.rows == 0 {
		return true
	}
	ordered := make([]*countBucket, 0, len(s.buckets))
	for _, b := range s.buckets {
		ordered = append(ordered, b)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
	for _, b := range ordered {
		vals := make([]value.Value, 0, s.outSchema.Len())
		for _, oc := range s.cfg.Out {
			if oc.IsAgg {
				vals = append(vals, b.aggs[oc.Index].Result())
			} else {
				vals = append(vals, b.groupVals[oc.Index])
			}
		}
		vals = append(vals, value.Time(s.first), value.Time(s.last))
		if !emit(value.NewTuple(s.outSchema, vals, s.last)) {
			return false
		}
	}
	s.buckets = make(map[window.Key]*countBucket)
	s.rows = 0
	return true
}
