package exec

import (
	"cmp"
	"context"
	"slices"
	"strings"
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
	// groupVals holds the current row's group keys; a new bucket copies
	// them.
	groupVals []value.Value
	hasher    value.Hasher
	// buckets holds the open batch's groups by group-value hash, chained
	// through countBucket.next.
	buckets map[uint64]*countBucket
	// seq numbers buckets in creation order.
	seq uint64
	// rows counts the open batch's rows; first and last are its first
	// and last event times.
	rows        int64
	first, last time.Time
}

type countBucket struct {
	// key is the rendered group values, the output order.
	key       window.Key
	seq       uint64
	groupVals []value.Value
	aggs      []agg.Func
	next      *countBucket
}

func newCountState(ev *Evaluator, cfg AggregateConfig, inSchema *value.Schema, stats *Stats) *countState {
	s := &countState{cfg: cfg, stats: stats, outSchema: AggSchema(cfg), hasher: value.NewHasher(), buckets: make(map[uint64]*countBucket)}
	s.groupFns, s.argFns = bindAggExprs(ev, cfg, inSchema)
	s.groupVals = make([]value.Value, len(cfg.GroupExprs))
	return s
}

// bucket returns the open batch's bucket for the row's group values,
// opening it if the group is new.
func (s *countState) bucket() *countBucket {
	h := s.hasher.Cells(s.groupVals)
	for b := s.buckets[h]; b != nil; b = b.next {
		if value.SameKey(b.groupVals, s.groupVals) {
			return b
		}
	}
	s.seq++
	b := &countBucket{key: window.Encode(s.groupVals), seq: s.seq, groupVals: slices.Clone(s.groupVals), aggs: newAggs(s.cfg.Aggs), next: s.buckets[h]}
	s.buckets[h] = b
	return b
}

// observe adds one row to its group's bucket, emitting the batch when
// it holds n rows.
func (s *countState) observe(ctx context.Context, t value.Tuple, emit func(value.Tuple) bool) bool {
	for i, fn := range s.groupFns {
		v, err := fn(ctx, t)
		if err != nil {
			s.stats.NoteError(err)
			return true
		}
		s.groupVals[i] = v
	}
	b := s.bucket()
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

// flush emits the open batch's groups in key order (creation order
// among equal keys) and starts the next batch.
func (s *countState) flush(emit func(value.Tuple) bool) bool {
	if s.rows == 0 {
		return true
	}
	var ordered []*countBucket
	for _, b := range s.buckets {
		for ; b != nil; b = b.next {
			ordered = append(ordered, b)
		}
	}
	slices.SortFunc(ordered, func(a, b *countBucket) int {
		if c := strings.Compare(string(a.key), string(b.key)); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
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
	clear(s.buckets)
	s.rows = 0
	return true
}
