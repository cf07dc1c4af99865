package exec

import (
	"context"
	"sort"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/value"
	"tweeql/internal/window"
)

// countWindowStage implements WINDOW n TWEETS: a tumbling batch of n
// input rows. All groups accumulated during the batch emit together
// when the n-th row arrives; window_start/window_end report the event
// times of the batch's first and last rows, which is exactly how the
// paper critiques the design — a sparse group's batch can span hours,
// so its "current" aggregate includes stale tweets.
func countWindowStage(ev *Evaluator, cfg AggregateConfig, stats *Stats) BatchStage {
	outSchema := AggSchema(cfg)
	groupFns, argFns := bindAggExprs(ev, cfg)
	n := cfg.Window.Count
	return func(ctx context.Context, in <-chan Batch) <-chan Batch {
		out := make(chan Batch, 4)
		go func() {
			defer close(out)
			o := &aggOut{ctx: ctx, out: out}
			type bucket struct {
				key       window.Key
				groupVals []value.Value
				aggs      []agg.Func
			}
			var (
				buckets    map[window.Key]*bucket
				batchRows  int64
				batchFirst time.Time
				batchLast  time.Time
			)
			reset := func() {
				buckets = make(map[window.Key]*bucket)
				batchRows = 0
				batchFirst = time.Time{}
				batchLast = time.Time{}
			}
			reset()
			mkAggs := func() []agg.Func {
				fs := make([]agg.Func, len(cfg.Aggs))
				for i, a := range cfg.Aggs {
					f, err := agg.New(a.AggName, a.Star)
					if err != nil {
						panic(err) // planner validates aggregate names
					}
					fs[i] = f
				}
				return fs
			}
			flush := func() bool {
				if batchRows == 0 {
					return true
				}
				ordered := make([]*bucket, 0, len(buckets))
				for _, b := range buckets {
					ordered = append(ordered, b)
				}
				sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
				for _, b := range ordered {
					vals := make([]value.Value, 0, outSchema.Len())
					for _, oc := range cfg.Out {
						if oc.IsAgg {
							vals = append(vals, b.aggs[oc.Index].Result())
						} else {
							vals = append(vals, b.groupVals[oc.Index])
						}
					}
					vals = append(vals, value.Time(batchFirst), value.Time(batchLast))
					if !o.emit(value.NewTuple(outSchema, vals, batchLast)) {
						return false
					}
				}
				reset()
				return true
			}

			// fold adds one row to its group's bucket, emitting the window
			// when it holds n rows; false means the query ended.
			fold := func(t value.Tuple) bool {
				groupVals := make([]value.Value, len(cfg.GroupExprs))
				bad := false
				for i, fn := range groupFns {
					v, err := fn(ctx, t)
					if err != nil {
						stats.NoteError(err)
						bad = true
						break
					}
					groupVals[i] = v
				}
				if bad {
					return true
				}
				key := window.Encode(groupVals)
				b := buckets[key]
				if b == nil {
					b = &bucket{key: key, groupVals: groupVals, aggs: mkAggs()}
					buckets[key] = b
				}
				for i, fn := range argFns {
					if fn == nil { // COUNT(*)
						b.aggs[i].Add(value.Int(1))
						continue
					}
					v, err := fn(ctx, t)
					if err != nil {
						stats.NoteError(err)
						v = value.Null()
					}
					b.aggs[i].Add(v)
				}
				if batchRows == 0 {
					batchFirst = t.TS
				}
				batchLast = t.TS
				batchRows++
				return batchRows < n || flush()
			}
			for b := range in {
				if ctx.Err() != nil {
					return
				}
				for _, t := range b {
					if !fold(t) {
						return
					}
				}
				if !o.send() {
					return
				}
			}
			if flush() {
				o.send()
			}
		}()
		return out
	}
}
