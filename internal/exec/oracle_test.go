package exec

import (
	"context"

	"tweeql/internal/lang"
	"tweeql/internal/value"
)

// rowOracle is the reference the batch stages are checked against. It
// folds rows one at a time — no goroutine, no channel — through the
// same compiled closures and aggState the stages use, so a difference
// in output is the stages' batching, sharding or vectorizing at fault.
type rowOracle struct {
	ev    *Evaluator
	stats *Stats
}

func newRowOracle(ev *Evaluator) rowOracle {
	return rowOracle{ev: ev, stats: &Stats{}}
}

// filter keeps the rows every conjunct holds for, in query order.
func (o rowOracle) filter(conjuncts []lang.Expr, schema *value.Schema, rows []value.Tuple) []value.Tuple {
	fns := o.ev.BindAll(conjuncts, schema)
	var kept []value.Tuple
next:
	for _, t := range rows {
		for _, fn := range fns {
			v, err := fn(context.Background(), t)
			if err != nil {
				o.stats.NoteError(err)
			}
			if err != nil || v.IsNull() || !v.Truthy() {
				o.stats.Dropped.Add(1)
				continue next
			}
		}
		kept = append(kept, t)
	}
	return kept
}

// project evaluates the select list over each row, dropping rows that
// fail to evaluate.
func (o rowOracle) project(items []ProjItem, schema *value.Schema, rows []value.Tuple) []value.Tuple {
	fns := bindItems(o.ev, items, schema)
	outSchema := ProjectSchema(items, schema)
	var out []value.Tuple
	for _, t := range rows {
		r, err := projectRow(context.Background(), items, fns, outSchema, t)
		if err != nil {
			o.stats.NoteError(err)
			continue
		}
		out = append(out, r)
	}
	return out
}

// aggregate folds every row into one aggState and flushes it at the
// end (time windows and whole-stream aggregation; count windows have
// their own operator).
func (o rowOracle) aggregate(cfg AggregateConfig, rows []value.Tuple) []value.Tuple {
	st := newAggState(o.ev, cfg, o.stats)
	var out []value.Tuple
	emit := func(t value.Tuple) bool {
		out = append(out, t)
		return true
	}
	for _, t := range rows {
		st.observe(context.Background(), t, emit)
	}
	st.flush(emit)
	return out
}
