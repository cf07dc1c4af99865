package exec

import (
	"context"

	"tweeql/internal/lang"
	"tweeql/internal/value"
)

// rowOracle is the reference the batch stages are checked against. It
// takes rows one at a time — no goroutine, no channel — through the
// same compiled closures and folders the stages use, so a difference
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

// filterProject runs each row through the conjuncts and then the select
// list before the next row starts: the order a row-major stage keeps.
func (o rowOracle) filterProject(conjuncts []lang.Expr, items []ProjItem, schema *value.Schema, rows []value.Tuple) []value.Tuple {
	var out []value.Tuple
	for _, t := range rows {
		out = append(out, o.project(items, schema, o.filter(conjuncts, schema, []value.Tuple{t}))...)
	}
	return out
}

// aggregate folds every row into one folder and flushes it at the end.
func (o rowOracle) aggregate(cfg AggregateConfig, schema *value.Schema, rows []value.Tuple) []value.Tuple {
	return o.filterAggregate(nil, cfg, schema, rows)
}

// filterAggregate runs each row through the conjuncts and, if it
// passes, folds it before the next row starts.
func (o rowOracle) filterAggregate(conjuncts []lang.Expr, cfg AggregateConfig, schema *value.Schema, rows []value.Tuple) []value.Tuple {
	st := newFolder(o.ev, cfg, schema, o.stats)
	var out []value.Tuple
	emit := func(t value.Tuple) bool {
		out = append(out, t)
		return true
	}
	for _, t := range rows {
		for _, k := range o.filter(conjuncts, schema, []value.Tuple{t}) {
			st.observe(context.Background(), k, emit)
		}
	}
	st.flush(emit)
	return out
}
