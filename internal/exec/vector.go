// Vectorized predicate kernels (PR 10): the ...Vec forms of the fused
// column⊗constant comparison, int-arithmetic-chain comparison, CONTAINS
// and IN-set kernels from compile.go. Each kernel refines a selection
// bitmap over a ColBatch in a tight loop over typed lanes.
//
// Parity with the row path is structural, not re-derived: the builder
// reuses the expression compiler's own analysis (constant folding,
// ident resolution, chain detection), the fast-kind lane bodies are the
// same expressions fusedCmp/fusedChainCmp/lowerContains/lowerInList
// inline after their kind checks, and every lane whose kind is off the
// fast path evaluates the full row-path closure for the conjunct — the
// identical closure ev.Bind returns. A vectorized filter therefore
// keeps exactly the rows the row filter keeps.
package exec

import (
	"context"
	"math/bits"
	"strings"
	"time"

	"tweeql/internal/lang"
	"tweeql/internal/tweet"
	"tweeql/internal/value"
)

// vecPred refines sel over one conjunct: lanes failing the predicate
// (false, NULL, or error — errors are noted and drop the lane, as on
// the row path) get their bits cleared.
type vecPred func(ctx context.Context, cb *ColBatch, sel []uint64)

// lanePred is one conjunct's row-path evaluation with the filter-stage
// keep rule applied: keep iff no error, non-NULL, truthy.
type lanePred func(ctx context.Context, t value.Tuple) bool

// buildVecPreds lowers each conjunct to a vectorized predicate. Every
// conjunct gets one — unsupported shapes fall back to evaluating the
// bound row closure per selected lane — so the columnar filter stage
// never needs a row-path twin.
func buildVecPreds(ev *Evaluator, conjuncts []lang.Expr, schema *value.Schema, stats *Stats) []vecPred {
	preds := make([]vecPred, len(conjuncts))
	for i, x := range conjuncts {
		preds[i] = buildVecPred(ev, x, schema, stats)
	}
	return preds
}

func buildVecPred(ev *Evaluator, x lang.Expr, schema *value.Schema, stats *Stats) vecPred {
	fn := ev.Bind(x, schema)
	lane := func(ctx context.Context, t value.Tuple) bool {
		v, err := fn(ctx, t)
		if err != nil {
			stats.NoteError(err)
			return false
		}
		return !v.IsNull() && v.Truthy()
	}
	if k := compileVecKernel(ev, x, schema, lane); k != nil {
		return k
	}
	return fallbackVecPred(lane)
}

// fallbackVecPred runs the row-path closure per selected lane — the
// generic form for conjuncts without a native kernel. Only selected
// lanes evaluate, so side effects (error notes, UDF calls) match the
// row filter's short-circuit over conjuncts in query order.
func fallbackVecPred(lane lanePred) vecPred {
	return func(ctx context.Context, cb *ColBatch, sel []uint64) {
		rows := cb.rows
		forLanes(sel, func(r int) bool { return lane(ctx, rows[r]) })
	}
}

// compileVecKernel recognizes the kernel-able conjunct shapes by
// re-running the compiler's subtree analysis, mirroring lowerCompare's
// fused-form dispatch. nil means "no native kernel".
func compileVecKernel(ev *Evaluator, x lang.Expr, schema *value.Schema, lane lanePred) vecPred {
	c := newCompiler(ev, schema)
	switch n := x.(type) {
	case *lang.Binary:
		switch n.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			_, li := c.compile(n.L)
			_, ri := c.compile(n.R)
			opc := cmpOpOf(n.Op)
			switch {
			case li.ident != nil && ri.cok:
				return vecFusedCmp(li.ident, ri.cval, opc, lane)
			case ri.ident != nil && li.cok:
				return vecFusedCmp(ri.ident, li.cval, opc.flip(), lane)
			case li.chain != nil && ri.cok:
				return vecChainCmp(li.chain, ri.cval, opc, lane)
			case ri.chain != nil && li.cok:
				return vecChainCmp(ri.chain, li.cval, opc.flip(), lane)
			}
		case "CONTAINS":
			_, li := c.compile(n.L)
			_, ri := c.compile(n.R)
			if li.ident != nil && ri.cok && ri.cval.Kind() == value.KindString {
				return vecContains(li.ident, tweet.NewKeywords([]string{ri.cval.Str()}), lane)
			}
		case "OR":
			if ia, kws := c.containsAny(n); ia != nil {
				return vecContains(ia, kws, lane)
			}
		}
	case *lang.InList:
		_, xi := c.compile(n.X)
		if xi.ident == nil {
			return nil
		}
		consts := make([]value.Value, 0, len(n.Items))
		for _, item := range n.Items {
			_, ii := c.compile(item)
			if !ii.cok {
				return nil
			}
			consts = append(consts, ii.cval)
		}
		return vecInList(xi.ident, consts, lane)
	}
	return nil
}

// vecClearAll is the column⊗NULL kernel: UNKNOWN for every lane.
func vecClearAll(_ context.Context, _ *ColBatch, sel []uint64) {
	for w := range sel {
		sel[w] = 0
	}
}

// vecFusedCmp is the ...Vec form of fusedCmp: one column, one non-NULL
// constant, the per-kind comparison inlined into the lane loop.
func vecFusedCmp(ia *identAccess, cv value.Value, opc cmpOp, lane lanePred) vecPred {
	switch {
	case cv.IsNull():
		return vecClearAll
	case numericKind(cv.Kind()):
		cf := cv.Num() // kernel: kind pre-proven
		return func(ctx context.Context, cb *ColBatch, sel []uint64) {
			col := cb.col(ia)
			andValid(sel, col.Valid())
			switch col.Homog() {
			case value.KindInt:
				xs := col.Ints()
				// An integral constant below 2^53 compares identically
				// as int64 and as float64 (float64(x) can only round
				// for |x| >= 2^53, and such x stay on the same side of
				// the constant), so the common int⊗int case skips the
				// per-lane float conversion. Outside that range the
				// float loop preserves the row path's exact semantics.
				if ci := int64(cf); float64(ci) == cf && ci < 1<<53 && ci > -(1<<53) {
					for w, word := range sel {
						var res uint64
						for word != 0 {
							i := bits.TrailingZeros64(word)
							word &^= 1 << uint(i)
							x := xs[w*64+i]
							c := 0
							if x < ci {
								c = -1
							} else if x > ci {
								c = 1
							}
							if opc.holds(c) {
								res |= 1 << uint(i)
							}
						}
						sel[w] &= res
					}
					return
				}
				for w, word := range sel {
					var res uint64
					for word != 0 {
						i := bits.TrailingZeros64(word)
						word &^= 1 << uint(i)
						if opc.holds(threeWay(float64(xs[w*64+i]), cf)) {
							res |= 1 << uint(i)
						}
					}
					sel[w] &= res
				}
			case value.KindFloat:
				xs := col.Nums()
				for w, word := range sel {
					var res uint64
					for word != 0 {
						i := bits.TrailingZeros64(word)
						word &^= 1 << uint(i)
						if opc.holds(threeWay(xs[w*64+i], cf)) {
							res |= 1 << uint(i)
						}
					}
					sel[w] &= res
				}
			default:
				kinds, nums, rows := col.Kinds(), col.Nums(), cb.rows
				forLanes(sel, func(r int) bool {
					switch kinds[r] {
					case value.KindInt, value.KindFloat:
						return opc.holds(threeWay(nums[r], cf))
					default:
						return lane(ctx, rows[r])
					}
				})
			}
		}
	case cv.Kind() == value.KindString && (opc == opEQ || opc == opNE):
		cs := cv.Str() // kernel: kind pre-proven
		eq := opc == opEQ
		timeKernel := vecTimeLiteralCmp(cs, opc)
		return func(ctx context.Context, cb *ColBatch, sel []uint64) {
			col := cb.col(ia)
			andValid(sel, col.Valid())
			if timeKernel != nil && col.Homog() == value.KindTime {
				timeKernel(col.Times(), sel)
				return
			}
			if col.Homog() == value.KindString {
				xs := col.Strs()
				for w, word := range sel {
					var res uint64
					for word != 0 {
						i := bits.TrailingZeros64(word)
						word &^= 1 << uint(i)
						if (xs[w*64+i] == cs) == eq {
							res |= 1 << uint(i)
						}
					}
					sel[w] &= res
				}
				return
			}
			kinds, xs, rows := col.Kinds(), col.Strs(), cb.rows
			forLanes(sel, func(r int) bool {
				if kinds[r] == value.KindString {
					return (xs[r] == cs) == eq
				}
				return lane(ctx, rows[r])
			})
		}
	case cv.Kind() == value.KindString:
		cs := cv.Str() // kernel: kind pre-proven
		timeKernel := vecTimeLiteralCmp(cs, opc)
		return func(ctx context.Context, cb *ColBatch, sel []uint64) {
			col := cb.col(ia)
			andValid(sel, col.Valid())
			if timeKernel != nil && col.Homog() == value.KindTime {
				timeKernel(col.Times(), sel)
				return
			}
			if col.Homog() == value.KindString {
				xs := col.Strs()
				for w, word := range sel {
					var res uint64
					for word != 0 {
						i := bits.TrailingZeros64(word)
						word &^= 1 << uint(i)
						if opc.holds(strings.Compare(xs[w*64+i], cs)) {
							res |= 1 << uint(i)
						}
					}
					sel[w] &= res
				}
				return
			}
			kinds, xs, rows := col.Kinds(), col.Strs(), cb.rows
			forLanes(sel, func(r int) bool {
				if kinds[r] == value.KindString {
					return opc.holds(strings.Compare(xs[r], cs))
				}
				return lane(ctx, rows[r])
			})
		}
	case cv.Kind() == value.KindTime && !cv.TimeRaw().IsZero():
		timeKernel := vecTimeCmp(cv.TimeRaw(), opc) // kernel: kind pre-proven
		return func(ctx context.Context, cb *ColBatch, sel []uint64) {
			col := cb.col(ia)
			andValid(sel, col.Valid())
			if col.Homog() == value.KindTime {
				timeKernel(col.Times(), sel)
				return
			}
			// Mixed lanes take the full closure: a string lane compared
			// to a time constant coerces (compareTimeString), which only
			// the row path replicates faithfully.
			rows := cb.rows
			forLanes(sel, func(r int) bool { return lane(ctx, rows[r]) })
		}
	}
	// Bool/list constants are rare enough that the generic row closure
	// is the kernel.
	return nil
}

// vecTimeCmp is the lane loop of a KindTime-homogeneous column (xs its
// UnixNano lanes) ⊗ a non-zero time constant. value.Compare orders
// times by instant (Before/After), which is UnixNano order for every
// representable non-zero time; zero times are tagged kindLaneOdd, so a
// KindTime-homogeneous vector holds none.
func vecTimeCmp(ct time.Time, opc cmpOp) func(xs []int64, sel []uint64) {
	cns := ct.UnixNano()
	return func(xs []int64, sel []uint64) {
		for w, word := range sel {
			var res uint64
			for word != 0 {
				i := bits.TrailingZeros64(word)
				word &^= 1 << uint(i)
				if opc.holds(threeWay64(xs[w*64+i], cns)) {
					res |= 1 << uint(i)
				}
			}
			sel[w] &= res
		}
	}
}

// vecTimeLiteralCmp is vecTimeCmp for a string constant that parses as
// a time literal — `created_at >= '2011-06-12 13:00:00'` against a time
// column coerces (compareTimeString), and the constant is parsed once
// here rather than per lane on the row path. nil when the string is not
// a (non-zero) time literal.
func vecTimeLiteralCmp(lit string, opc cmpOp) func(xs []int64, sel []uint64) {
	ct, ok := ParseTimeLiteral(lit)
	if !ok || ct.IsZero() {
		return nil
	}
	return vecTimeCmp(ct, opc)
}

func threeWay64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// vecChainCmp is the ...Vec form of fusedChainCmp: the int-arithmetic
// chain folds over the int64 lanes and feeds the comparison directly.
func vecChainCmp(ch *intChain, cv value.Value, opc cmpOp, lane lanePred) vecPred {
	if cv.IsNull() {
		return vecClearAll
	}
	if !numericKind(cv.Kind()) {
		return nil
	}
	cf := cv.Num() // kernel: kind pre-proven
	return func(ctx context.Context, cb *ColBatch, sel []uint64) {
		col := cb.col(ch.ia)
		// NULL lanes replay to NULL through value.Arith and drop either
		// way, so the word-wise validity AND is exact here too.
		andValid(sel, col.Valid())
		if col.Homog() == value.KindInt {
			xs := col.Ints()
			for w, word := range sel {
				var res uint64
				for word != 0 {
					i := bits.TrailingZeros64(word)
					word &^= 1 << uint(i)
					// Division by zero in the chain is NULL (lane drops),
					// matching runInt's ok=false.
					if a, ok := ch.runInt(xs[w*64+i]); ok && opc.holds(threeWay(float64(a), cf)) {
						res |= 1 << uint(i)
					}
				}
				sel[w] &= res
			}
			return
		}
		kinds, ints, rows := col.Kinds(), col.Ints(), cb.rows
		forLanes(sel, func(r int) bool {
			if kinds[r] == value.KindInt {
				a, ok := ch.runInt(ints[r])
				return ok && opc.holds(threeWay(float64(a), cf))
			}
			return lane(ctx, rows[r])
		})
	}
}

// vecContains is the ...Vec form of containsKeywords, a CONTAINS of a
// column against a literal keyword or a folded disjunction of them:
// NULL text is UNKNOWN, non-string text never contains.
func vecContains(ia *identAccess, kws *tweet.Keywords, lane lanePred) vecPred {
	return func(ctx context.Context, cb *ColBatch, sel []uint64) {
		col := cb.col(ia)
		andValid(sel, col.Valid())
		if col.Homog() == value.KindString {
			xs := col.Strs()
			forLanes(sel, func(r int) bool { return kws.Any(xs[r]) })
			return
		}
		kinds, xs, rows := col.Kinds(), col.Strs(), cb.rows
		forLanes(sel, func(r int) bool {
			switch kinds[r] {
			case value.KindString:
				return kws.Any(xs[r])
			case kindLaneOdd:
				return lane(ctx, rows[r])
			default:
				return false // non-string text never matches
			}
		})
	}
}

// vecInList is the ...Vec form of lowerInList's hash-set probes. Mixed
// constant kinds keep the row path (nil), exactly as lowerInList keeps
// the sequential scan.
func vecInList(ia *identAccess, consts []value.Value, lane lanePred) vecPred {
	if len(consts) == 0 {
		return nil
	}
	allStr, allNum, hasNaN := true, true, false
	for _, cv := range consts {
		if cv.Kind() != value.KindString {
			allStr = false
		}
		if !numericKind(cv.Kind()) {
			allNum = false
		} else if f, _ := cv.FloatVal(); f != f {
			hasNaN = true
		}
	}
	switch {
	case allStr:
		set := make(map[string]struct{}, len(consts))
		for _, cv := range consts {
			s, _ := cv.StringVal()
			set[s] = struct{}{}
		}
		return func(ctx context.Context, cb *ColBatch, sel []uint64) {
			col := cb.col(ia)
			andValid(sel, col.Valid())
			if col.Homog() == value.KindString {
				xs := col.Strs()
				forLanes(sel, func(r int) bool {
					_, ok := set[xs[r]]
					return ok
				})
				return
			}
			kinds, xs, rows := col.Kinds(), col.Strs(), cb.rows
			forLanes(sel, func(r int) bool {
				switch kinds[r] {
				case value.KindString:
					_, ok := set[xs[r]]
					return ok
				case kindLaneOdd:
					return lane(ctx, rows[r])
				default:
					return false // unequal kinds never match
				}
			})
		}
	case allNum && !hasNaN:
		set := make(map[float64]struct{}, len(consts))
		for _, cv := range consts {
			f, _ := cv.FloatVal()
			set[f] = struct{}{}
		}
		return func(ctx context.Context, cb *ColBatch, sel []uint64) {
			col := cb.col(ia)
			andValid(sel, col.Valid())
			kinds, rows := col.Kinds(), cb.rows
			probe := func(f float64, r int) bool {
				if f != f {
					// A NaN lane takes the oracle's scan via the row
					// closure, mirroring lowerInList's NaN escape.
					return lane(ctx, rows[r])
				}
				_, ok := set[f]
				return ok
			}
			switch col.Homog() {
			case value.KindInt, value.KindFloat:
				xs := col.Nums()
				forLanes(sel, func(r int) bool { return probe(xs[r], r) })
				return
			}
			nums := col.Nums()
			forLanes(sel, func(r int) bool {
				switch kinds[r] {
				case value.KindInt, value.KindFloat:
					return probe(nums[r], r)
				case kindLaneOdd:
					return lane(ctx, rows[r])
				default:
					return false
				}
			})
		}
	}
	return nil
}
