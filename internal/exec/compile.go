package exec

import (
	"context"
	"fmt"
	"strings"

	"tweeql/internal/lang"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// CompiledExpr is an expression lowered to a closure at plan time: one
// AST walk per query instead of one per row. Column indices are
// pre-resolved against the input schema, literal regexes are compiled
// eagerly, constant subtrees are folded, IN-lists over literals become
// hash sets, and the common comparisons get kind-specialized fast
// paths. Closures are safe for concurrent use: they hold no mutable
// state of their own, and stateful UDF calls serialize through the
// evaluator lock.
type CompiledExpr func(ctx context.Context, t value.Tuple) (value.Value, error)

// Bind lowers expr to the closure a stage evaluates it with over tuples
// of schema. It is the engine's one evaluator, and it is total: every
// expression the parser builds compiles. Columns whose schema kind is
// KindNull (dynamic) get the generic closures; only the kind-specialized
// fast paths require a concrete declared kind. A nil schema compiles
// against the empty one, so every column resolves per tuple. The
// test-only tree-walking interpreter (interp_test.go) is the oracle the
// differential tests hold these closures to: same value, same kind,
// same error text.
func (e *Evaluator) Bind(expr lang.Expr, schema *value.Schema) CompiledExpr {
	fn, _ := newCompiler(e, schema).compile(expr)
	return fn
}

// BindAll binds each expression against schema (see Bind).
func (e *Evaluator) BindAll(exprs []lang.Expr, schema *value.Schema) []CompiledExpr {
	fns := make([]CompiledExpr, len(exprs))
	for i, x := range exprs {
		fns[i] = e.Bind(x, schema)
	}
	return fns
}

// compiler carries compilation context: the evaluator (catalog and
// stateful-UDF instances) and the input schema indices resolve against.
type compiler struct {
	ev     *Evaluator
	schema *value.Schema
}

// emptySchema stands in for a nil input schema: no column pre-resolves.
var emptySchema = value.NewSchema()

func newCompiler(ev *Evaluator, schema *value.Schema) *compiler {
	if schema == nil {
		schema = emptySchema
	}
	return &compiler{ev: ev, schema: schema}
}

// exprInfo is what compilation learns statically about a subtree.
type exprInfo struct {
	// pure marks subtrees with no column or function dependence; pure
	// subtrees fold to constants at compile time.
	pure bool
	// kind is the statically known result kind; KindNull means unknown
	// (dynamic). It selects comparison specializations; runtime kind
	// checks keep mismatching data correct regardless.
	kind value.Kind
	// cval/cok carry the folded constant value, when the subtree is
	// pure and folding did not error.
	cval value.Value
	cok  bool
	// ident is set when the subtree is a schema-resolved column
	// reference, enabling fused column⊗constant operators that skip the
	// operand closures entirely.
	ident *identAccess
	// chain is set when the subtree is a column followed by integer-
	// constant arithmetic (followers * 2 + 1): the whole chain runs as
	// one closure over an int64 accumulator, and a comparison on top
	// fuses into the same closure.
	chain *intChain
}

// intChain is a pre-compiled ident ⊗ int-const arithmetic chain.
type intChain struct {
	ia     *identAccess
	aops   []ariOp
	consts []int64       // the int64 form, for the accumulator fast path
	cvals  []value.Value // the original constants, for the generic replay
}

// extendChain grows (or starts) a chain when the left operand is a
// resolved column or an existing chain and the constant is an int.
func extendChain(li exprInfo, aop ariOp, cv value.Value) *intChain {
	if cv.Kind() != value.KindInt {
		return nil
	}
	switch {
	case li.ident != nil:
		return &intChain{ia: li.ident, aops: []ariOp{aop}, consts: []int64{cv.IntRaw()}, cvals: []value.Value{cv}}
	case li.chain != nil:
		ch := li.chain
		return &intChain{
			ia:     ch.ia,
			aops:   append(append([]ariOp{}, ch.aops...), aop),
			consts: append(append([]int64{}, ch.consts...), cv.IntRaw()),
			cvals:  append(append([]value.Value{}, ch.cvals...), cv),
		}
	}
	return nil
}

// runInt folds the chain over an int64 accumulator; ok=false reports a
// division by zero (NULL, matching value.Arith).
func (ch *intChain) runInt(a int64) (int64, bool) {
	for i, op := range ch.aops {
		c := ch.consts[i]
		switch op {
		case ariAdd:
			a += c
		case ariSub:
			a -= c
		case ariMul:
			a *= c
		case ariDiv:
			if c == 0 {
				return 0, false
			}
			a /= c
		default: // ariMod
			if c == 0 {
				return 0, false
			}
			a %= c
		}
	}
	return a, true
}

// replay applies the chain through value.Arith for non-int inputs
// (floats widen, NULL propagates, strings and kind drift error) —
// exactly what the nested interpreter does.
func (ch *intChain) replay(v value.Value) (value.Value, error) {
	cur := v
	for i, op := range ch.aops {
		var err error
		cur, err = value.Arith([...]string{"+", "-", "*", "/", "%"}[op], cur, ch.cvals[i])
		if err != nil {
			return value.Null(), err
		}
	}
	return cur, nil
}

// chainClosure evaluates the whole chain as one closure.
func chainClosure(ch *intChain) CompiledExpr {
	return func(_ context.Context, t value.Tuple) (value.Value, error) {
		v := ch.ia.load(t)
		if v.Kind() == value.KindInt {
			a, ok := ch.runInt(v.IntRaw())
			if !ok {
				return value.Null(), nil
			}
			return value.Int(a), nil
		}
		return ch.replay(v)
	}
}

// fusedChainCmp compares a chain result to a constant without leaving
// the closure: the int accumulator feeds the comparison directly.
func fusedChainCmp(ch *intChain, cv value.Value, opc cmpOp) CompiledExpr {
	if cv.IsNull() {
		return func(context.Context, value.Tuple) (value.Value, error) { return value.Null(), nil }
	}
	cmp := constCmp(cv, opc)
	if numericKind(cv.Kind()) {
		cf := cv.Num()
		return func(_ context.Context, t value.Tuple) (value.Value, error) {
			v := ch.ia.load(t)
			if v.Kind() == value.KindInt {
				a, ok := ch.runInt(v.IntRaw())
				if !ok {
					return value.Null(), nil
				}
				return value.Bool(opc.holds(threeWay(float64(a), cf))), nil
			}
			r, err := ch.replay(v)
			if err != nil {
				return value.Null(), err
			}
			if r.IsNull() {
				return value.Null(), nil
			}
			return cmp(r)
		}
	}
	return func(_ context.Context, t value.Tuple) (value.Value, error) {
		v := ch.ia.load(t)
		r, err := ch.replay(v)
		if err != nil {
			return value.Null(), err
		}
		if r.IsNull() {
			return value.Null(), nil
		}
		return cmp(r)
	}
}

// identAccess is a pre-resolved column read. load is the one place the
// schema-pointer guard lives: tuples carrying a different schema object
// resolve dynamically, so a stale index can never read the wrong cell.
type identAccess struct {
	schema *value.Schema
	idx    int
	x      *lang.Ident
}

func (ia *identAccess) load(t value.Tuple) value.Value {
	if t.Schema == ia.schema {
		return t.Values[ia.idx]
	}
	return lookupIdent(ia.x, t)
}

// cmpOp is a comparison operator pre-decoded to an integer opcode so
// hot closures never switch on operator strings per row.
type cmpOp int

const (
	opEQ cmpOp = iota
	opNE
	opLT
	opLE
	opGT
	opGE
)

func cmpOpOf(op string) cmpOp {
	switch op {
	case "=":
		return opEQ
	case "!=":
		return opNE
	case "<":
		return opLT
	case "<=":
		return opLE
	case ">":
		return opGT
	default: // ">="
		return opGE
	}
}

func (o cmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// flip mirrors the comparison for swapped operands: a < b == b > a.
func (o cmpOp) flip() cmpOp {
	switch o {
	case opLT:
		return opGT
	case opLE:
		return opGE
	case opGT:
		return opLT
	case opGE:
		return opLE
	default:
		return o
	}
}

// holds reports whether the three-way comparison result c satisfies o.
func (o cmpOp) holds(c int) bool {
	switch o {
	case opEQ:
		return c == 0
	case opNE:
		return c != 0
	case opLT:
		return c < 0
	case opLE:
		return c <= 0
	case opGT:
		return c > 0
	default:
		return c >= 0
	}
}

// ariOp is an arithmetic operator pre-decoded to an integer opcode.
type ariOp int

const (
	ariAdd ariOp = iota
	ariSub
	ariMul
	ariDiv
	ariMod
)

func ariOpOf(op string) (ariOp, bool) {
	switch op {
	case "+":
		return ariAdd, true
	case "-":
		return ariSub, true
	case "*":
		return ariMul, true
	case "/":
		return ariDiv, true
	case "%":
		return ariMod, true
	}
	return 0, false
}

func constInfo(v value.Value) exprInfo {
	return exprInfo{pure: true, kind: v.Kind(), cval: v, cok: true}
}

func constExpr(v value.Value) CompiledExpr {
	return func(context.Context, value.Tuple) (value.Value, error) { return v, nil }
}

func errExpr(err error) CompiledExpr {
	return func(context.Context, value.Tuple) (value.Value, error) { return value.Null(), err }
}

// compile lowers one node and folds it when pure. Folding evaluates the
// closure exactly once at plan time; an erroring pure subtree becomes a
// closure returning that same error every row, which is what the
// interpreter would report row by row.
func (c *compiler) compile(x lang.Expr) (CompiledExpr, exprInfo) {
	fn, info := c.lower(x)
	if info.pure && !info.cok {
		v, everr := fn(context.Background(), value.Tuple{})
		if everr != nil {
			return errExpr(everr), exprInfo{pure: true, kind: value.KindNull}
		}
		return constExpr(v), constInfo(v)
	}
	return fn, info
}

func (c *compiler) lower(x lang.Expr) (CompiledExpr, exprInfo) {
	switch n := x.(type) {
	case *lang.Literal:
		return constExpr(n.Val), constInfo(n.Val)
	case *lang.Ident:
		return c.lowerIdent(n)
	case *lang.Unary:
		return c.lowerUnary(n)
	case *lang.Binary:
		return c.lowerBinary(n)
	case *lang.IsNull:
		xf, xi := c.compile(n.X)
		negate := n.Negate
		fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			v, err := xf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			return value.Bool(v.IsNull() != negate), nil
		}
		return fn, exprInfo{pure: xi.pure, kind: value.KindBool}
	case *lang.InBox:
		return c.lowerInBox(n)
	case *lang.InList:
		return c.lowerInList(n)
	case *lang.Call:
		return c.lowerCall(n)
	default:
		// The parser builds a *lang.BoxLit only inside IN, so no other
		// node reaches here; one that did reports per row.
		return errExpr(fmt.Errorf("tweeql: cannot evaluate %T", x)), exprInfo{}
	}
}

// lowerIdent pre-resolves the column index. The closure guards on the
// schema pointer: a tuple carrying a different schema (a source that
// renamed or re-shaped columns mid-stream) resolves dynamically, so a
// stale index can never read the wrong cell.
func (c *compiler) lowerIdent(x *lang.Ident) (CompiledExpr, exprInfo) {
	schema := c.schema
	idx, ok := resolveIdent(schema, x)
	if !ok {
		// Not a plan-schema column; it may still exist under whatever
		// schema tuples actually carry.
		fn := func(_ context.Context, t value.Tuple) (value.Value, error) {
			return lookupIdent(x, t), nil
		}
		return fn, exprInfo{}
	}
	ia := &identAccess{schema: schema, idx: idx, x: x}
	fn := func(_ context.Context, t value.Tuple) (value.Value, error) {
		return ia.load(t), nil
	}
	return fn, exprInfo{kind: schema.Field(idx).Kind, ident: ia}
}

func (c *compiler) lowerUnary(x *lang.Unary) (CompiledExpr, exprInfo) {
	xf, xi := c.compile(x.X)
	switch x.Op {
	case "NOT":
		fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			v, err := xf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			if v.IsNull() {
				return value.Null(), nil
			}
			return value.Bool(!v.Truthy()), nil
		}
		return fn, exprInfo{pure: xi.pure, kind: value.KindBool}
	case "-":
		fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			v, err := xf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			return value.Arith("-", value.Int(0), v)
		}
		return fn, exprInfo{pure: xi.pure, kind: xi.kind}
	default:
		opErr := fmt.Errorf("tweeql: unknown unary operator %q", x.Op)
		return errExpr(opErr), exprInfo{pure: xi.pure}
	}
}

func (c *compiler) lowerBinary(x *lang.Binary) (CompiledExpr, exprInfo) {
	switch x.Op {
	case "AND", "OR":
		return c.lowerLogic(x)
	}
	lf, li := c.compile(x.L)
	rf, ri := c.compile(x.R)
	pure := li.pure && ri.pure
	switch x.Op {
	case "+", "-", "*", "/", "%":
		aop, _ := ariOpOf(x.Op)
		info := exprInfo{pure: pure, kind: arithKind(li.kind, ri.kind)}
		if ri.cok {
			if ch := extendChain(li, aop, ri.cval); ch != nil {
				info.chain = ch
				return chainClosure(ch), info
			}
			return lowerArithConstRHS(lf, li, aop, ri.cval), info
		}
		op := x.Op
		fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			l, err := lf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			r, err := rf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			return value.Arith(op, l, r)
		}
		return fn, info
	case "=", "!=", "<", "<=", ">", ">=":
		return c.lowerCompare(x.Op, lf, li, rf, ri)
	case "CONTAINS":
		return c.lowerContains(lf, li, rf, ri)
	case "MATCHES":
		return c.lowerMatches(lf, li, rf, ri)
	default:
		opErr := fmt.Errorf("tweeql: unknown operator %q", x.Op)
		return errExpr(opErr), exprInfo{pure: pure}
	}
}

func arithKind(l, r value.Kind) value.Kind {
	switch {
	case l == value.KindInt && r == value.KindInt:
		return value.KindInt
	case numericKind(l) && numericKind(r):
		return value.KindFloat
	default:
		return value.KindNull
	}
}

func numericKind(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }

// lowerLogic compiles AND/OR with SQL three-valued short-circuit logic,
// mirroring evalBinary exactly.
func (c *compiler) lowerLogic(x *lang.Binary) (CompiledExpr, exprInfo) {
	lf, li := c.compile(x.L)
	rf, ri := c.compile(x.R)
	info := exprInfo{pure: li.pure && ri.pure, kind: value.KindBool}
	if x.Op == "AND" {
		fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			l, err := lf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			if !l.IsNull() && !l.Truthy() {
				return value.Bool(false), nil
			}
			r, err := rf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			if !r.IsNull() && !r.Truthy() {
				return value.Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.Null(), nil
			}
			return value.Bool(true), nil
		}
		return fn, info
	}
	fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
		l, err := lf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if !l.IsNull() && l.Truthy() {
			return value.Bool(true), nil
		}
		r, err := rf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if !r.IsNull() && r.Truthy() {
			return value.Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return value.Bool(false), nil
	}
	return fn, info
}

// lowerCompare picks the fastest comparison form available: a fused
// column⊗constant closure when one side is a resolved ident and the
// other a folded constant, a kind-specialized two-closure comparison
// when both static kinds are concrete, and the generic closure
// otherwise. Runtime kind checks route mismatching data (dynamic
// columns drift) back through the generic comparison, so
// specialization never changes a result.
func (c *compiler) lowerCompare(op string, lf CompiledExpr, li exprInfo, rf CompiledExpr, ri exprInfo) (CompiledExpr, exprInfo) {
	opc := cmpOpOf(op)
	info := exprInfo{pure: li.pure && ri.pure, kind: value.KindBool}
	switch {
	case li.ident != nil && ri.cok:
		return fusedCmp(li.ident, ri.cval, opc), info
	case ri.ident != nil && li.cok:
		return fusedCmp(ri.ident, li.cval, opc.flip()), info
	case li.chain != nil && ri.cok:
		return fusedChainCmp(li.chain, ri.cval, opc), info
	case ri.chain != nil && li.cok:
		return fusedChainCmp(ri.chain, li.cval, opc.flip()), info
	case ri.cok:
		return cmpConstRHS(lf, ri.cval, opc), info
	case li.cok:
		return cmpConstRHS(rf, li.cval, opc.flip()), info
	}
	switch {
	case li.kind == value.KindString && ri.kind == value.KindString:
		fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			l, err := lf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			r, err := rf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return value.Null(), nil
			}
			if l.Kind() == value.KindString && r.Kind() == value.KindString {
				return value.Bool(opc.holds(strings.Compare(l.Str(), r.Str()))), nil
			}
			return compareVals(opc.String(), l, r)
		}
		return fn, info
	case numericKind(li.kind) && numericKind(ri.kind):
		fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			l, err := lf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			r, err := rf(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return value.Null(), nil
			}
			if numericKind(l.Kind()) && numericKind(r.Kind()) {
				// Widening matches value.Compare's numeric rule, so the
				// fast path and the generic path cannot disagree.
				return value.Bool(opc.holds(threeWay(l.Num(), r.Num()))), nil
			}
			return compareVals(opc.String(), l, r)
		}
		return fn, info
	}
	fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
		l, err := lf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		r, err := rf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return compareVals(opc.String(), l, r)
	}
	return fn, info
}

func threeWay(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// constCmp builds the per-kind "compare a non-NULL runtime value to
// this constant" kernel once at compile time, so the per-row path never
// re-inspects the constant. Equality on strings uses == (cheaper than a
// three-way compare); everything off the fast kind falls back to the
// generic comparison for exact interpreter parity. The kernels use the
// inlinable Str/Num accessors after their Kind checks — the checked
// StringVal/FloatVal forms cost a full Value copy per call.
func constCmp(cv value.Value, opc cmpOp) func(v value.Value) (value.Value, error) {
	opStr := opc.String()
	switch {
	case cv.Kind() == value.KindString && (opc == opEQ || opc == opNE):
		cs := cv.Str()
		eq := opc == opEQ
		return func(v value.Value) (value.Value, error) {
			if v.Kind() == value.KindString {
				return value.Bool((v.Str() == cs) == eq), nil
			}
			return compareVals(opStr, v, cv)
		}
	case cv.Kind() == value.KindString:
		cs := cv.Str()
		return func(v value.Value) (value.Value, error) {
			if v.Kind() == value.KindString {
				return value.Bool(opc.holds(strings.Compare(v.Str(), cs))), nil
			}
			return compareVals(opStr, v, cv)
		}
	case numericKind(cv.Kind()):
		cf := cv.Num()
		return func(v value.Value) (value.Value, error) {
			if numericKind(v.Kind()) {
				// Widening matches value.Compare's numeric rule, so the
				// fused and generic paths cannot disagree.
				return value.Bool(opc.holds(threeWay(v.Num(), cf))), nil
			}
			return compareVals(opStr, v, cv)
		}
	default:
		return func(v value.Value) (value.Value, error) {
			return compareVals(opStr, v, cv)
		}
	}
}

// fusedCmp is the tightest comparison form: one column read, one
// constant, no operand closures and no kernel indirection — the per-
// kind comparison is inlined into the closure body.
func fusedCmp(ia *identAccess, cv value.Value, opc cmpOp) CompiledExpr {
	opStr := opc.String()
	switch {
	case cv.IsNull():
		// Comparison with NULL is UNKNOWN for every row.
		return func(context.Context, value.Tuple) (value.Value, error) { return value.Null(), nil }
	case numericKind(cv.Kind()):
		cf := cv.Num()
		return func(_ context.Context, t value.Tuple) (value.Value, error) {
			v := ia.load(t)
			switch v.Kind() {
			case value.KindInt, value.KindFloat:
				return value.Bool(opc.holds(threeWay(v.Num(), cf))), nil
			case value.KindNull:
				return value.Null(), nil
			}
			return compareVals(opStr, v, cv)
		}
	case cv.Kind() == value.KindString && (opc == opEQ || opc == opNE):
		cs := cv.Str()
		eq := opc == opEQ
		// A time column compared with a time-literal string coerces
		// (compareTimeString); the literal is constant, so it is parsed
		// here once instead of once per row. An unparseable literal keeps
		// the generic path and its result.
		ct, isTime := ParseTimeLiteral(cs)
		return func(_ context.Context, t value.Tuple) (value.Value, error) {
			v := ia.load(t)
			switch v.Kind() {
			case value.KindString:
				return value.Bool((v.Str() == cs) == eq), nil
			case value.KindNull:
				return value.Null(), nil
			case value.KindTime:
				if isTime {
					return value.Bool(opc.holds(compareTimes(v.TimeRaw(), ct))), nil
				}
			}
			return compareVals(opStr, v, cv)
		}
	case cv.Kind() == value.KindString:
		cs := cv.Str()
		ct, isTime := ParseTimeLiteral(cs) // as above
		return func(_ context.Context, t value.Tuple) (value.Value, error) {
			v := ia.load(t)
			switch v.Kind() {
			case value.KindString:
				return value.Bool(opc.holds(strings.Compare(v.Str(), cs))), nil
			case value.KindNull:
				return value.Null(), nil
			case value.KindTime:
				if isTime {
					return value.Bool(opc.holds(compareTimes(v.TimeRaw(), ct))), nil
				}
			}
			return compareVals(opStr, v, cv)
		}
	default:
		return func(_ context.Context, t value.Tuple) (value.Value, error) {
			v := ia.load(t)
			if v.IsNull() {
				return value.Null(), nil
			}
			return compareVals(opStr, v, cv)
		}
	}
}

// cmpConstRHS compares an arbitrary compiled operand to a constant —
// the half-fused form for shapes like (followers*2+1) < 1000.
func cmpConstRHS(lf CompiledExpr, cv value.Value, opc cmpOp) CompiledExpr {
	if cv.IsNull() {
		return func(ctx context.Context, t value.Tuple) (value.Value, error) {
			if _, err := lf(ctx, t); err != nil {
				return value.Null(), err
			}
			return value.Null(), nil
		}
	}
	cmp := constCmp(cv, opc)
	return func(ctx context.Context, t value.Tuple) (value.Value, error) {
		v, err := lf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			return value.Null(), nil
		}
		return cmp(v)
	}
}

// arithConstKernel builds the per-kind "apply <op> const to a non-NULL
// runtime value" kernel once at compile time: int⊗int stays on the
// int64 opcode path, numeric mixes widen to float64, and anything else
// (string +, kind drift) falls back to value.Arith for exact
// interpreter parity.
func arithConstKernel(aop ariOp, cv value.Value) func(v value.Value) (value.Value, error) {
	op := [...]string{"+", "-", "*", "/", "%"}[aop]
	switch cv.Kind() {
	case value.KindInt:
		ci := cv.IntRaw()
		return func(v value.Value) (value.Value, error) {
			if v.Kind() != value.KindInt {
				return value.Arith(op, v, cv)
			}
			a := v.IntRaw()
			switch aop {
			case ariAdd:
				return value.Int(a + ci), nil
			case ariSub:
				return value.Int(a - ci), nil
			case ariMul:
				return value.Int(a * ci), nil
			case ariDiv:
				if ci == 0 {
					return value.Null(), nil
				}
				return value.Int(a / ci), nil
			default: // ariMod
				if ci == 0 {
					return value.Null(), nil
				}
				return value.Int(a % ci), nil
			}
		}
	case value.KindFloat:
		cf := cv.Num()
		return func(v value.Value) (value.Value, error) {
			if !numericKind(v.Kind()) {
				return value.Arith(op, v, cv)
			}
			a := v.Num()
			switch aop {
			case ariAdd:
				return value.Float(a + cf), nil
			case ariSub:
				return value.Float(a - cf), nil
			case ariMul:
				return value.Float(a * cf), nil
			case ariDiv:
				if cf == 0 {
					return value.Null(), nil
				}
				return value.Float(a / cf), nil
			default: // ariMod
				return value.Arith(op, v, cv)
			}
		}
	default:
		return func(v value.Value) (value.Value, error) {
			return value.Arith(op, v, cv)
		}
	}
}

// lowerArithConstRHS specializes arithmetic with a constant right-hand
// side, fusing the column read when the left side is a resolved ident.
func lowerArithConstRHS(lf CompiledExpr, li exprInfo, aop ariOp, cv value.Value) CompiledExpr {
	if cv.IsNull() {
		return func(ctx context.Context, t value.Tuple) (value.Value, error) {
			if _, err := lf(ctx, t); err != nil {
				return value.Null(), err
			}
			return value.Null(), nil
		}
	}
	kern := arithConstKernel(aop, cv)
	if li.ident != nil {
		ia := li.ident
		return func(_ context.Context, t value.Tuple) (value.Value, error) {
			v := ia.load(t)
			if v.IsNull() {
				return value.Null(), nil
			}
			return kern(v)
		}
	}
	return func(ctx context.Context, t value.Tuple) (value.Value, error) {
		v, err := lf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			return value.Null(), nil
		}
		return kern(v)
	}
}

// lowerContains specializes the dominant CONTAINS shape — column
// against a literal keyword — and keeps the generic closure for
// computed right-hand sides.
func (c *compiler) lowerContains(lf CompiledExpr, li exprInfo, rf CompiledExpr, ri exprInfo) (CompiledExpr, exprInfo) {
	info := exprInfo{pure: li.pure && ri.pure, kind: value.KindBool}
	if ri.cok {
		kwVal := ri.cval
		switch {
		case kwVal.IsNull():
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				if _, err := lf(ctx, t); err != nil {
					return value.Null(), err
				}
				return value.Null(), nil
			}
			return fn, info
		case kwVal.Kind() == value.KindString:
			kw, _ := kwVal.StringVal()
			if li.ident != nil {
				ia := li.ident
				fn := func(_ context.Context, t value.Tuple) (value.Value, error) {
					l := ia.load(t)
					if l.IsNull() {
						return value.Null(), nil
					}
					if l.Kind() != value.KindString {
						return value.Bool(false), nil
					}
					ls, _ := l.StringVal()
					return value.Bool(tweet.ContainsWord(ls, kw)), nil
				}
				return fn, info
			}
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				l, err := lf(ctx, t)
				if err != nil {
					return value.Null(), err
				}
				if l.IsNull() {
					return value.Null(), nil
				}
				if l.Kind() != value.KindString {
					return value.Bool(false), nil
				}
				return value.Bool(tweet.ContainsWord(l.Str(), kw)), nil
			}
			return fn, info
		default: // constant non-string keyword never matches
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				l, err := lf(ctx, t)
				if err != nil {
					return value.Null(), err
				}
				if l.IsNull() {
					return value.Null(), nil
				}
				return value.Bool(false), nil
			}
			return fn, info
		}
	}
	fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
		l, err := lf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		r, err := rf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		ls, err1 := l.StringVal()
		rs, err2 := r.StringVal()
		if err1 != nil || err2 != nil {
			return value.Bool(false), nil
		}
		return value.Bool(tweet.ContainsWord(ls, rs)), nil
	}
	return fn, info
}

// lowerMatches compiles literal patterns at plan time — no per-row
// cache lookup, no lock. Dynamic patterns go through the evaluator's
// cache.
func (c *compiler) lowerMatches(lf CompiledExpr, li exprInfo, rf CompiledExpr, ri exprInfo) (CompiledExpr, exprInfo) {
	info := exprInfo{pure: li.pure && ri.pure, kind: value.KindBool}
	if ri.cok {
		patVal := ri.cval
		switch {
		case patVal.IsNull():
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				if _, err := lf(ctx, t); err != nil {
					return value.Null(), err
				}
				return value.Null(), nil
			}
			return fn, info
		case patVal.Kind() == value.KindString:
			pat, _ := patVal.StringVal()
			re, reErr := compilePattern(pat)
			if li.ident != nil && reErr == nil {
				ia := li.ident
				fn := func(_ context.Context, t value.Tuple) (value.Value, error) {
					l := ia.load(t)
					if l.IsNull() {
						return value.Null(), nil
					}
					if l.Kind() != value.KindString {
						return value.Bool(false), nil
					}
					ls, _ := l.StringVal()
					return value.Bool(re.MatchString(ls)), nil
				}
				return fn, info
			}
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				l, err := lf(ctx, t)
				if err != nil {
					return value.Null(), err
				}
				if l.IsNull() {
					return value.Null(), nil
				}
				if l.Kind() != value.KindString {
					return value.Bool(false), nil
				}
				if reErr != nil {
					return value.Null(), reErr
				}
				ls, _ := l.StringVal()
				return value.Bool(re.MatchString(ls)), nil
			}
			return fn, info
		default: // constant non-string pattern never matches
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				l, err := lf(ctx, t)
				if err != nil {
					return value.Null(), err
				}
				if l.IsNull() {
					return value.Null(), nil
				}
				return value.Bool(false), nil
			}
			return fn, info
		}
	}
	ev := c.ev
	fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
		l, err := lf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		r, err := rf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		ls, err1 := l.StringVal()
		pat, err2 := r.StringVal()
		if err1 != nil || err2 != nil {
			return value.Bool(false), nil
		}
		re, err := ev.compiled(pat)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(re.MatchString(ls)), nil
	}
	return fn, info
}

// lowerInBox resolves the bounding box (and gazetteer city) once at
// plan time and pre-resolves the GPS columns for the geo-ident form.
func (c *compiler) lowerInBox(x *lang.InBox) (CompiledExpr, exprInfo) {
	box, boxErr := ResolveBox(x.Box)
	if boxErr != nil {
		// The interpreter reports the unresolvable box per row.
		return errExpr(boxErr), exprInfo{pure: true}
	}
	info := exprInfo{kind: value.KindBool}
	if id, ok := x.Loc.(*lang.Ident); ok && isGeoIdent(id.Name) {
		schema := c.schema
		latIdx, latOK := schema.IndexFold("lat")
		lonIdx, lonOK := schema.IndexFold("lon")
		fn := func(_ context.Context, t value.Tuple) (value.Value, error) {
			var lat, lon value.Value
			if t.Schema == schema && latOK && lonOK {
				lat, lon = t.Values[latIdx], t.Values[lonIdx]
			} else {
				lat, lon = t.Get("lat"), t.Get("lon")
			}
			return boxContains(box, lat, lon), nil
		}
		return fn, info
	}
	locf, loci := c.compile(x.Loc)
	info.pure = loci.pure
	fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
		v, err := locf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		lst, err := v.ListVal()
		if err != nil || len(lst) != 2 {
			return value.Bool(false), nil
		}
		return boxContains(box, lst[0], lst[1]), nil
	}
	return fn, info
}

func boxContains(box twitterapi.Box, lat, lon value.Value) value.Value {
	if lat.IsNull() || lon.IsNull() {
		return value.Bool(false)
	}
	la, err1 := lat.FloatVal()
	lo, err2 := lon.FloatVal()
	if err1 != nil || err2 != nil {
		return value.Bool(false)
	}
	return value.Bool(box.Contains(la, lo))
}

// lowerInList hash-lowers "x IN (literals...)" — the membership test
// becomes one map probe. Homogeneous string lists key on the string;
// numeric lists key on the float64 widening value.Compare uses, so int
// 1 still matches literal 1.0. Mixed-kind lists (and non-literal
// items) keep the interpreter's sequential scan semantics.
func (c *compiler) lowerInList(x *lang.InList) (CompiledExpr, exprInfo) {
	xf, xi := c.compile(x.X)
	itemFns := make([]CompiledExpr, len(x.Items))
	itemInfos := make([]exprInfo, len(x.Items))
	allConst := true
	for i, item := range x.Items {
		itemFns[i], itemInfos[i] = c.compile(item)
		if !itemInfos[i].cok {
			allConst = false
		}
	}
	pure := xi.pure && allConst
	info := exprInfo{pure: pure, kind: value.KindBool}

	if allConst {
		consts := make([]value.Value, len(itemInfos))
		allStr, allNum, hasNaN := true, true, false
		for i, ii := range itemInfos {
			consts[i] = ii.cval
			if ii.cval.Kind() != value.KindString {
				allStr = false
			}
			if !numericKind(ii.cval.Kind()) {
				allNum = false
			} else if f, _ := ii.cval.FloatVal(); f != f {
				hasNaN = true
			}
		}
		switch {
		case allStr && len(consts) > 0:
			set := make(map[string]struct{}, len(consts))
			for _, cv := range consts {
				s, _ := cv.StringVal()
				set[s] = struct{}{}
			}
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				v, err := xf(ctx, t)
				if err != nil {
					return value.Null(), err
				}
				if v.IsNull() {
					return value.Null(), nil
				}
				if v.Kind() != value.KindString {
					return value.Bool(false), nil // unequal kinds never match
				}
				_, ok := set[v.Str()]
				return value.Bool(ok), nil
			}
			return fn, info
		case allNum && !hasNaN && len(consts) > 0:
			set := make(map[float64]struct{}, len(consts))
			for _, cv := range consts {
				f, _ := cv.FloatVal()
				set[f] = struct{}{}
			}
			scan := constListScan(consts)
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				v, err := xf(ctx, t)
				if err != nil {
					return value.Null(), err
				}
				if v.IsNull() {
					return value.Null(), nil
				}
				if !numericKind(v.Kind()) {
					return value.Bool(false), nil
				}
				f := v.Num()
				if f != f {
					// value.Compare treats NaN as equal to any number;
					// take the oracle's scan rather than encode that
					// quirk into the hash probe.
					return scan(v), nil
				}
				_, ok := set[f]
				return value.Bool(ok), nil
			}
			return fn, info
		default:
			scan := constListScan(consts)
			fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				v, err := xf(ctx, t)
				if err != nil {
					return value.Null(), err
				}
				if v.IsNull() {
					return value.Null(), nil
				}
				return scan(v), nil
			}
			return fn, info
		}
	}

	fn := func(ctx context.Context, t value.Tuple) (value.Value, error) {
		v, err := xf(ctx, t)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			return value.Null(), nil
		}
		for _, itemFn := range itemFns {
			iv, err := itemFn(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			if value.Equal(v, iv) {
				return value.Bool(true), nil
			}
		}
		return value.Bool(false), nil
	}
	return fn, info
}

func constListScan(consts []value.Value) func(value.Value) value.Value {
	return func(v value.Value) value.Value {
		for _, cv := range consts {
			if value.Equal(v, cv) {
				return value.Bool(true)
			}
		}
		return value.Bool(false)
	}
}

// lowerCall resolves the callee once at plan time: builtin, scalar UDF,
// or stateful UDF, in the interpreter's precedence order. Calls are
// never pure — UDFs may be nondeterministic or stateful — so they are
// never folded. Argument slices are allocated per invocation, as the
// interpreter does, because closures may run concurrently from batch
// and async workers.
func (c *compiler) lowerCall(x *lang.Call) (CompiledExpr, exprInfo) {
	argFns := make([]CompiledExpr, len(x.Args))
	for i, a := range x.Args {
		fn, _ := c.compile(a)
		argFns[i] = fn
	}
	evalArgs := func(ctx context.Context, t value.Tuple) ([]value.Value, error) {
		args := make([]value.Value, len(argFns))
		for i, fn := range argFns {
			v, err := fn(ctx, t)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return args, nil
	}
	info := exprInfo{}
	name := strings.ToLower(x.Name)
	if fn, ok := builtins[name]; ok {
		call := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			args, err := evalArgs(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			return fn(args)
		}
		return call, info
	}
	if udf, ok := c.ev.cat.Scalar(name); ok {
		if udf.Arity >= 0 && len(x.Args) != udf.Arity {
			arityErr := fmt.Errorf("tweeql: %s takes %d arguments, got %d", udf.Name, udf.Arity, len(x.Args))
			// The interpreter evaluates arguments before checking arity,
			// so argument errors still win.
			call := func(ctx context.Context, t value.Tuple) (value.Value, error) {
				if _, err := evalArgs(ctx, t); err != nil {
					return value.Null(), err
				}
				return value.Null(), arityErr
			}
			return call, info
		}
		udfFn := udf.Fn
		call := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			args, err := evalArgs(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			return udfFn(ctx, args)
		}
		return call, info
	}
	if factory, ok := c.ev.cat.Stateful(name); ok {
		ev := c.ev
		call := func(ctx context.Context, t value.Tuple) (value.Value, error) {
			args, err := evalArgs(ctx, t)
			if err != nil {
				return value.Null(), err
			}
			return ev.callStateful(ctx, name, factory, args)
		}
		return call, info
	}
	unknownErr := fmt.Errorf("tweeql: unknown function %q", x.Name)
	call := func(ctx context.Context, t value.Tuple) (value.Value, error) {
		if _, err := evalArgs(ctx, t); err != nil {
			return value.Null(), err
		}
		return value.Null(), unknownErr
	}
	return call, info
}
