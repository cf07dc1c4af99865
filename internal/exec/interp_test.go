package exec

import (
	"context"
	"fmt"
	"strings"

	"tweeql/internal/lang"
	"tweeql/internal/tweet"
	"tweeql/internal/value"
)

// The tree-walking AST interpreter: the engine's first evaluator and
// now the oracle the compiled closures (compile.go) are held to by the
// differential tests and FuzzCompiledMatchesInterpreter. It shares the
// production helpers — lookupIdent, compareVals, compiled,
// ResolveBox, isGeoIdent, callStateful, builtins — so only the AST walk
// itself lives here.

// Eval computes the value of expr for the tuple.
func (e *Evaluator) Eval(ctx context.Context, expr lang.Expr, t value.Tuple) (value.Value, error) {
	switch x := expr.(type) {
	case *lang.Literal:
		return x.Val, nil
	case *lang.Ident:
		return e.evalIdent(x, t), nil
	case *lang.Unary:
		return e.evalUnary(ctx, x, t)
	case *lang.Binary:
		return e.evalBinary(ctx, x, t)
	case *lang.IsNull:
		v, err := e.Eval(ctx, x.X, t)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(v.IsNull() != x.Negate), nil
	case *lang.InBox:
		return e.evalInBox(ctx, x, t)
	case *lang.InList:
		return e.evalInList(ctx, x, t)
	case *lang.Call:
		return e.evalCall(ctx, x, t)
	default:
		return value.Null(), fmt.Errorf("tweeql: cannot evaluate %T", expr)
	}
}

// evalIdent resolves a column, preferring the qualified name in join
// outputs ("a.text"), then the bare name.
func (e *Evaluator) evalIdent(x *lang.Ident, t value.Tuple) value.Value {
	return lookupIdent(x, t)
}

func (e *Evaluator) evalUnary(ctx context.Context, x *lang.Unary, t value.Tuple) (value.Value, error) {
	v, err := e.Eval(ctx, x.X, t)
	if err != nil {
		return value.Null(), err
	}
	switch x.Op {
	case "NOT":
		if v.IsNull() {
			return value.Null(), nil
		}
		return value.Bool(!v.Truthy()), nil
	case "-":
		return value.Arith("-", value.Int(0), v)
	default:
		return value.Null(), fmt.Errorf("tweeql: unknown unary operator %q", x.Op)
	}
}

func (e *Evaluator) evalBinary(ctx context.Context, x *lang.Binary, t value.Tuple) (value.Value, error) {
	// AND/OR: three-valued logic with short circuit.
	switch x.Op {
	case "AND":
		l, err := e.Eval(ctx, x.L, t)
		if err != nil {
			return value.Null(), err
		}
		if !l.IsNull() && !l.Truthy() {
			return value.Bool(false), nil
		}
		r, err := e.Eval(ctx, x.R, t)
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
	case "OR":
		l, err := e.Eval(ctx, x.L, t)
		if err != nil {
			return value.Null(), err
		}
		if !l.IsNull() && l.Truthy() {
			return value.Bool(true), nil
		}
		r, err := e.Eval(ctx, x.R, t)
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

	l, err := e.Eval(ctx, x.L, t)
	if err != nil {
		return value.Null(), err
	}
	r, err := e.Eval(ctx, x.R, t)
	if err != nil {
		return value.Null(), err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return value.Arith(x.Op, l, r)
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil // SQL: comparisons with NULL are UNKNOWN
		}
		return compareVals(x.Op, l, r)
	case "CONTAINS":
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		ls, err1 := l.StringVal()
		rs, err2 := r.StringVal()
		if err1 != nil || err2 != nil {
			return value.Bool(false), nil
		}
		return value.Bool(tweet.ContainsWord(ls, rs)), nil
	case "MATCHES":
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		ls, err1 := l.StringVal()
		pat, err2 := r.StringVal()
		if err1 != nil || err2 != nil {
			return value.Bool(false), nil
		}
		re, err := e.compiled(pat)
		if err != nil {
			return value.Null(), err
		}
		return value.Bool(re.MatchString(ls)), nil
	}
	return value.Null(), fmt.Errorf("tweeql: unknown operator %q", x.Op)
}

// evalInBox implements "location IN <box>". Two location forms work:
// the special geo idents (location/loc/geo) read the tuple's GPS lat/lon
// columns; any other expression must evaluate to a [lat, lon] list (as
// the geocode UDF returns). Tweets without coordinates are not in any
// box.
func (e *Evaluator) evalInBox(ctx context.Context, x *lang.InBox, t value.Tuple) (value.Value, error) {
	box, err := ResolveBox(x.Box)
	if err != nil {
		return value.Null(), err
	}
	var lat, lon value.Value
	if id, ok := x.Loc.(*lang.Ident); ok && isGeoIdent(id.Name) {
		lat, lon = t.Get("lat"), t.Get("lon")
	} else {
		v, err := e.Eval(ctx, x.Loc, t)
		if err != nil {
			return value.Null(), err
		}
		lst, err := v.ListVal()
		if err != nil || len(lst) != 2 {
			return value.Bool(false), nil
		}
		lat, lon = lst[0], lst[1]
	}
	if lat.IsNull() || lon.IsNull() {
		return value.Bool(false), nil
	}
	la, err1 := lat.FloatVal()
	lo, err2 := lon.FloatVal()
	if err1 != nil || err2 != nil {
		return value.Bool(false), nil
	}
	return value.Bool(box.Contains(la, lo)), nil
}

func (e *Evaluator) evalInList(ctx context.Context, x *lang.InList, t value.Tuple) (value.Value, error) {
	v, err := e.Eval(ctx, x.X, t)
	if err != nil {
		return value.Null(), err
	}
	if v.IsNull() {
		return value.Null(), nil
	}
	for _, item := range x.Items {
		iv, err := e.Eval(ctx, item, t)
		if err != nil {
			return value.Null(), err
		}
		if value.Equal(v, iv) {
			return value.Bool(true), nil
		}
	}
	return value.Bool(false), nil
}

func (e *Evaluator) evalCall(ctx context.Context, x *lang.Call, t value.Tuple) (value.Value, error) {
	name := strings.ToLower(x.Name)
	args := make([]value.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := e.Eval(ctx, a, t)
		if err != nil {
			return value.Null(), err
		}
		args[i] = v
	}
	if fn, ok := builtins[name]; ok {
		return fn(args)
	}
	if udf, ok := e.cat.Scalar(name); ok {
		if udf.Arity >= 0 && len(args) != udf.Arity {
			return value.Null(), fmt.Errorf("tweeql: %s takes %d arguments, got %d", udf.Name, udf.Arity, len(args))
		}
		return udf.Fn(ctx, args)
	}
	if factory, ok := e.cat.Stateful(name); ok {
		return e.callStateful(ctx, name, factory, args)
	}
	return value.Null(), fmt.Errorf("tweeql: unknown function %q", x.Name)
}
