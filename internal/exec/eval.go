// Package exec implements TweeQL's streaming operators: expression
// evaluation, vectorized filtering fused with projection (with the
// asynchronous path for high-latency UDFs) or with windowed grouped
// aggregation (with CONTROL-style confidence triggers), windowed stream
// joins, and limits. Operators are plain calls on batches — a Map or a
// push Operator — that Terminal runs in the consumer's goroutine; only
// the join and the async pool run goroutines of their own. The core
// engine assembles them into plans.
package exec

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/gazetteer"
	"tweeql/internal/lang"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// Evaluator evaluates TweeQL expressions against tuples. It resolves
// UDFs through the catalog and instantiates stateful UDFs once per
// query. Eval is safe for concurrent use (the async projection path
// evaluates from worker goroutines); stateful UDF calls serialize on an
// internal lock since their whole point is shared running state.
type Evaluator struct {
	cat *catalog.Catalog

	// compileOn makes Bind lower expressions to closures (see
	// compile.go); off, Bind delegates every call to Eval.
	compileOn bool
	// prepared holds regexes compiled by PrepareRegexes before
	// evaluation starts. It is read-only once evaluation begins, so the
	// hot path consults it without taking mu.
	prepared map[string]*regexp.Regexp

	mu        sync.Mutex
	statefuls map[string]catalog.ScalarFn
	regexes   map[string]*regexp.Regexp
}

// NewEvaluator builds an evaluator bound to the catalog.
func NewEvaluator(cat *catalog.Catalog) *Evaluator {
	return &Evaluator{
		cat:       cat,
		statefuls: make(map[string]catalog.ScalarFn),
		regexes:   make(map[string]*regexp.Regexp),
	}
}

// PrepareRegexes walks the expressions and compiles every literal
// MATCHES pattern into a read-only map consulted lock-free at eval
// time. Call it before evaluation starts (the engine does, at plan
// time); patterns that fail to compile are skipped here and report
// their error per row exactly as before. Only dynamically computed
// patterns fall back to the mutex-guarded cache.
func (e *Evaluator) PrepareRegexes(exprs ...lang.Expr) {
	for _, expr := range exprs {
		if expr == nil {
			continue
		}
		lang.Walk(expr, func(n lang.Expr) bool {
			b, ok := n.(*lang.Binary)
			if !ok || b.Op != "MATCHES" {
				return true
			}
			lit, ok := b.R.(*lang.Literal)
			if !ok {
				return true
			}
			pat, err := lit.Val.StringVal()
			if err != nil {
				return true
			}
			if _, done := e.prepared[pat]; done {
				return true
			}
			re, err := compilePattern(pat)
			if err != nil {
				return true
			}
			if e.prepared == nil {
				e.prepared = make(map[string]*regexp.Regexp)
			}
			e.prepared[pat] = re
			return true
		})
	}
}

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

// lookupIdent is the dynamic (per-tuple) column resolution shared by
// the interpreter and the compiled path's schema-mismatch fallback.
func lookupIdent(x *lang.Ident, t value.Tuple) value.Value {
	if i, ok := resolveIdent(t.Schema, x); ok {
		return t.Values[i]
	}
	return value.Null()
}

// resolveIdent maps an ident to its column index in schema: the
// qualified name first in join outputs ("a.text"), then the bare name,
// then any qualified column with a matching name suffix.
func resolveIdent(schema *value.Schema, x *lang.Ident) (int, bool) {
	if x.Qualifier != "" {
		if i, ok := schema.IndexFold(x.Qualifier + "." + x.Name); ok {
			return i, true
		}
	}
	if i, ok := schema.IndexFold(x.Name); ok {
		return i, true
	}
	// Unqualified name may still exist only in qualified form.
	for i := 0; i < schema.Len(); i++ {
		name := schema.Field(i).Name
		if j := strings.IndexByte(name, '.'); j >= 0 && strings.EqualFold(name[j+1:], x.Name) {
			return i, true
		}
	}
	return 0, false
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

// compareVals applies a non-NULL comparison with the engine's lax
// typing: a time compared with a parseable time-literal string
// compares chronologically (so `created_at > '2011-02-01'` works
// against the KindTime column), and otherwise incomparable kinds are
// simply unequal, matching the loose typing of tweet fields. Shared by
// the interpreter and the compiled path's generic comparison closure,
// so the two cannot diverge.
func compareVals(op string, l, r value.Value) (value.Value, error) {
	c, err := value.Compare(l, r)
	if err != nil {
		var ok bool
		if c, ok = compareTimeString(l, r); !ok {
			return value.Bool(op == "!="), nil
		}
	}
	switch op {
	case "=":
		return value.Bool(c == 0), nil
	case "!=":
		return value.Bool(c != 0), nil
	case "<":
		return value.Bool(c < 0), nil
	case "<=":
		return value.Bool(c <= 0), nil
	case ">":
		return value.Bool(c > 0), nil
	case ">=":
		return value.Bool(c >= 0), nil
	}
	return value.Null(), fmt.Errorf("tweeql: unknown comparison %q", op)
}

// compareTimeString coerces a time⊗string comparison: the string side
// must parse as a time literal. ok is false when the pair is not a
// time/string mix or the string does not parse.
func compareTimeString(l, r value.Value) (int, bool) {
	if l.Kind() == value.KindTime && r.Kind() == value.KindString {
		if ts, ok := ParseTimeLiteral(r.Str()); ok {
			lt, _ := l.TimeVal()
			return compareTimes(lt, ts), true
		}
	}
	if l.Kind() == value.KindString && r.Kind() == value.KindTime {
		if ts, ok := ParseTimeLiteral(l.Str()); ok {
			rt, _ := r.TimeVal()
			return compareTimes(ts, rt), true
		}
	}
	return 0, false
}

func compareTimes(a, b time.Time) int {
	switch {
	case a.Before(b):
		return -1
	case a.After(b):
		return 1
	default:
		return 0
	}
}

// timeLayouts are the string forms a time literal may take, most
// specific first. Layouts without a zone parse as UTC.
var timeLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02",
}

// ParseTimeLiteral parses the string forms accepted in time
// comparisons (`created_at > '2011-02-01 12:00:00'`). Shared with the
// planner's time-range extraction, so pruning and row-level filtering
// cannot disagree on what a literal means.
func ParseTimeLiteral(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	// Every layout opens with a four-digit year and a full date; most
	// string constants a comparison meets ('en', a username) fail that
	// here, without time.Parse building an error per layout.
	if len(s) < len("2006-01-02") || s[0] < '0' || s[0] > '9' {
		return time.Time{}, false
	}
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

func (e *Evaluator) compiled(pat string) (*regexp.Regexp, error) {
	// Patterns known at plan time live in the read-only prepared map:
	// no lock on the hot path.
	if re, ok := e.prepared[pat]; ok {
		return re, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if re, ok := e.regexes[pat]; ok {
		return re, nil
	}
	re, err := compilePattern(pat)
	if err != nil {
		return nil, err
	}
	e.regexes[pat] = re
	return re, nil
}

// compilePattern is the single place MATCHES patterns become regexes —
// case-insensitive, with the user-facing error text — shared by the
// compiled path, the plan-time pre-walk, and the dynamic cache.
func compilePattern(pat string) (*regexp.Regexp, error) {
	re, err := regexp.Compile("(?i)" + pat)
	if err != nil {
		return nil, fmt.Errorf("tweeql: bad regex %q: %w", pat, err)
	}
	return re, nil
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

func isGeoIdent(name string) bool {
	switch strings.ToLower(name) {
	case "location", "loc", "geo", "coordinates":
		return true
	}
	return false
}

// ResolveBox turns a box literal into an API bounding box, resolving
// city names through the gazetteer (a 1°-margin box around the city).
func ResolveBox(b *lang.BoxLit) (twitterapi.Box, error) {
	if b.City != "" {
		city, ok := gazetteer.Lookup(b.City)
		if !ok {
			return twitterapi.Box{}, fmt.Errorf("tweeql: unknown city %q in bounding box", b.City)
		}
		const margin = 0.5
		return twitterapi.Box{
			MinLat: city.Lat - margin, MinLon: city.Lon - margin,
			MaxLat: city.Lat + margin, MaxLon: city.Lon + margin,
		}, nil
	}
	return twitterapi.Box{
		MinLat: b.Coords[0], MinLon: b.Coords[1],
		MaxLat: b.Coords[2], MaxLon: b.Coords[3],
	}, nil
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

// callStateful invokes a stateful UDF, instantiating it once per query
// and serializing calls on the evaluator lock — running state is the
// whole point of these functions, so stream order must hold even when
// other expressions evaluate from worker goroutines. Shared by the
// interpreter and the compiled path so the two cannot diverge on the
// serialization contract.
func (e *Evaluator) callStateful(ctx context.Context, name string, factory catalog.StatefulFactory, args []value.Value) (value.Value, error) {
	e.mu.Lock()
	inst, exists := e.statefuls[name]
	if !exists {
		//tweeqlvet:ignore lockscope -- stateful-UDF contract: factories construct state and must not block; e.mu is what serializes them
		inst = factory()
		e.statefuls[name] = inst
	}
	//tweeqlvet:ignore lockscope -- stateful-UDF contract: calls serialize on e.mu so running state sees stream order (see doc comment)
	out, err := inst(ctx, args)
	e.mu.Unlock()
	return out, err
}

// builtins are the engine-level scalar functions that need no catalog
// registration (the paper's queries use floor; the rest round out a
// usable dialect).
var builtins = map[string]func([]value.Value) (value.Value, error){
	"floor": numeric1(math.Floor),
	"ceil":  numeric1(math.Ceil),
	"round": numeric1(math.Round),
	"abs":   numeric1(math.Abs),
	"lower": string1(strings.ToLower),
	"upper": string1(strings.ToUpper),
	"length": func(args []value.Value) (value.Value, error) {
		if err := arity("length", args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		s, err := args[0].StringVal()
		if err != nil {
			return value.Null(), nil
		}
		return value.Int(int64(len(s))), nil
	},
	"coalesce": func(args []value.Value) (value.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null(), nil
	},
	"concat": func(args []value.Value) (value.Value, error) {
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return value.String(b.String()), nil
	},
	"hour":   timePart(func(h, m, d int) int { return h }),
	"minute": timePart(func(h, m, d int) int { return m }),
	"day":    timePart(func(h, m, d int) int { return d }),
}

func arity(name string, args []value.Value, want int) error {
	if len(args) != want {
		return fmt.Errorf("tweeql: %s takes %d arguments, got %d", name, want, len(args))
	}
	return nil
}

func numeric1(f func(float64) float64) func([]value.Value) (value.Value, error) {
	return func(args []value.Value) (value.Value, error) {
		if err := arity("function", args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		x, err := args[0].FloatVal()
		if err != nil {
			return value.Null(), nil
		}
		return value.Float(f(x)), nil
	}
}

func string1(f func(string) string) func([]value.Value) (value.Value, error) {
	return func(args []value.Value) (value.Value, error) {
		if err := arity("function", args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		s, err := args[0].StringVal()
		if err != nil {
			return value.Null(), nil
		}
		return value.String(f(s)), nil
	}
}

func timePart(pick func(h, m, d int) int) func([]value.Value) (value.Value, error) {
	return func(args []value.Value) (value.Value, error) {
		if err := arity("function", args, 1); err != nil {
			return value.Null(), err
		}
		if args[0].IsNull() {
			return value.Null(), nil
		}
		t, err := args[0].TimeVal()
		if err != nil {
			return value.Null(), nil
		}
		return value.Int(int64(pick(t.Hour(), t.Minute(), t.Day()))), nil
	}
}

// HasHighLatency reports whether the expression tree calls any UDF the
// catalog marks HighLatency — the trigger for the asynchronous
// projection path.
func HasHighLatency(cat *catalog.Catalog, exprs ...lang.Expr) bool {
	return callsAny(exprs, func(name string) bool {
		udf, ok := cat.Scalar(name)
		return ok && udf.HighLatency
	})
}

// hasStateful reports whether any expression calls a stateful UDF — the
// trigger for a row-major stage (see colFilter).
func HasStateful(cat *catalog.Catalog, exprs ...lang.Expr) bool {
	return callsAny(exprs, func(name string) bool {
		_, ok := cat.Stateful(name)
		return ok
	})
}

// callsAny reports whether any expression calls a function match
// accepts.
func callsAny(exprs []lang.Expr, match func(name string) bool) bool {
	found := false
	for _, expr := range exprs {
		lang.Walk(expr, func(n lang.Expr) bool {
			if c, ok := n.(*lang.Call); ok && match(c.Name) {
				found = true
			}
			return !found
		})
	}
	return found
}
