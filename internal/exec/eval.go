// Package exec implements TweeQL's streaming operators: expression
// evaluation, vectorized filtering fused with projection (with the
// asynchronous path for high-latency UDFs) or with windowed grouped
// aggregation (with CONTROL-style confidence triggers), windowed stream
// joins, and limits. Operators are plain calls on batches — a Map or a
// push Operator — that Terminal runs in the consumer's goroutine, as it
// does the join; only the async pool runs goroutines of its own. The core
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
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// Evaluator is one query's expression context: Bind (compile.go)
// lowers its expressions to closures that resolve UDFs through the
// catalog and share the query's stateful-UDF instances, created once
// per query. The closures are safe for concurrent use (the async
// projection path evaluates from worker goroutines); stateful UDF calls
// serialize on an internal lock since their whole point is shared
// running state, and MATCHES patterns computed per row share a
// mutex-guarded cache.
type Evaluator struct {
	cat *catalog.Catalog

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

// lookupIdent is the dynamic (per-tuple) column resolution: the
// compiled path's schema-mismatch fallback and its form for columns the
// plan schema lacks.
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

// compareVals applies a non-NULL comparison with the engine's lax
// typing: a time compared with a parseable time-literal string
// compares chronologically (so `created_at > '2011-02-01'` works
// against the KindTime column), and otherwise incomparable kinds are
// simply unequal, matching the loose typing of tweet fields. Every
// compiled comparison off its kind fast path ends here.
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

// compiled returns the regex for a MATCHES pattern computed per row,
// compiling each distinct pattern once. Literal patterns never come
// here: lowerMatches compiles them at plan time.
func (e *Evaluator) compiled(pat string) (*regexp.Regexp, error) {
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
// case-insensitive, with the user-facing error text — shared by
// lowerMatches' plan-time literals and the dynamic cache.
func compilePattern(pat string) (*regexp.Regexp, error) {
	re, err := regexp.Compile("(?i)" + pat)
	if err != nil {
		return nil, fmt.Errorf("tweeql: bad regex %q: %w", pat, err)
	}
	return re, nil
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
