package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/value"
)

// diffSchema covers every declared kind plus a dynamic (KindNull)
// column and qualified join-style names, so compilation exercises both
// the specialized and the generic closures.
func diffSchema() *value.Schema {
	return value.NewSchema(
		value.Field{Name: "text", Kind: value.KindString},
		value.Field{Name: "n", Kind: value.KindInt},
		value.Field{Name: "f", Kind: value.KindFloat},
		value.Field{Name: "ok", Kind: value.KindBool},
		value.Field{Name: "ts", Kind: value.KindTime},
		value.Field{Name: "lst", Kind: value.KindList},
		value.Field{Name: "dyn", Kind: value.KindNull},
		value.Field{Name: "lat", Kind: value.KindFloat},
		value.Field{Name: "lon", Kind: value.KindFloat},
		value.Field{Name: "a.text", Kind: value.KindString},
	)
}

func diffRows() []value.Tuple {
	s := diffSchema()
	t0 := time.Date(2011, 6, 12, 15, 4, 5, 0, time.UTC)
	mk := func(vals ...value.Value) value.Tuple { return value.NewTuple(s, vals, t0) }
	return []value.Tuple{
		mk(value.String("GOAL by Tevez #soccer"), value.Int(7), value.Float(40.7), value.Bool(true),
			value.Time(t0), value.List([]value.Value{value.Float(40.7), value.Float(-74.0)}),
			value.String("dyn-str"), value.Float(40.7), value.Float(-74.0), value.String("left")),
		// NULLs everywhere null can appear.
		mk(value.Null(), value.Null(), value.Null(), value.Null(),
			value.Null(), value.Null(), value.Null(), value.Null(), value.Null(), value.Null()),
		// Dynamic column drifts kind; declared columns carry off-kind
		// data (messy tweet fields), exercising the fast-path guards.
		mk(value.Int(123), value.String("seven"), value.Int(3), value.Int(0),
			value.String("not a time"), value.String("not a list"),
			value.Float(1.5), value.Float(91), value.Float(181), value.Int(9)),
		mk(value.String("liverpool wins"), value.Int(-2), value.Float(0.25), value.Bool(false),
			value.Time(t0.Add(time.Hour)), value.List([]value.Value{value.Float(1)}),
			value.Bool(true), value.Null(), value.Float(-74.0), value.String("x")),
	}
}

// diffCatalog registers the UDF shapes the compiler special-cases:
// plain scalar, erroring scalar, variadic, and stateful.
func diffCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.RegisterScalar(&catalog.ScalarUDF{Name: "double", Arity: 1,
		Fn: func(_ context.Context, args []value.Value) (value.Value, error) {
			return value.Arith("*", args[0], value.Int(2))
		}}))
	must(cat.RegisterScalar(&catalog.ScalarUDF{Name: "boom", Arity: 1,
		Fn: func(context.Context, []value.Value) (value.Value, error) {
			return value.Null(), errors.New("boom: service down")
		}}))
	must(cat.RegisterStateful("running_count", func() catalog.ScalarFn {
		var n int64
		return func(context.Context, []value.Value) (value.Value, error) {
			n++
			return value.Int(n), nil
		}
	}))
	return cat
}

// diffExprs is the hand-written expression table, and the seed corpus
// of FuzzCompiledMatchesInterpreter: every operator, every
// specialization trigger, NULL and error propagation, and constant
// folding.
var diffExprs = []string{
	// Idents and literals, qualified and missing.
	"text", "n", "f", "ok", "dyn", "missing_col", "a.text", "b.text", "42", "'lit'", "3.5",
	// Arithmetic, int chains, folding, division by zero.
	"n + 1", "n * f", "f / 0", "1 + 2 * 3", "n % 2", "n % 3", "n * 2 + 1", "-n", "-f",
	"'a' + 'b'", "text + 'x'",
	// Comparisons: specialized string/numeric, generic, kind mismatch.
	"text = 'GOAL by Tevez #soccer'", "text != 'x'", "text < 'm'", "n = 7", "n != 7",
	"n < 10", "n <= 7", "n > 0", "n >= 8", "f > 1.5", "lat >= 0", "n = f", "text = n", "dyn = 7",
	"dyn = 'dyn-str'", "ok = 1", "ts > ts", "lst = lst", "1 < 2", "'b' >= 'a'",
	// Logic with three-valued semantics.
	"n > 0 AND f > 0", "n > 0 OR f > 0", "f > 0 AND n = 7", "f > 0 OR n = 7",
	"NOT n = 7", "NOT dyn", "NOT missing_col", "n > 0 AND text CONTAINS 'goal'",
	// IS NULL.
	"n IS NULL", "n IS NOT NULL", "missing_col IS NULL", "dyn IS NOT NULL",
	// CONTAINS: literal keyword, dynamic keyword, non-string sides.
	"text CONTAINS 'goal'", "text CONTAINS 'obama'", "text CONTAINS text",
	"n CONTAINS 'x'", "text CONTAINS n", "text CONTAINS '#soccer'",
	// CONTAINS disjunctions: folded over one column (phrases, hashtags,
	// empty keywords, NULL and off-kind text), and the shapes that stay
	// unfolded (two columns, a NULL or computed keyword).
	"text CONTAINS 'goal' OR text CONTAINS 'liverpool'",
	"text CONTAINS 'obama' OR text CONTAINS 'x' OR text CONTAINS '#SOCCER'",
	"(text CONTAINS 'zzz' OR text CONTAINS 'liverpool wins') OR text CONTAINS 'by tevez'",
	"text CONTAINS '' OR text CONTAINS ' '", "dyn CONTAINS 'x' OR dyn CONTAINS 'DYN-STR'",
	"n CONTAINS 'x' OR n CONTAINS 'seven'", "missing_col CONTAINS 'a' OR missing_col CONTAINS 'b'",
	"a.text CONTAINS 'left' OR a.text CONTAINS 'x'", "text CONTAINS 'goal' OR a.text CONTAINS 'x'",
	"text CONTAINS 'zzz' OR text CONTAINS NULL", "text CONTAINS 'zzz' OR text CONTAINS text",
	"text CONTAINS 'goal' OR n > 0",
	// MATCHES: plan-time regex, bad regex, dynamic pattern, non-strings.
	"text MATCHES 'go+al'", "text MATCHES '^goal'", "text MATCHES 'zzz'",
	"text MATCHES '['", "text MATCHES text", "n MATCHES 'x'", "text MATCHES 7",
	// IN lists: hashed int/float/string sets, mixed, dynamic items.
	"n IN (5, 6, 7)", "n IN (1, 2)", "f IN (40.7, 1.5)", "n IN (7.0, 9.5)",
	"text IN ('a', 'liverpool wins')", "text IN ('GOAL by Tevez #soccer')",
	"dyn IN (1.5, 'dyn-str')", "n IN (7, 'x')", "n IN (f, 1)", "text IN (text, 'y')",
	"missing_col IN (1, 2)",
	// Geo containment: GPS idents and computed lists.
	"location IN BOX(40, -75, 41, -73)", "lst IN BOX(40, -75, 41, -73)",
	"dyn IN BOX(40, -75, 41, -73)",
	// Calls: builtins, UDFs, stateful, unknown, arity and arg errors.
	"floor(f)", "ceil(f)", "round(f)", "abs(n)", "lower(text)", "upper(text)",
	"length(text)", "length(n)", "coalesce(dyn, n, 1)", "concat(text, '-', n)",
	"hour(ts)", "minute(ts)", "day(ts)", "floor(text)", "floor(1.9)",
	"double(n)", "double(text)", "boom(n)", "boom(missing_col)",
	"double(boom(n))", "running_count(n)", "nosuchfn(n)", "double(n, 1)",
	"double(nosuchfn(n))",
}

// TestCompiledMatchesInterpreter is the expression-level differential
// test: every expression of diffExprs over every row must produce the
// identical value — kind included — and the identical error through the
// compiled closures and the test-only tree-walking interpreter.
func TestCompiledMatchesInterpreter(t *testing.T) {
	// Separate evaluators so each path owns its stateful-UDF instances;
	// both see the same call sequence, so running state stays aligned.
	interp := NewEvaluator(diffCatalog(t))
	comp := NewEvaluator(diffCatalog(t))
	for _, src := range diffExprs {
		matchInterpreter(t, src, whereExpr(t, src), interp, comp)
	}
	// The parser builds a box literal only inside IN; on its own it is
	// the one node neither path can evaluate, and both say so per row.
	matchInterpreter(t, "bare box literal", &lang.BoxLit{City: "nyc"}, interp, comp)
}

// FuzzCompiledMatchesInterpreter generalizes TestCompiledMatchesInterpreter
// to any WHERE clause the parser accepts, seeded with diffExprs: the
// compiler is total, so no expression may need the interpreter to
// answer it differently.
func FuzzCompiledMatchesInterpreter(f *testing.F) {
	for _, src := range diffExprs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			return
		}
		stmt, err := lang.Parse("SELECT x FROM t WHERE " + src)
		if err != nil || stmt.Where == nil {
			return
		}
		matchInterpreter(t, src, stmt.Where, NewEvaluator(diffCatalog(t)), NewEvaluator(diffCatalog(t)))
	})
}

// matchInterpreter evaluates x over every diffRows row through comp's
// compiled closure and interp's interpreter, and reports each row whose
// value, kind or error text differs.
func matchInterpreter(t *testing.T, src string, x lang.Expr, interp, comp *Evaluator) {
	t.Helper()
	ctx := context.Background()
	fn := comp.Bind(x, diffSchema())
	for ri, row := range diffRows() {
		wantV, wantErr := interp.Eval(ctx, x, row)
		gotV, gotErr := fn(ctx, row)
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%s row %d: err mismatch: interp=%v compiled=%v", src, ri, wantErr, gotErr)
			continue
		}
		if wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Errorf("%s row %d: err text: interp=%q compiled=%q", src, ri, wantErr, gotErr)
		}
		if wantErr == nil && (wantV.Kind() != gotV.Kind() || wantV.String() != gotV.String()) {
			t.Errorf("%s row %d: interp=%s(%s) compiled=%s(%s)",
				src, ri, wantV, wantV.Kind(), gotV, gotV.Kind())
		}
	}
}

// TestCompiledAgainstForeignSchema feeds compiled closures tuples
// carrying a different schema object than they were compiled against:
// the schema-pointer guard must fall back to dynamic resolution and
// still match the interpreter.
func TestCompiledAgainstForeignSchema(t *testing.T) {
	planSchema := diffSchema()
	// Same columns, re-ordered and re-shaped: stale indices would read
	// the wrong cells if the guard failed.
	runSchema := value.NewSchema(
		value.Field{Name: "n", Kind: value.KindInt},
		value.Field{Name: "text", Kind: value.KindString},
	)
	row := value.NewTuple(runSchema, []value.Value{value.Int(7), value.String("goal")}, time.Time{})
	ev := NewEvaluator(catalog.New())
	ctx := context.Background()
	for _, src := range []string{"text", "n + 1", "text CONTAINS 'goal'", "n = 7", "f IS NULL"} {
		x := whereExpr(t, src)
		fn := ev.Bind(x, planSchema)
		wantV, wantErr := ev.Eval(ctx, x, row)
		gotV, gotErr := fn(ctx, row)
		if (wantErr != nil) != (gotErr != nil) || wantV.String() != gotV.String() {
			t.Errorf("%s: interp=%s,%v compiled=%s,%v", src, wantV, wantErr, gotV, gotErr)
		}
	}
}

// TestCompiledFilterAllocFree pins the acceptance criterion: evaluating
// compiled ident/literal/comparison predicates allocates nothing.
func TestCompiledFilterAllocFree(t *testing.T) {
	schema := diffSchema()
	row := diffRows()[0]
	ev := NewEvaluator(catalog.New())
	ctx := context.Background()
	for _, src := range []string{
		"text = 'GOAL by Tevez #soccer'",
		"n > 5",
		"f >= 40.7",
		"n > 0 AND f > 0 AND NOT ok",
		"n IN (5, 6, 7)",
		"text IN ('a', 'b')",
		"n IS NOT NULL",
		"ts >= '2011-06-12 13:00:00'", // the time literal is parsed at compile time, not per row
	} {
		x := whereExpr(t, src)
		fn := ev.Bind(x, schema)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := fn(ctx, row); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", src, allocs)
		}
	}
}
