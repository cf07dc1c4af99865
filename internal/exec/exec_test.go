package exec

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/value"
)

func testSchema() *value.Schema {
	return value.NewSchema(
		value.Field{Name: "text", Kind: value.KindString},
		value.Field{Name: "n", Kind: value.KindInt},
		value.Field{Name: "lat", Kind: value.KindFloat},
		value.Field{Name: "lon", Kind: value.KindFloat},
	)
}

func row(text string, n int64, lat, lon value.Value, ts time.Time) value.Tuple {
	return value.NewTuple(testSchema(), []value.Value{value.String(text), value.Int(n), lat, lon}, ts)
}

func expr(t *testing.T, s string) lang.Expr {
	t.Helper()
	stmt, err := lang.Parse("SELECT " + s + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return stmt.Items[0].Expr
}

func whereExpr(t *testing.T, s string) lang.Expr {
	t.Helper()
	stmt, err := lang.Parse("SELECT x FROM t WHERE " + s)
	if err != nil {
		t.Fatalf("parse where %q: %v", s, err)
	}
	return stmt.Where
}

func evalOn(t *testing.T, e lang.Expr, tup value.Tuple) value.Value {
	t.Helper()
	ev := NewEvaluator(catalog.New())
	v, err := ev.Eval(context.Background(), e, tup)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestEvalIdentAndLiterals(t *testing.T) {
	tup := row("hello", 7, value.Float(40.7), value.Float(-74.0), time.Unix(0, 0))
	if got := evalOn(t, expr(t, "text"), tup); got.String() != "hello" {
		t.Errorf("text = %s", got)
	}
	if got := evalOn(t, expr(t, "missing"), tup); !got.IsNull() {
		t.Errorf("missing column = %s", got)
	}
	if got := evalOn(t, expr(t, "n + 1"), tup); got.String() != "8" {
		t.Errorf("n+1 = %s", got)
	}
	if got := evalOn(t, expr(t, "-n"), tup); got.String() != "-7" {
		t.Errorf("-n = %s", got)
	}
}

func TestEvalQualifiedIdent(t *testing.T) {
	schema := value.NewSchema(
		value.Field{Name: "a.text", Kind: value.KindString},
		value.Field{Name: "b.text", Kind: value.KindString},
	)
	tup := value.NewTuple(schema, []value.Value{value.String("left"), value.String("right")}, time.Time{})
	ev := NewEvaluator(catalog.New())
	v, err := ev.Eval(context.Background(), &lang.Ident{Qualifier: "b", Name: "text"}, tup)
	if err != nil || v.String() != "right" {
		t.Errorf("b.text = %v, %v", v, err)
	}
	// Unqualified falls back to the first qualified match.
	v, _ = ev.Eval(context.Background(), &lang.Ident{Name: "text"}, tup)
	if v.String() != "left" {
		t.Errorf("text = %v", v)
	}
}

func TestEvalComparisonsAndLogic(t *testing.T) {
	tup := row("goal by Tevez", 7, value.Null(), value.Null(), time.Unix(0, 0))
	cases := []struct {
		where string
		want  string
	}{
		{"n = 7", "true"},
		{"n != 7", "false"},
		{"n < 10 AND n > 5", "true"},
		{"n < 5 OR n > 6", "true"},
		{"NOT n = 7", "false"},
		{"text CONTAINS 'tevez'", "true"},
		{"text CONTAINS 'obama'", "false"},
		{"text MATCHES 'te+vez'", "true"},
		{"text MATCHES '^goal'", "true"},
		{"text MATCHES 'zzz'", "false"},
		{"lat IS NULL", "true"},
		{"lat IS NOT NULL", "false"},
		{"n IN (5, 6, 7)", "true"},
		{"n IN (1, 2)", "false"},
		{"lat = 1", "NULL"},
		{"lat > 0 AND n = 7", "NULL"},
		{"lat > 0 OR n = 7", "true"},
		{"lat > 0 AND n = 0", "false"},
	}
	for _, c := range cases {
		got := evalOn(t, whereExpr(t, c.where), tup)
		if got.String() != c.want {
			t.Errorf("%s = %s, want %s", c.where, got, c.want)
		}
	}
}

func TestEvalIncomparableKinds(t *testing.T) {
	tup := row("x", 1, value.Null(), value.Null(), time.Unix(0, 0))
	if got := evalOn(t, whereExpr(t, "text = 5"), tup); got.String() != "false" {
		t.Errorf("text = 5 → %s", got)
	}
	if got := evalOn(t, whereExpr(t, "text != 5"), tup); got.String() != "true" {
		t.Errorf("text != 5 → %s", got)
	}
}

func TestEvalInBoxGeoIdent(t *testing.T) {
	in := row("x", 1, value.Float(40.71), value.Float(-74.0), time.Unix(0, 0))
	out := row("x", 1, value.Float(42.36), value.Float(-71.05), time.Unix(0, 0))
	nogeo := row("x", 1, value.Null(), value.Null(), time.Unix(0, 0))
	e := whereExpr(t, "location IN [BOUNDING BOX FOR nyc]")
	if got := evalOn(t, e, in); got.String() != "true" {
		t.Errorf("NYC tweet in NYC box = %s", got)
	}
	if got := evalOn(t, e, out); got.String() != "false" {
		t.Errorf("Boston tweet in NYC box = %s", got)
	}
	if got := evalOn(t, e, nogeo); got.String() != "false" {
		t.Errorf("no-geo tweet in box = %s", got)
	}
}

func TestEvalInBoxListExpr(t *testing.T) {
	// A UDF-style [lat, lon] list works through IN BOX(...) too.
	cat := catalog.New()
	err := cat.RegisterScalar(&catalog.ScalarUDF{
		Name: "fixedgeo", Arity: 0,
		Fn: func(context.Context, []value.Value) (value.Value, error) {
			return value.List([]value.Value{value.Float(40.71), value.Float(-74.0)}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(cat)
	e := whereExpr(t, "fixedgeo() IN BOX(40.4, -74.3, 41.0, -73.7)")
	v, err := ev.Eval(context.Background(), e, row("x", 1, value.Null(), value.Null(), time.Time{}))
	if err != nil || v.String() != "true" {
		t.Errorf("list in box = %v, %v", v, err)
	}
}

func TestEvalUnknownCityBox(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	e := whereExpr(t, "location IN [BOUNDING BOX FOR atlantis]")
	_, err := ev.Eval(context.Background(), e, row("x", 1, value.Null(), value.Null(), time.Time{}))
	if err == nil {
		t.Error("unknown city should error")
	}
}

func TestEvalBuiltins(t *testing.T) {
	tup := row("Hello World", 7, value.Float(40.7), value.Null(), time.Date(2011, 6, 12, 15, 30, 0, 0, time.UTC))
	cases := map[string]string{
		"floor(lat)":        "40",
		"ceil(lat)":         "41",
		"round(lat)":        "41",
		"abs(0 - n)":        "7",
		"lower(text)":       "hello world",
		"upper(text)":       "HELLO WORLD",
		"length(text)":      "11",
		"coalesce(lon, n)":  "7",
		"concat(text, '!')": "Hello World!",
		"floor(lon)":        "NULL",
	}
	for e, want := range cases {
		if got := evalOn(t, expr(t, e), tup); got.String() != want {
			t.Errorf("%s = %s, want %s", e, got, want)
		}
	}
}

func TestEvalTimeBuiltins(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "created_at", Kind: value.KindTime})
	ts := time.Date(2011, 6, 14, 15, 30, 0, 0, time.UTC)
	tup := value.NewTuple(schema, []value.Value{value.Time(ts)}, ts)
	ev := NewEvaluator(catalog.New())
	for e, want := range map[string]string{"hour(created_at)": "15", "minute(created_at)": "30", "day(created_at)": "14"} {
		stmt, _ := lang.Parse("SELECT " + e + " FROM t")
		v, err := ev.Eval(context.Background(), stmt.Items[0].Expr, tup)
		if err != nil || v.String() != want {
			t.Errorf("%s = %v, %v", e, v, err)
		}
	}
}

func TestEvalUDFArityAndUnknown(t *testing.T) {
	cat := catalog.New()
	_ = cat.RegisterScalar(&catalog.ScalarUDF{
		Name: "one", Arity: 1,
		Fn: func(_ context.Context, args []value.Value) (value.Value, error) { return args[0], nil },
	})
	ev := NewEvaluator(cat)
	tup := row("x", 1, value.Null(), value.Null(), time.Time{})
	if _, err := ev.Eval(context.Background(), expr(t, "one(1, 2)"), tup); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := ev.Eval(context.Background(), expr(t, "nosuchfn(1)"), tup); err == nil {
		t.Error("unknown function should error")
	}
}

func TestEvalStatefulUDF(t *testing.T) {
	cat := catalog.New()
	err := cat.RegisterStateful("row_number", func() catalog.ScalarFn {
		var n int64
		return func(context.Context, []value.Value) (value.Value, error) {
			n++
			return value.Int(n), nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(cat)
	tup := row("x", 1, value.Null(), value.Null(), time.Time{})
	for want := int64(1); want <= 3; want++ {
		v, err := ev.Eval(context.Background(), expr(t, "row_number()"), tup)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := v.IntVal()
		if got != want {
			t.Errorf("row_number call = %d, want %d", got, want)
		}
	}
	// A second evaluator gets fresh state.
	ev2 := NewEvaluator(cat)
	v, _ := ev2.Eval(context.Background(), expr(t, "row_number()"), tup)
	if got, _ := v.IntVal(); got != 1 {
		t.Errorf("fresh evaluator row_number = %d", got)
	}
}

func feedRows(rows ...value.Tuple) <-chan value.Tuple {
	ch := make(chan value.Tuple, len(rows))
	for _, r := range rows {
		ch <- r
	}
	close(ch)
	return ch
}

func collect(ch <-chan value.Tuple) []value.Tuple {
	var out []value.Tuple
	for t := range ch {
		out = append(out, t)
	}
	return out
}

func TestFilterStage(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	stats := &Stats{}
	conjuncts := []lang.Expr{whereExpr(t, "n > 2"), whereExpr(t, "text CONTAINS 'keep'")}
	for _, adaptive := range []bool{false, true} {
		stage := FilterStage(ev, conjuncts, testSchema(), []float64{1, 1}, adaptive, 1, stats)
		out := collect(stage(context.Background(), feedRows(
			row("keep me", 3, value.Null(), value.Null(), time.Unix(1, 0)),
			row("keep me", 1, value.Null(), value.Null(), time.Unix(2, 0)),
			row("drop me", 5, value.Null(), value.Null(), time.Unix(3, 0)),
			row("keep too", 9, value.Null(), value.Null(), time.Unix(4, 0)),
		)))
		if len(out) != 2 {
			t.Errorf("adaptive=%v: kept %d rows, want 2", adaptive, len(out))
		}
	}
	if stats.Dropped.Load() != 4 {
		t.Errorf("Dropped = %d", stats.Dropped.Load())
	}
}

func TestProjectStageSyncAsyncAgree(t *testing.T) {
	cat := catalog.New()
	var calls atomic.Int64
	_ = cat.RegisterScalar(&catalog.ScalarUDF{
		Name: "slow_double", Arity: 1, HighLatency: true,
		Fn: func(_ context.Context, args []value.Value) (value.Value, error) {
			calls.Add(1)
			//tweeqlvet:ignore sleepsync -- simulated slow UDF so the async stage overlaps calls, not synchronization
			time.Sleep(time.Millisecond)
			return value.Arith("*", args[0], value.Int(2))
		},
	})
	ev := NewEvaluator(cat)
	items := []ProjItem{
		{Name: "d", Expr: expr(t, "slow_double(n)")},
		{Name: "t", Expr: expr(t, "text")},
	}
	var rows []value.Tuple
	for i := int64(0); i < 20; i++ {
		rows = append(rows, row("r", i, value.Null(), value.Null(), time.Unix(i, 0)))
	}
	sync := collect(ProjectStage(ev, items, testSchema(), &Stats{})(context.Background(), feedRows(rows...)))
	async := collect(AsyncProjectStage(ev, items, testSchema(), 8, 0, &Stats{})(context.Background(), feedRows(rows...)))
	if len(sync) != 20 || len(async) != 20 {
		t.Fatalf("lens: %d %d", len(sync), len(async))
	}
	for i := range sync {
		if sync[i].String() != async[i].String() {
			t.Errorf("row %d differs: %s vs %s", i, sync[i], async[i])
		}
	}
}

func TestProjectWildcard(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	items := []ProjItem{{Wildcard: true}, {Name: "n2", Expr: expr(t, "n * 2")}}
	out := collect(ProjectStage(ev, items, testSchema(), &Stats{})(context.Background(), feedRows(
		row("a", 2, value.Null(), value.Null(), time.Unix(0, 0)),
	)))
	if len(out) != 1 {
		t.Fatal("no output")
	}
	if out[0].Schema.Len() != testSchema().Len()+1 {
		t.Errorf("schema = %s", out[0].Schema)
	}
	if got := out[0].Get("n2"); got.String() != "4" {
		t.Errorf("n2 = %s", got)
	}
}

func aggCfg(t *testing.T, groupBy, agg string, win *lang.WindowSpec, conf *lang.ConfidenceSpec) AggregateConfig {
	t.Helper()
	cfg := AggregateConfig{Window: win, Confidence: conf}
	if groupBy != "" {
		cfg.GroupExprs = []lang.Expr{expr(t, groupBy)}
		cfg.Out = append(cfg.Out, OutCol{Name: groupBy, Index: 0})
	}
	stmtAgg := expr(t, agg).(*lang.Call)
	var arg lang.Expr
	if !stmtAgg.Star {
		arg = stmtAgg.Args[0]
	}
	cfg.Out = append(cfg.Out, OutCol{Name: agg, IsAgg: true, Index: 0})
	cfg.Aggs = []AggItem{{Name: agg, AggName: NormalizeAggName(stmtAgg.Name), Star: stmtAgg.Star, Arg: arg}}
	return cfg
}

func TestAggregateStageTumbling(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	cfg := aggCfg(t, "text", "COUNT(*)", &lang.WindowSpec{Size: time.Minute, Every: time.Minute}, nil)
	base := time.Unix(0, 0).UTC()
	out := collect(AggregateStage(ev, cfg, &Stats{})(context.Background(), feedRows(
		row("a", 1, value.Null(), value.Null(), base.Add(10*time.Second)),
		row("a", 2, value.Null(), value.Null(), base.Add(20*time.Second)),
		row("b", 3, value.Null(), value.Null(), base.Add(30*time.Second)),
		row("a", 4, value.Null(), value.Null(), base.Add(70*time.Second)), // closes window 0
	)))
	if len(out) != 3 {
		t.Fatalf("got %d rows: %v", len(out), out)
	}
	// First window emits a=2, b=1 (sorted by key).
	if out[0].Get("text").String() != "a" || out[0].Get("COUNT(*)").String() != "2" {
		t.Errorf("row0 = %s", out[0])
	}
	if out[1].Get("text").String() != "b" || out[1].Get("COUNT(*)").String() != "1" {
		t.Errorf("row1 = %s", out[1])
	}
	ws, _ := out[0].Get("window_start").TimeVal()
	we, _ := out[0].Get("window_end").TimeVal()
	if !ws.Equal(base) || !we.Equal(base.Add(time.Minute)) {
		t.Errorf("window bounds %v %v", ws, we)
	}
	// Flush emits the last bucket.
	if out[2].Get("COUNT(*)").String() != "1" {
		t.Errorf("row2 = %s", out[2])
	}
}

func TestAggregateStageWholeStream(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	cfg := aggCfg(t, "", "AVG(n)", nil, nil)
	out := collect(AggregateStage(ev, cfg, &Stats{})(context.Background(), feedRows(
		row("a", 2, value.Null(), value.Null(), time.Unix(100, 0)),
		row("a", 4, value.Null(), value.Null(), time.Unix(200, 0)),
	)))
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	if got := out[0].Get("AVG(n)").String(); got != "3" {
		t.Errorf("avg = %s", got)
	}
	if out[0].Has("window_start") {
		t.Error("whole-stream agg should not have window columns")
	}
}

func TestAggregateStageConfidenceEarly(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	cfg := aggCfg(t, "text", "AVG(n)",
		&lang.WindowSpec{Size: time.Hour, Every: time.Hour},
		&lang.ConfidenceSpec{Level: 0.95, HalfWidth: 0.5})
	base := time.Unix(0, 0).UTC()
	var rows []value.Tuple
	// Enough constant rows to clear the CLT sample floor.
	for i := 0; i < 40; i++ {
		rows = append(rows, row("dense", 5, value.Null(), value.Null(), base.Add(time.Duration(i)*time.Second)))
	}
	out := collect(AggregateStage(ev, cfg, &Stats{})(context.Background(), feedRows(rows...)))
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	early, _ := out[0].Get("early").BoolVal()
	if !early {
		t.Error("constant group should emit early")
	}
	if got := out[0].Get("AVG(n)").String(); got != "5" {
		t.Errorf("avg = %s", got)
	}
}

func TestJoinStage(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	ls := value.NewSchema(value.Field{Name: "k", Kind: value.KindInt}, value.Field{Name: "lv", Kind: value.KindString})
	rs := value.NewSchema(value.Field{Name: "k", Kind: value.KindInt}, value.Field{Name: "rv", Kind: value.KindString})
	base := time.Unix(0, 0)
	mkL := func(k int64, v string, sec int64) value.Tuple {
		return value.NewTuple(ls, []value.Value{value.Int(k), value.String(v)}, base.Add(time.Duration(sec)*time.Second))
	}
	mkR := func(k int64, v string, sec int64) value.Tuple {
		return value.NewTuple(rs, []value.Value{value.Int(k), value.String(v)}, base.Add(time.Duration(sec)*time.Second))
	}
	cfg := JoinConfig{
		LeftBinding: "a", RightBinding: "b",
		LeftKey:  &lang.Ident{Name: "k"},
		RightKey: &lang.Ident{Name: "k"},
		Window:   30 * time.Second,
	}
	left := feedRows(mkL(1, "l1", 0), mkL(2, "l2", 5), mkL(1, "l3", 100))
	right := feedRows(mkR(1, "r1", 10), mkR(3, "r3", 11), mkR(1, "r4", 200))
	out := collect(JoinStage(ev, left, right, ls, rs, cfg, &Stats{}))
	// Matches: (l1,r1) within 10s; l3 vs r1 is 90s apart (out of window);
	// r4 vs l3 is 100s apart (out). So exactly 1 row.
	if len(out) != 1 {
		t.Fatalf("join rows = %d: %v", len(out), out)
	}
	if got := out[0].Get("a.lv").String(); got != "l1" {
		t.Errorf("a.lv = %s", got)
	}
	if got := out[0].Get("b.rv").String(); got != "r1" {
		t.Errorf("b.rv = %s", got)
	}
}

func TestTerminalRowStageLimit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan value.Tuple)
	go func() {
		defer close(in)
		for i := int64(0); i < 1000; i++ {
			select {
			case in <- row("x", i, value.Null(), value.Null(), time.Unix(i, 0)):
			case <-ctx.Done():
				return
			}
		}
	}()
	stats := &Stats{Profile: obs.NewProfile("q", obs.ProfileOptions{})}
	out := collect(TerminalRowStage(3, cancel, stats)(ctx, in))
	if len(out) != 3 {
		t.Errorf("limit delivered %d", len(out))
	}
	if ctx.Err() == nil {
		t.Error("limit should cancel the query context")
	}
	if n, lag := stats.RowsOut.Load(), stats.Profile.Snapshot().Lag.Count; n != 3 || lag != 3 {
		t.Errorf("RowsOut = %d, lag rows = %d, want 3", n, lag)
	}
}

func TestChainAndCount(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	stats := &Stats{}
	stage := Chain(
		CountStage(stats),
		FilterStage(ev, []lang.Expr{whereExpr(t, "n > 1")}, testSchema(), []float64{1}, false, 1, stats),
	)
	out := collect(stage(context.Background(), feedRows(
		row("a", 1, value.Null(), value.Null(), time.Unix(0, 0)),
		row("b", 2, value.Null(), value.Null(), time.Unix(1, 0)),
	)))
	if len(out) != 1 || stats.RowsIn.Load() != 2 {
		t.Errorf("out=%d in=%d", len(out), stats.RowsIn.Load())
	}
}

func TestStatsErrors(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	stats := &Stats{}
	// Unknown function inside filter: rows drop, error recorded, stream continues.
	stage := FilterStage(ev, []lang.Expr{whereExpr(t, "nosuchfn(n) > 0")}, testSchema(), []float64{1}, false, 1, stats)
	out := collect(stage(context.Background(), feedRows(
		row("a", 1, value.Null(), value.Null(), time.Unix(0, 0)),
	)))
	if len(out) != 0 {
		t.Error("error row should drop")
	}
	if stats.EvalErrors.Load() != 1 || stats.Err() == nil {
		t.Errorf("errors = %d, err = %v", stats.EvalErrors.Load(), stats.Err())
	}
}

func TestHighLatencyDetection(t *testing.T) {
	cat := catalog.New()
	_ = cat.RegisterScalar(&catalog.ScalarUDF{Name: "slow", Arity: 1, HighLatency: true,
		Fn: func(_ context.Context, a []value.Value) (value.Value, error) { return a[0], nil }})
	_ = cat.RegisterScalar(&catalog.ScalarUDF{Name: "fast", Arity: 1,
		Fn: func(_ context.Context, a []value.Value) (value.Value, error) { return a[0], nil }})
	if !HasHighLatency(cat, expr(t, "floor(slow(n))")) {
		t.Error("nested slow call not detected")
	}
	if HasHighLatency(cat, expr(t, "fast(n) + 1")) {
		t.Error("fast call misdetected")
	}
	if c := CostOf(cat, expr(t, "slow(n)")); c < 100 {
		t.Errorf("slow cost = %v", c)
	}
	if c := CostOf(cat, expr(t, "n > 1")); c != 1 {
		t.Errorf("plain cost = %v", c)
	}
}
