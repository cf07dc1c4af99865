package exec

import (
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/value"
)

func countCfg(t *testing.T, n int64) AggregateConfig {
	t.Helper()
	cfg := aggCfg(t, "text", "COUNT(*)", &lang.WindowSpec{Count: n}, nil)
	return cfg
}

func TestCountWindowBatches(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	base := time.Unix(0, 0).UTC()
	var rows []value.Tuple
	// 7 rows: groups a,a,b | a,b,b | a (partial batch flushes at end).
	texts := []string{"a", "a", "b", "a", "b", "b", "a"}
	for i, txt := range texts {
		rows = append(rows, row(txt, int64(i), value.Null(), value.Null(), base.Add(time.Duration(i)*time.Minute)))
	}
	out := collect(runOp(ColFilterAggStage(ev, nil, countCfg(t, 3), testSchema(), &Stats{}), feedRows(rows...)))
	// Batch 1 → a=2, b=1; batch 2 → a=1, b=2; batch 3 (partial) → a=1.
	if len(out) != 5 {
		t.Fatalf("rows = %d: %v", len(out), out)
	}
	type gc struct{ g, c string }
	want := []gc{{"a", "2"}, {"b", "1"}, {"a", "1"}, {"b", "2"}, {"a", "1"}}
	for i, w := range want {
		if out[i].Get("text").String() != w.g || out[i].Get("COUNT(*)").String() != w.c {
			t.Errorf("row %d = %s, want %s=%s", i, out[i], w.g, w.c)
		}
	}
	// Window bounds are the batch's first/last event times.
	ws, _ := out[0].Get("window_start").TimeVal()
	we, _ := out[0].Get("window_end").TimeVal()
	if !ws.Equal(base) || !we.Equal(base.Add(2*time.Minute)) {
		t.Errorf("batch-1 bounds %v %v", ws, we)
	}
	// Batch 3 spans only the final row.
	ws, _ = out[4].Get("window_start").TimeVal()
	we, _ = out[4].Get("window_end").TimeVal()
	if !ws.Equal(we) {
		t.Errorf("partial batch bounds %v %v", ws, we)
	}
}

func TestCountWindowStalenessShape(t *testing.T) {
	// The paper's critique in miniature: a sparse group inside a count
	// window inherits the whole batch's time span, which can be huge.
	ev := NewEvaluator(catalog.New())
	base := time.Unix(0, 0).UTC()
	var rows []value.Tuple
	// 99 dense rows in one minute, then 1 sparse row 6 hours later.
	for i := 0; i < 99; i++ {
		rows = append(rows, row("dense", 1, value.Null(), value.Null(), base.Add(time.Duration(i)*600*time.Millisecond)))
	}
	rows = append(rows, row("sparse", 1, value.Null(), value.Null(), base.Add(6*time.Hour)))
	out := collect(runOp(ColFilterAggStage(ev, nil, countCfg(t, 100), testSchema(), &Stats{}), feedRows(rows...)))
	if len(out) != 2 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, r := range out {
		ws, _ := r.Get("window_start").TimeVal()
		we, _ := r.Get("window_end").TimeVal()
		if span := we.Sub(ws); span != 6*time.Hour {
			t.Errorf("batch span = %v, want the stale 6h window", span)
		}
	}
}

func TestCountWindowAggregatesValues(t *testing.T) {
	ev := NewEvaluator(catalog.New())
	cfg := aggCfg(t, "", "AVG(n)", &lang.WindowSpec{Count: 2}, nil)
	base := time.Unix(0, 0).UTC()
	out := collect(runOp(ColFilterAggStage(ev, nil, cfg, testSchema(), &Stats{}), feedRows(
		row("x", 2, value.Null(), value.Null(), base),
		row("x", 4, value.Null(), value.Null(), base.Add(time.Second)),
		row("x", 10, value.Null(), value.Null(), base.Add(2*time.Second)),
	)))
	if len(out) != 2 {
		t.Fatalf("rows = %d", len(out))
	}
	if got := out[0].Get("AVG(n)").String(); got != "3" {
		t.Errorf("batch-1 avg = %s", got)
	}
	if got := out[1].Get("AVG(n)").String(); got != "10" {
		t.Errorf("batch-2 avg = %s", got)
	}
}
