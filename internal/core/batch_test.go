package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// batchTestEngine is testEngine with explicit batch options.
func batchTestEngine(t *testing.T, cfg firehose.Config, batchSize, workers int) (*Engine, func()) {
	t.Helper()
	tweets := firehose.Tweets(firehose.New(cfg).Generate())
	hub := twitterapi.NewHub()
	cat := catalog.New()
	sampleN := min(len(tweets)/10, 2000)
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, tweets[:sampleN]))
	svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(time.Duration) {}})
	if err := RegisterStandardUDFs(cat, Deps{Geocoder: geocode.NewCachedClient(svc, 10000, 0)}); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SourceBuffer = len(tweets) + 16
	opts.BatchSize = batchSize
	opts.BatchWorkers = workers
	eng := NewEngine(cat, opts)
	t.Cleanup(func() { hub.Close() })
	return eng, func() { twitterapi.Replay(hub, tweets) }
}

func runShape(t *testing.T, sql string, batchSize, workers int) []string {
	t.Helper()
	eng, replay := batchTestEngine(t, firehose.Config{Seed: 11, Duration: 5 * time.Minute, BaseRate: 20}, batchSize, workers)
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	var out []string
	for row := range cur.Rows() {
		out = append(out, row.String())
	}
	return out
}

// TestBatchedPipelineEquivalence is the acceptance gate for batching:
// for every representative query shape, the pipeline at 64-row batches
// (with and without the parallel worker pool) must produce exactly the
// rows, in exactly the order, it produces at one-row batches.
func TestBatchedPipelineEquivalence(t *testing.T) {
	shapes := []string{
		`SELECT text, username FROM twitter`,
		`SELECT text FROM twitter WHERE text CONTAINS 'coffee'`,
		`SELECT upper(text) AS u, followers * 2 AS d FROM twitter`,
		`SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE`,
		`SELECT COUNT(*) AS n FROM twitter GROUP BY has_geo WINDOW 2 MINUTES`,
		`SELECT text FROM twitter WHERE text CONTAINS 'coffee' AND followers > 100`,
		`SELECT text FROM twitter LIMIT 7`,
		`SELECT COUNT(*) AS n FROM twitter WINDOW 100 TWEETS`,
	}
	for i, sql := range shapes {
		t.Run(fmt.Sprintf("shape%d", i), func(t *testing.T) {
			want := runShape(t, sql, 1, 1)
			for _, tc := range []struct {
				name               string
				batchSize, workers int
			}{
				{"batched", 64, 1},
				{"batched_parallel", 64, 4},
			} {
				got := runShape(t, sql, tc.batchSize, tc.workers)
				if len(got) != len(want) {
					t.Fatalf("%s %q: rows %d != %d", tc.name, sql, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s %q row %d:\n  batched: %s\n  one-row: %s", tc.name, sql, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestBatchedLimitMidBatch pins the LIMIT cutoff falling inside a
// batch: with BatchSize larger than the limit the terminal stage must trim
// mid-batch and still deliver exactly the limit.
func TestBatchedLimitMidBatch(t *testing.T) {
	got := runShape(t, `SELECT text FROM twitter LIMIT 5`, 256, 1)
	if len(got) != 5 {
		t.Fatalf("limit rows = %d", len(got))
	}
}

// TestBatchedIntoTable checks INTO routing still receives every row
// through the batched pipeline.
func TestBatchedIntoTable(t *testing.T) {
	eng, replay := batchTestEngine(t, firehose.Config{Seed: 3, Duration: time.Minute, BaseRate: 10}, 64, 1)
	cur, err := eng.Query(context.Background(), "SELECT text FROM twitter LIMIT 10 INTO TABLE r")
	if err != nil {
		t.Fatal(err)
	}
	replay()
	// The Drained sync hook replaces the old polling loop: when it
	// closes, the routing goroutine has appended and flushed every row.
	select {
	case <-cur.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("Drained did not close")
	}
	if n := eng.Catalog().Table("r").Len(); n != 10 {
		t.Fatalf("table rows = %d after drain", n)
	}
}

// TestBatchedSliceSource runs a filter end to end over a SliceSource,
// which hands the engine its rows in pre-cut batches.
func TestBatchedSliceSource(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	var rows []value.Tuple
	for i := 0; i < 100; i++ {
		rows = append(rows, value.NewTuple(schema, []value.Value{value.Int(int64(i))}, time.Unix(int64(i), 0)))
	}
	cat := catalog.New()
	cat.RegisterSource("s", catalog.NewSliceSource(schema, rows))
	opts := DefaultOptions()
	opts.BatchSize = 16
	eng := NewEngine(cat, opts)
	cur, err := eng.Query(context.Background(), "SELECT x FROM s WHERE x % 2 = 0")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for row := range cur.Rows() {
		if v, _ := row.Get("x").IntVal(); v%2 != 0 {
			t.Fatalf("odd row leaked: %s", row)
		}
		n++
	}
	if n != 50 {
		t.Fatalf("rows = %d", n)
	}
	if cur.Stats().RowsIn.Load() != 100 || cur.Stats().RowsOut.Load() != 50 {
		t.Errorf("stats in=%d out=%d", cur.Stats().RowsIn.Load(), cur.Stats().RowsOut.Load())
	}

	// Regression: the filter stage compacts batches in place, so the
	// source must hand out copies — a second identical query has to see
	// the source's rows intact, not the first run's survivors.
	cur2, err := eng.Query(context.Background(), "SELECT x FROM s WHERE x % 2 = 0")
	if err != nil {
		t.Fatal(err)
	}
	var again []int64
	for row := range cur2.Rows() {
		v, _ := row.Get("x").IntVal()
		again = append(again, v)
	}
	if len(again) != 50 {
		t.Fatalf("second run rows = %d (source rows corrupted by first run?)", len(again))
	}
	for i, v := range again {
		if v != int64(2*i) {
			t.Fatalf("second run row %d = %d, want %d", i, v, 2*i)
		}
	}
}

// TestGroupsWithSeparatorStayApart: two groups whose cells render to the
// same "\x1f"-joined string — ("x\x1fstring:y", "z") and ("x",
// "y\x1fstring:z") — are two groups in a windowed GROUP BY and in a
// count window, emitted in arrival order.
func TestGroupsWithSeparatorStayApart(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "a", Kind: value.KindString}, value.Field{Name: "b", Kind: value.KindString})
	base := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	rows := []value.Tuple{
		value.NewTuple(schema, []value.Value{value.String("x\x1fstring:y"), value.String("z")}, base),
		value.NewTuple(schema, []value.Value{value.String("x"), value.String("y\x1fstring:z")}, base.Add(time.Second)),
		value.NewTuple(schema, []value.Value{value.String("x\x1fstring:y"), value.String("z")}, base.Add(2*time.Second)),
	}
	cat := catalog.New()
	cat.RegisterSource("s", catalog.NewSliceSource(schema, rows))
	eng := NewEngine(cat, DefaultOptions())
	for _, sql := range []string{
		"SELECT a, b, COUNT(*) AS n FROM s GROUP BY a, b WINDOW 1 HOUR",
		"SELECT a, b, COUNT(*) AS n FROM s GROUP BY a, b WINDOW 10 TWEETS",
	} {
		cur, err := eng.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for row := range cur.Rows() {
			got = append(got, fmt.Sprintf("%q %q %s", row.Get("a").String(), row.Get("b").String(), row.Get("n")))
		}
		want := []string{`"x\x1fstring:y" "z" 2`, `"x" "y\x1fstring:z" 1`}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\n got %q\nwant %q", sql, got, want)
		}
	}
}
