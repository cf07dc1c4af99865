package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/value"
)

// terminalShape is one pipeline shape the terminal-stage tests cover:
// the SELECT (without LIMIT or INTO), the batch size that selects the
// shape, and the pipeline EXPLAIN must name for it.
type terminalShape struct {
	name      string
	sql       string
	batchSize int
	pipeline  string
}

var terminalShapes = []terminalShape{
	{"columnar", `SELECT * FROM twitter WHERE followers > 10`, 64, "columnar"},
	{"row_batch", `SELECT running_n(text) AS n, text FROM twitter`, 64, "row-batch (stateful UDF)"},
	{"tuple", `SELECT text, followers FROM twitter WHERE followers > 10`, 1, "tuple"},
	{"aggregate", `SELECT COUNT(*) AS n FROM twitter GROUP BY has_geo WINDOW 1 MINUTE`, 64, "columnar"},
	{"count_window", `SELECT COUNT(*) AS n FROM twitter WINDOW 50 TWEETS`, 64, "columnar"},
	{"async", `SELECT latitude(loc) AS lat, text FROM twitter`, 64, "async"},
	{"join", `SELECT a.text FROM twitter AS a JOIN twitter AS b ON a.id = b.id WINDOW 1 MINUTE`, 64, "join"},
}

// terminalConsumers name the ways a result leaves the engine: the
// cursor's two views, INTO TABLE on the persistent store (the backend
// projection shares cells with) and on the in-memory ring, and INTO
// STREAM. The server's NDJSON stream is covered in internal/server.
var terminalConsumers = []string{"rows", "batches", "into_store", "into_mem", "into_stream"}

// terminalEngine is a full engine over a seeded stream with the
// stateful running_n UDF, persistent tables when persistent is set.
func terminalEngine(t *testing.T, batchSize int, persistent bool) (*Engine, func()) {
	t.Helper()
	eng, replay := persistEngine(t, firehose.Config{Seed: 11, Duration: 5 * time.Minute, BaseRate: 20}, func(o *Options) {
		o.BatchSize = batchSize
		if persistent {
			o.DataDir = t.TempDir()
			o.SegmentMaxBytes = 64 << 10
		}
	})
	if err := eng.cat.RegisterStateful("running_n", func() catalog.ScalarFn {
		n := int64(0)
		return func(context.Context, []value.Value) (value.Value, error) {
			n++
			return value.Int(n), nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	return eng, replay
}

// runConsumer runs sql (which must not carry INTO) through the named
// consumer and returns the cursor and the number of rows the consumer
// received.
func runConsumer(t *testing.T, shape terminalShape, consumer, suffix string) (*Cursor, int) {
	t.Helper()
	eng, replay := terminalEngine(t, shape.batchSize, consumer == "into_store")
	sql := shape.sql + suffix
	if explain, err := eng.Explain(sql); err != nil || !strings.Contains(explain, "pipeline="+shape.pipeline+"\n") {
		t.Fatalf("%s: want pipeline=%s, got %v\n%s", sql, shape.pipeline, err, explain)
	}
	switch consumer {
	case "into_store", "into_mem":
		sql += " INTO TABLE sink"
	case "into_stream":
		sql += " INTO STREAM sink"
	}
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	var sub *catalog.Subscription
	if consumer == "into_stream" {
		src, err := eng.Catalog().Source("sink")
		if err != nil {
			t.Fatal(err)
		}
		sub = src.(*catalog.DerivedStream).Subscribe(catalog.SubOptions{Buffer: 1 << 16, Policy: catalog.Block})
	}
	go replay()

	got := 0
	timeout := time.After(30 * time.Second)
	switch consumer {
	case "rows":
		for range cur.Rows() {
			got++
		}
	case "batches":
		for b := range cur.Batches() {
			if len(b) == 0 {
				t.Error("empty batch delivered")
			}
			got += len(b)
		}
	case "into_stream":
		for {
			rows, err := sub.Recv(context.Background())
			if err != nil {
				break
			}
			got += len(rows)
		}
	default:
		select {
		case <-cur.Drained():
		case <-timeout:
			t.Fatal("INTO TABLE did not drain")
		}
		got = eng.Catalog().Table("sink").Len()
	}
	<-cur.Drained()
	if err := cur.Stats().Err(); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return cur, got
}

// TestLimitEveryConsumer: LIMIT n delivers exactly n rows through every
// consumer on every pipeline shape. The cut cancels the pipeline's
// context while the trimmed batch is still in flight; none of its rows
// may be lost on the way to the consumer.
func TestLimitEveryConsumer(t *testing.T) {
	for _, shape := range terminalShapes {
		// 150 falls inside the third 64-row batch; the aggregates emit
		// only a few dozen rows in all.
		n := 150
		if shape.name == "aggregate" || shape.name == "count_window" {
			n = 3
		}
		for _, consumer := range terminalConsumers {
			t.Run(shape.name+"/"+consumer, func(t *testing.T) {
				cur, got := runConsumer(t, shape, consumer, fmt.Sprintf(" LIMIT %d", n))
				if got != n {
					t.Errorf("LIMIT %d delivered %d rows", n, got)
				}
				if out := cur.Stats().RowsOut.Load(); out != int64(n) {
					t.Errorf("RowsOut = %d, want %d", out, n)
				}
			})
		}
	}
}

// TestOneLagObservationPerRow pins the terminal stage's invariant: every
// delivered row is counted in RowsOut and lag-observed exactly once,
// whatever the pipeline shape and whoever consumes it.
func TestOneLagObservationPerRow(t *testing.T) {
	for _, shape := range terminalShapes {
		for _, consumer := range terminalConsumers {
			t.Run(shape.name+"/"+consumer, func(t *testing.T) {
				cur, got := runConsumer(t, shape, consumer, "")
				out := cur.Stats().RowsOut.Load()
				lag := cur.Profile().Snapshot().Lag.Count
				if got == 0 || out != int64(got) || lag != int64(got) {
					t.Errorf("received %d rows, RowsOut = %d, lag observed for %d rows", got, out, lag)
				}
			})
		}
	}
}

// TestRowsStopEndsReader: Stop still ends a reader of a batch-shaped
// pipeline's flattened rows; only a LIMIT cut is kept from cutting the
// reader short.
func TestRowsStopEndsReader(t *testing.T) {
	eng, _ := terminalEngine(t, 64, false)
	cur, err := eng.Query(context.Background(), `SELECT text FROM twitter`)
	if err != nil {
		t.Fatal(err)
	}
	rows := cur.Rows()
	cur.Stop()
	select {
	case <-drainDone(rows):
	case <-time.After(10 * time.Second):
		t.Fatal("Rows did not close after Stop")
	}
}

func drainDone(rows <-chan value.Tuple) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range rows {
		}
	}()
	return done
}
