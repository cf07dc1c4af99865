package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/value"
)

// registerRunningN registers running_n, a stateful UDF returning how
// many times the query has called it.
func registerRunningN(t *testing.T, eng *Engine) {
	t.Helper()
	if err := eng.cat.RegisterStateful("running_n", func() catalog.ScalarFn {
		n := int64(0)
		return func(context.Context, []value.Value) (value.Value, error) {
			n++
			return value.Int(n), nil
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStatefulPlansAreDeterministic: a stateful UDF sees the rows in
// stream order, each row's WHERE calls (in conjunct order) before its
// SELECT calls, so a plan calling one returns the same rows at every
// batch size and seed, run after run. The first two shapes return the
// rows (joined by newlines, sha256) the row-at-a-time pipeline returned
// with its conjuncts in query order.
func TestStatefulPlansAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		sql  string
		want string // sha256 of the rows; "" = only self-consistent
	}{
		{"filter_then_stateful", `SELECT text FROM twitter WHERE followers > 500 AND running_n(text) % 2 = 0`,
			"ba978eef3ceb0cf790cd5be75fb0fa4e0da56da4c3eca2109f5b6f5ccb781fc1"},
		{"two_stateful_conjuncts", `SELECT text FROM twitter WHERE running_n(text) % 2 = 0 AND running_n(text) % 3 = 0`,
			"12ecbb5f0b321a1bbc98f8114e4e675a8fc2c85ec337d9712dcb879616cdc1de"},
		{"where_and_select", `SELECT running_n(text) AS n, text FROM twitter WHERE running_n(text) % 2 = 0`, ""},
		{"where_under_group_by_window", `SELECT COUNT(*) AS n FROM twitter WHERE running_n(text) % 2 = 0 GROUP BY has_geo WINDOW 1 MINUTE`, ""},
		// A high-latency UDF beside the stateful one: the select list
		// stays off the async pool, whose overlapping calls would hand
		// running_n the rows out of order.
		{"async_and_stateful_select", `SELECT latitude(loc) AS lat, running_n(text) AS n, text FROM twitter`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := tc.want
			for _, size := range []int{1, 7, 256} {
				for _, seed := range []int64{1, 2} {
					for run := 0; run < 2; run++ {
						eng, replay := persistEngine(t, firehose.Config{Seed: 11, Duration: 5 * time.Minute, BaseRate: 20}, func(o *Options) {
							o.BatchSize = size
							o.Seed = seed
						})
						registerRunningN(t, eng)
						cur, err := eng.Query(context.Background(), tc.sql)
						if err != nil {
							t.Fatal(err)
						}
						replay()
						var rows []string
						for r := range cur.Rows() {
							// Only the first row's WHERE call is odd; every
							// later row passes with an even call, and its
							// SELECT call takes the next count.
							if n, _ := r.Get("n").IntVal(); tc.name == "where_and_select" && n != int64(2*len(rows)+3) {
								t.Fatalf("row %d: n = %d, want %d", len(rows), n, 2*len(rows)+3)
							}
							// With no WHERE, row k is the k-th call.
							if n, _ := r.Get("n").IntVal(); tc.name == "async_and_stateful_select" && n != int64(len(rows)+1) {
								t.Fatalf("row %d: n = %d, want %d", len(rows), n, len(rows)+1)
							}
							rows = append(rows, r.String())
						}
						if len(rows) == 0 {
							t.Fatal("no rows; test is vacuous")
						}
						sum := sha256.Sum256([]byte(strings.Join(rows, "\n")))
						got := hex.EncodeToString(sum[:])
						if first == "" {
							first = got
						} else if got != first {
							t.Fatalf("batch %d, seed %d, run %d: %d rows hash to %s, want %s", size, seed, run, len(rows), got, first)
						}
					}
				}
			}
		})
	}
}
