// Differential testing for the engine's production mechanisms: every
// examples/ query and the representative engine shapes run end-to-end
// with a mechanism on (compiled expressions, columnar stages) and
// ablated back to the path it replaced (the AST interpreter, row-batch
// stages), and must produce identical rows in identical order —
// including NULL propagation, per-row error drops, and the
// eddy-adaptive filter ordering under a fixed seed.
package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/twitterapi"
)

// soccerStream memoizes the Figure 1 soccer-match workload the
// differentials replay a prefix of.
var soccerStream = sync.OnceValue(func() []*firehose.LabeledTweet {
	return firehose.New(firehose.SoccerMatch(42)).Generate()
})

// diffQueries pairs a name with the SQL it replays. The examples/
// programs' queries (quickstart, obama volume, obama cells) appear
// with their keyword adapted to the replayed soccer scenario so every
// predicate actually selects rows; the rest are the E10 shapes plus
// expression-heavy coverage.
var diffQueries = []struct {
	name string
	sql  string
}{
	{"examples_quickstart", `
		SELECT sentiment(text) AS sentiment,
		       latitude(loc)  AS lat,
		       longitude(loc) AS lon,
		       text
		FROM twitter
		WHERE text CONTAINS 'liverpool'
		LIMIT 15;`},
	{"examples_obama_volume", `
		SELECT COUNT(*) AS n, AVG(sentiment(text)) AS mood
		FROM twitter
		WHERE text CONTAINS 'liverpool'
		WINDOW 1 DAYS;`},
	{"examples_obama_cells", `
		SELECT AVG(sentiment(text)) AS avg_sent,
		       COUNT(*) AS n,
		       floor(latitude(loc)) AS lat,
		       floor(longitude(loc)) AS long
		FROM twitter
		WHERE text CONTAINS 'liverpool'
		GROUP BY lat, long
		WINDOW 3 DAYS
		WITH CONFIDENCE 0.95 WITHIN 0.08;`},
	{"project", `SELECT text, username FROM twitter`},
	{"project_star", `SELECT * FROM twitter WHERE followers > 100`},
	{"filter", `SELECT text FROM twitter WHERE text CONTAINS 'liverpool'`},
	{"eddy_3conjunct", `SELECT text FROM twitter WHERE text CONTAINS 'goal' AND followers > 10 AND NOT retweet`},
	{"matches", `SELECT username FROM twitter WHERE text MATCHES 'go+al' AND followers < 5000`},
	{"in_list_arith", `SELECT followers * 2 + 1 AS f2, upper(username) AS u FROM twitter WHERE followers IN (10, 50, 100) OR lat IS NOT NULL`},
	{"geo_box", `SELECT text FROM twitter WHERE location IN BOX(40, -75, 42, -72)`},
	{"windowed_count", `SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE`},
	{"groupby_window", `SELECT COUNT(*) AS n FROM twitter GROUP BY has_geo WINDOW 5 MINUTES`},
	{"count_window", `SELECT COUNT(*) AS n, MIN(followers) AS lo FROM twitter GROUP BY retweet WINDOW 500 TWEETS`},
	{"whole_stream_agg", `SELECT AVG(followers) AS af, STDDEV(followers) AS sf FROM twitter WHERE NOT retweet`},
}

// runForDiff replays the soccer prefix through one query under opts,
// with abl's mechanisms ablated, and returns the rendered result rows
// in emission order.
func runForDiff(t *testing.T, sql string, opts core.Options, abl core.Ablation) []string {
	t.Helper()
	all := firehose.Tweets(soccerStream()[:4000])
	hub := twitterapi.NewHub()
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, all[:1000]))
	svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(d time.Duration) {}})
	if err := core.RegisterStandardUDFs(cat, core.Deps{Geocoder: geocode.NewCachedClient(svc, 10_000, 0)}); err != nil {
		t.Fatal(err)
	}
	opts.SourceBuffer = len(all) + 16
	eng := core.NewAblatedEngine(cat, opts, abl)
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	twitterapi.Replay(hub, all)
	var rows []string
	for r := range cur.Rows() {
		rows = append(rows, r.String())
	}
	return rows
}

// TestColumnarMatchesRow is the columnar differential test: the
// vectorized fused pipeline (production) vs the row-batch pipeline
// over identical replays. Rows must be
// byte-identical in identical order — the columnar filter gathers
// surviving tuples from the original batch, so equality is by
// construction, and this test is the tripwire for that construction.
func TestColumnarMatchesRow(t *testing.T) {
	for _, q := range diffQueries {
		t.Run(q.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Seed = 42

			want := runForDiff(t, q.sql, opts, core.Ablation{RowBatches: true})
			got := runForDiff(t, q.sql, opts, core.Ablation{})

			if len(want) != len(got) {
				t.Fatalf("row count: row=%d columnar=%d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("row %d:\n row      %s\n columnar %s", i, want[i], got[i])
				}
			}
			if len(want) == 0 {
				t.Fatal("differential query produced no rows; test is vacuous")
			}
		})
	}
}

// TestColumnarInterpretedMatchesRow closes the oracle square: columnar
// with compilation off (every vector lane evaluated by the AST
// interpreter closure) against the interpreted row pipeline.
func TestColumnarInterpretedMatchesRow(t *testing.T) {
	for _, q := range diffQueries {
		t.Run(q.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Seed = 42

			want := runForDiff(t, q.sql, opts, core.Ablation{Interpret: true, RowBatches: true})
			got := runForDiff(t, q.sql, opts, core.Ablation{Interpret: true})

			if len(want) != len(got) {
				t.Fatalf("row count: row=%d columnar=%d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("row %d:\n row      %s\n columnar %s", i, want[i], got[i])
				}
			}
			if len(want) == 0 {
				t.Fatal("differential query produced no rows; test is vacuous")
			}
		})
	}
}

// TestCompiledEngineMatchesInterpreted is the engine-level differential
// test: compiled vs interpreted execution over identical replays, at
// 256-row and at one-row batches.
func TestCompiledEngineMatchesInterpreted(t *testing.T) {
	pipelines := []struct {
		name      string
		batchSize int
	}{
		{"batched", 256},
		{"one_row_batches", 1},
	}
	for _, q := range diffQueries {
		for _, p := range pipelines {
			t.Run(q.name+"/"+p.name, func(t *testing.T) {
				opts := core.DefaultOptions()
				opts.BatchSize = p.batchSize
				opts.Seed = 42

				want := runForDiff(t, q.sql, opts, core.Ablation{Interpret: true})
				got := runForDiff(t, q.sql, opts, core.Ablation{})

				if len(want) != len(got) {
					t.Fatalf("row count: interpreted=%d compiled=%d", len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("row %d:\n interpreted %s\n compiled    %s", i, want[i], got[i])
					}
				}
				if len(want) == 0 {
					t.Fatal("differential query produced no rows; test is vacuous")
				}
			})
		}
	}
}
