// Differential testing for the engine's production mechanisms: every
// examples/ query and the representative engine shapes run end-to-end
// at 256-row and one-row batches, and must produce the rows the deleted
// row-batch pipeline returned, in its order — including NULL
// propagation and per-row error drops — which
// testdata/diff_rows_seed42.sha256 keeps as one hash per query. The
// expression-level oracle, the test-only tree-walking interpreter, is
// checked against the compiled closures in internal/exec.
package core_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// soccerStream memoizes the Figure 1 soccer-match workload the
// differentials replay a prefix of.
var soccerStream = sync.OnceValue(func() []*firehose.LabeledTweet {
	return firehose.New(firehose.SoccerMatch(42)).Generate()
})

// diffQueries pairs a name with the SQL it replays. The examples/
// programs' queries (quickstart, obama volume, obama cells) appear
// with their keyword adapted to the replayed soccer scenario so every
// predicate actually selects rows; the rest are the E10 shapes,
// expression-heavy coverage, and a residual conjunct ahead of a join,
// of an async select list, and of nothing but a stateful UDF.
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
	{"join_residual", `SELECT a.text, b.followers FROM twitter AS a JOIN twitter AS b ON a.id = b.id WHERE a.followers > 100 WINDOW 1 MINUTE`},
	{"async_residual", `SELECT latitude(loc) AS lat, text FROM twitter WHERE followers > 100 AND text CONTAINS 'goal'`},
	{"stateful_conjunct", `SELECT text, followers FROM twitter WHERE running_n(text) % 3 = 0`},
}

// diffEngine builds an engine over a hub-fed twitter source with the
// standard UDFs and running_n, a stateful UDF counting its calls, for
// replaying the soccer prefix all through diffQueries.
func diffEngine(t *testing.T, opts core.Options, abl core.Ablation) (*core.Engine, func()) {
	t.Helper()
	all := firehose.Tweets(soccerStream()[:4000])
	hub := twitterapi.NewHub()
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, all[:1000]))
	svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(d time.Duration) {}})
	if err := core.RegisterStandardUDFs(cat, core.Deps{Geocoder: geocode.NewCachedClient(svc, 10_000, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterStateful("running_n", func() catalog.ScalarFn {
		n := int64(0)
		return func(context.Context, []value.Value) (value.Value, error) {
			n++
			return value.Int(n), nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	opts.SourceBuffer = len(all) + 16
	return core.NewAblatedEngine(cat, opts, abl), func() { twitterapi.Replay(hub, all) }
}

// runForDiff replays the soccer prefix through one query under opts
// and returns the rendered result rows in emission order.
func runForDiff(t *testing.T, sql string, opts core.Options) []string {
	t.Helper()
	eng, replay := diffEngine(t, opts, core.Ablation{})
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	var rows []string
	for r := range cur.Rows() {
		rows = append(rows, r.String())
	}
	return rows
}

// diffManifest reads testdata/diff_rows_seed42.sha256: per diffQueries
// entry, the sha256 of its rows (each rendered with String, joined by
// newlines) as the row-batch pipeline returned them at Seed 42 and
// 256-row batches, recorded before that pipeline was deleted.
func diffManifest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/diff_rows_seed42.sha256")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("bad manifest line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(diffQueries) {
		t.Fatalf("manifest has %d entries for %d queries", len(want), len(diffQueries))
	}
	return want
}

// TestColumnarMatchesRow: production (compiled, columnar) returns the
// row-batch pipeline's rows, byte for byte, in its order, at 256-row
// and at one-row batches.
func TestColumnarMatchesRow(t *testing.T) {
	want := diffManifest(t)
	for _, q := range diffQueries {
		t.Run(q.name, func(t *testing.T) {
			for _, size := range []int{256, 1} {
				t.Run(fmt.Sprintf("batch_%d", size), func(t *testing.T) {
					opts := core.DefaultOptions()
					opts.BatchSize = size
					opts.Seed = 42
					rows := runForDiff(t, q.sql, opts)
					if len(rows) == 0 {
						t.Fatal("differential query produced no rows; test is vacuous")
					}
					sum := sha256.Sum256([]byte(strings.Join(rows, "\n")))
					if got := hex.EncodeToString(sum[:]); got != want[q.name] {
						t.Fatalf("%d rows hash to %s, the row-batch pipeline's to %s", len(rows), got, want[q.name])
					}
				})
			}
		})
	}
}
