// Command tweeql is the demo REPL of §4: "a command line query
// interface that is familiar to most database users. We will offer the
// audience a selection of pre-built queries, which they can copy and
// paste into the command line to view live streaming results."
//
// Each query runs against a fresh, deterministic replay of the chosen
// scenario, so results are reproducible:
//
//	tweeql -scenario soccer -q "SELECT text FROM twitter WHERE text CONTAINS 'goal' LIMIT 5"
//	tweeql -scenario obama            # interactive REPL
//	tweeql -scenario soccer -explain -q "SELECT ..."
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tweeql"
)

var prebuilt = []string{
	`SELECT sentiment(text), latitude(loc), longitude(loc) FROM twitter WHERE text CONTAINS 'obama' LIMIT 10;`,
	`SELECT text FROM twitter WHERE text CONTAINS 'goal' LIMIT 5;`,
	`SELECT COUNT(*) AS n FROM twitter WINDOW 10 MINUTES;`,
	`SELECT AVG(sentiment(text)) AS s, floor(latitude(loc)) AS lat, floor(longitude(loc)) AS long FROM twitter GROUP BY lat, long WINDOW 1 HOURS LIMIT 15;`,
	`SELECT username, followers FROM twitter WHERE followers > 1000 LIMIT 10;`,
}

func main() {
	scenario := flag.String("scenario", "soccer", "canned stream: soccer, earthquakes, obama, rivalry, background")
	seed := flag.Int64("seed", 1, "generator seed")
	duration := flag.Duration("duration", 0, "override scenario duration")
	query := flag.String("q", "", "run one query and exit")
	explain := flag.Bool("explain", false, "explain instead of execute")
	maxRows := flag.Int("max-rows", 50, "stop printing after this many rows (0 = unlimited)")
	batchSize := flag.Int("batch-size", 0, "tuples per pipeline batch (0 = engine default, 1 = one-row batches, each row delivered as soon as it is out)")
	batchWorkers := flag.Int("batch-workers", 0, "worker-pool width for source conversion and projection (0 = engine default)")
	dataDir := flag.String("data-dir", "", "root directory for persistent tables; INTO TABLE targets survive restarts and are queryable in FROM (empty = in-memory)")
	segmentMaxBytes := flag.Int64("segment-max-bytes", 0, "seal a persistent table segment at this data-file size (0 = 64MiB default)")
	fsyncPolicy := flag.String("fsync", "seal", "persistent table fsync policy: none, seal, or flush")
	retainSegments := flag.Int("retain-segments", 0, "keep at most this many sealed segments per table (0 = unlimited)")
	flag.Parse()

	if *batchSize > 0 || *batchWorkers > 0 || *dataDir != "" {
		opts := tweeql.DefaultOptions()
		if *batchSize > 0 {
			opts.BatchSize = *batchSize
		}
		if *batchWorkers > 0 {
			opts.BatchWorkers = *batchWorkers
		}
		opts.DataDir = *dataDir
		opts.SegmentMaxBytes = *segmentMaxBytes
		opts.FsyncPolicy = *fsyncPolicy
		opts.TableRetainSegments = *retainSegments
		engineOpts = &opts
	}

	if *query != "" {
		if err := runOne(*scenario, *seed, *duration, *query, *explain, *maxRows); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("TweeQL — streaming SQL over tweets (scenario %q, seed %d)\n", *scenario, *seed)
	fmt.Println("Pre-built queries to paste:")
	for i, q := range prebuilt {
		fmt.Printf("  %d) %s\n", i+1, q)
	}
	fmt.Println(`End queries with ';'. Commands: \q quit, \explain <sql>, \scenario <name>.`)
	fmt.Println(`Prefix a query with EXPLAIN ANALYZE to run it briefly and see per-operator timings.`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("tweeql> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case buf.Len() == 0 && (trimmed == `\q` || trimmed == "exit" || trimmed == "quit"):
			return
		case buf.Len() == 0 && strings.HasPrefix(trimmed, `\scenario `):
			*scenario = strings.TrimSpace(strings.TrimPrefix(trimmed, `\scenario`))
			fmt.Printf("scenario set to %q\n", *scenario)
			prompt()
			continue
		case buf.Len() == 0 && strings.HasPrefix(trimmed, `\explain `):
			sql := strings.TrimPrefix(trimmed, `\explain`)
			if err := runOne(*scenario, *seed, *duration, sql, true, *maxRows); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			sql := buf.String()
			buf.Reset()
			if strings.TrimSpace(strings.Trim(sql, "; \n\t")) != "" {
				if err := runOne(*scenario, *seed, *duration, sql, *explain, *maxRows); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
			}
		}
		prompt()
	}
}

// engineOpts overrides the engine defaults when batch flags are set.
var engineOpts *tweeql.Options

// runOne executes (or explains) one query against a fresh deterministic
// replay of the scenario.
func runOne(scenario string, seed int64, duration time.Duration, sql string, explain bool, maxRows int) error {
	eng, stream, err := tweeql.NewSimulated(tweeql.SimConfig{
		Scenario: scenario, Seed: seed, Duration: duration, Options: engineOpts,
	})
	if err != nil {
		return err
	}
	defer stream.Close()
	// Persistent tables must flush on the way out; the next query (or
	// process) reopens them from the data dir.
	defer eng.Close()
	if explain {
		out, err := eng.Explain(sql)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	// EXPLAIN ANALYZE: run the statement against the replay for a
	// bounded window and print the plan annotated with measured
	// per-operator rows, selectivity, latency, and end-to-end lag.
	if _, ok := tweeql.StripExplainAnalyze(sql); ok {
		out, err := eng.ExplainAnalyze(context.Background(), sql, tweeql.AnalyzeOptions{
			MaxRows: maxRows,
			OnStart: func() { go stream.Replay() },
		})
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := eng.Query(ctx, sql)
	if err != nil {
		return err
	}
	go stream.Replay()

	start := time.Now()
	if cur.Routed() {
		// INTO STREAM / INTO TABLE: results feed the named target.
		// Drained closes when the target has received (and, for
		// persistent tables, flushed) the final row.
		<-cur.Drained()
		stats := cur.Stats()
		fmt.Printf("(%d rows routed to %s, %d tweets in, %v)\n",
			stats.RowsOut.Load(), cur.Statement().Into.Name, stats.RowsIn.Load(), time.Since(start).Round(time.Millisecond))
		if err := stats.Err(); err != nil {
			return err
		}
		return nil
	}
	cols := cur.Schema().Names()
	fmt.Println(strings.Join(cols, " | "))
	fmt.Println(strings.Repeat("-", len(strings.Join(cols, " | "))))
	n := 0
	for row := range cur.Rows() {
		parts := make([]string, len(row.Values))
		for i, v := range row.Values {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
		n++
		if maxRows > 0 && n >= maxRows {
			fmt.Printf("... stopped at -max-rows=%d\n", maxRows)
			cur.Stop()
			break
		}
	}
	stats := cur.Stats()
	fmt.Printf("(%d rows, %d tweets in, %d dropped by filters, %d eval errors, %v)\n",
		n, stats.RowsIn.Load(), stats.Dropped.Load(), stats.EvalErrors.Load(), time.Since(start).Round(time.Millisecond))
	if info := cur.Info(); info != nil && info.Pushed {
		fmt.Printf("pushdown: %s\n", info.Chosen)
		for _, e := range info.Estimates {
			fmt.Printf("  candidate %s\n", e)
		}
	}
	return nil
}
