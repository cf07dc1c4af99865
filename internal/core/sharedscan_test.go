// Differential and benchmark coverage for shared-scan execution: N
// concurrent queries over one engine must produce byte-identical
// results whether each opens a private source scan or they coalesce
// onto ref-counted shared scans, and ingest cost must stay ~O(1) in
// the number of registered queries when sharing is on.
package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/firehose"
	"tweeql/internal/twitterapi"
)

// runAllForDiff starts every diffQueries statement concurrently on ONE
// engine, replays the soccer prefix once, and returns each query's
// rendered rows. All cursors are created before the replay begins, so
// the attach-time semantics of live streams deliver the same rows to
// both execution modes.
func runAllForDiff(t *testing.T, shared bool) map[string][]string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 42
	eng, replay := diffEngine(t, opts, core.Ablation{PrivateScans: !shared})

	results := make(map[string][]string, len(diffQueries))
	var mu sync.Mutex
	var wg sync.WaitGroup
	attached := 0
	for _, q := range diffQueries {
		attached++ // a self-join too: it reads its one scan once
		cur, err := eng.Query(context.Background(), q.sql)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string, cur *core.Cursor) {
			defer wg.Done()
			var rows []string
			for r := range cur.Rows() {
				rows = append(rows, r.String())
			}
			mu.Lock()
			results[name] = rows
			mu.Unlock()
		}(q.name, cur)
	}

	if shared {
		// The whole point: the engine must be running FEWER physical
		// scans than registered queries, with every query attached.
		scans := eng.Scans()
		total := 0
		for _, sc := range scans {
			total += sc.Queries
		}
		if total != attached {
			t.Fatalf("scans carry %d queries, want %d", total, attached)
		}
		if len(scans) >= len(diffQueries) {
			t.Fatalf("%d scans for %d queries: nothing coalesced", len(scans), len(diffQueries))
		}
	}

	replay()
	wg.Wait()
	return results
}

// TestSharedScanMatchesPrivate is the acceptance differential: the
// examples/ query set (plus the representative engine shapes), run
// concurrently over one engine, pins shared-scan results byte-identical
// to private-scan results.
func TestSharedScanMatchesPrivate(t *testing.T) {
	private := runAllForDiff(t, false)
	sharedRows := runAllForDiff(t, true)

	for _, q := range diffQueries {
		want, got := private[q.name], sharedRows[q.name]
		if len(want) != len(got) {
			t.Errorf("%s: private=%d rows, shared=%d rows", q.name, len(want), len(got))
			continue
		}
		if len(want) == 0 {
			t.Errorf("%s: produced no rows; differential is vacuous", q.name)
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s row %d:\n private %s\n shared  %s", q.name, i, want[i], got[i])
				break
			}
		}
	}
}

// BenchmarkSharedScan is the scoreboard for the shared-scan refactor:
// 1/8/64 registered queries over one firehose source, shared vs
// private scans. With sharing the stream is ingested and converted
// once regardless of query count (~O(1) ingest); private mode pays one
// API connection and one conversion pipeline per query (O(N)).
func BenchmarkSharedScan(b *testing.B) {
	all := firehose.Tweets(soccerStream()[:2000])
	for _, nq := range []int{1, 8, 64} {
		for _, mode := range []struct {
			name   string
			shared bool
		}{{"shared", true}, {"private", false}} {
			b.Run(fmt.Sprintf("queries%d/%s", nq, mode.name), func(b *testing.B) {
				var ingested int64
				for i := 0; i < b.N; i++ {
					hub := twitterapi.NewHub()
					cat := catalog.New()
					cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
					opts := core.DefaultOptions()
					opts.SourceBuffer = len(all) + 16
					eng := core.NewAblatedEngine(cat, opts, core.Ablation{PrivateScans: !mode.shared})
					var wg sync.WaitGroup
					for q := 0; q < nq; q++ {
						cur, err := eng.Query(context.Background(),
							`SELECT text FROM twitter WHERE followers > 1000000`)
						if err != nil {
							b.Fatal(err)
						}
						wg.Add(1)
						go func() {
							defer wg.Done()
							for range cur.Rows() {
							}
						}()
					}
					if mode.shared {
						if scans := eng.Scans(); len(scans) != 1 || scans[0].Queries != nq {
							b.Fatalf("scans = %+v, want 1 scan x %d queries", scans, nq)
						}
					}
					twitterapi.Replay(hub, all)
					wg.Wait()
					ingested += hub.Delivered()
				}
				// ingestrows/op is the total ingest work — rows the endpoint
				// delivered into conversion pipelines per replay. Shared
				// scans hold it at one stream regardless of query count;
				// private scans pay it once per query (the acceptance bar:
				// >= 5x less at 64 queries). tweets/sec is wall-clock stream
				// throughput.
				b.ReportMetric(float64(ingested)/float64(b.N), "ingestrows/op")
				b.ReportMetric(float64(len(all))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
			})
		}
	}
}

// TestStalledJoinDoesNotParkHub: a self-join nobody reads runs beside a
// query that is read, over one hub. The join reads the shared scan's
// drop-oldest subscription, so the stalled join parks neither the scan
// nor the hub's publisher: the replay finishes and the read query gets
// every row.
func TestStalledJoinDoesNotParkHub(t *testing.T) {
	all := firehose.Tweets(soccerStream()[:2000])
	hub := twitterapi.NewHub()
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
	opts := core.DefaultOptions()
	opts.BatchSize = 16
	opts.SourceBuffer = len(all) + 16
	eng := core.NewEngine(cat, opts)

	join, err := eng.Query(context.Background(),
		`SELECT a.text FROM twitter AS a JOIN twitter AS b ON a.id = b.id WINDOW 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	defer join.Stop()
	read, err := eng.Query(context.Background(), `SELECT id FROM twitter`)
	if err != nil {
		t.Fatal(err)
	}
	n := make(chan int, 1)
	go func() {
		rows := 0
		for range read.Rows() {
			rows++
		}
		n <- rows
	}()

	replayed := make(chan struct{})
	go func() {
		defer close(replayed)
		twitterapi.Replay(hub, all)
	}()
	select {
	case <-replayed:
	case <-time.After(10 * time.Second):
		join.Stop() // unpark the hub so the replay goroutine ends
		<-replayed
		t.Fatal("replay parked behind the unread join")
	}
	if got := <-n; got != len(all) {
		t.Fatalf("read query got %d rows, want %d", got, len(all))
	}
}

// TestSelfJoinReadsSidesEvenly: a self-join reads its one shared scan
// and joins each batch to both sides, so neither side runs ahead of the
// other: at one-row batches a LIMIT on the join's output is reached
// after about as many rows as it returns, not after one side has read
// the stream while the other waits.
func TestSelfJoinReadsSidesEvenly(t *testing.T) {
	all := firehose.Tweets(soccerStream()[:20000])
	hub := twitterapi.NewHub()
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
	opts := core.DefaultOptions()
	opts.BatchSize = 1
	opts.SourceBuffer = len(all) + 16
	eng := core.NewEngine(cat, opts)
	const limit = 300
	cur, err := eng.Query(context.Background(),
		fmt.Sprintf(`SELECT a.id FROM twitter AS a JOIN twitter AS b ON a.id = b.id WINDOW 1 MINUTE LIMIT %d`, limit))
	if err != nil {
		t.Fatal(err)
	}
	go twitterapi.Replay(hub, all)
	n := 0
	for range cur.Rows() {
		n++
	}
	if n != limit {
		t.Fatalf("join returned %d rows, want %d", n, limit)
	}
	if in := cur.Stats().RowsIn.Load(); in > 5*limit {
		t.Fatalf("join read %d rows for %d matches: one side ran ahead", in, limit)
	}
}
