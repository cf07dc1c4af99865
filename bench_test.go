// Benchmarks for every reproduced experiment (ids E1–E12; `go run
// ./cmd/experiments` prints their tables). Each benchmark exercises the code path
// that regenerates the corresponding artifact; `go test -bench=. -benchmem`
// reports their costs, with custom tweets/sec metrics where throughput
// is the claim.
package tweeql_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"tweeql/internal/agg"
	"tweeql/internal/asyncop"
	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/eddy"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/links"
	"tweeql/internal/peaks"
	"tweeql/internal/selectivity"
	"tweeql/internal/sentiment"
	"tweeql/internal/store"
	"tweeql/internal/terms"
	"tweeql/internal/tweet"
	"tweeql/internal/twitinfo"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
	"tweeql/internal/window"
)

// soccerStream memoizes the Figure 1 workload across benchmarks.
var soccerStream = sync.OnceValue(func() []*firehose.LabeledTweet {
	return firehose.New(firehose.SoccerMatch(42)).Generate()
})

// soccerTracker memoizes a fully ingested tracker.
var soccerTracker = sync.OnceValue(func() *twitinfo.Tracker {
	tr := twitinfo.NewTracker(twitinfo.EventConfig{Name: "soccer", Keywords: firehose.SoccerKeywords}, nil)
	for _, lt := range soccerStream() {
		tr.Ingest(lt.Tweet)
	}
	tr.Finish()
	return tr
})

// BenchmarkE1PeakDetection measures the streaming mean-deviation
// detector over the soccer match (Figure 1.2).
func BenchmarkE1PeakDetection(b *testing.B) {
	lts := soccerStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := peaks.NewDetector(peaks.Config{Bin: time.Minute})
		for _, lt := range lts {
			d.Add(lt.Tweet.CreatedAt)
		}
		d.Finish()
		if len(d.Peaks()) < 3 {
			b.Fatal("peaks lost")
		}
	}
	b.ReportMetric(float64(len(soccerStream()))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkE2FilterChoice measures sampling both candidate filters and
// choosing the lowest-selectivity pushdown (§2 uncertain selectivities).
func BenchmarkE2FilterChoice(b *testing.B) {
	sample := firehose.Tweets(soccerStream()[:2000])
	candidates := []twitterapi.Filter{
		{Track: []string{"soccer", "manchester", "liverpool"}},
		{Locations: []twitterapi.Box{twitterapi.NYCBox}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _ := selectivity.Choose(sample, candidates)
		_ = best
	}
}

// BenchmarkE3ConfidenceWindow measures confidence-triggered windowed
// grouping (§2 uneven aggregate groups): one AVG bucket per profile
// location over the soccer stream.
func BenchmarkE3ConfidenceWindow(b *testing.B) {
	lts := soccerStream()
	analyzer := sentiment.Default()
	type obs struct {
		ts    time.Time
		key   []value.Value
		score float64
	}
	pre := make([]obs, len(lts))
	for i, lt := range lts {
		pre[i] = obs{ts: lt.Tweet.CreatedAt, key: []value.Value{value.String(lt.Tweet.Location)}, score: analyzer.Score(lt.Tweet.Text)}
	}
	mkAggs := func() []agg.Func {
		a, _ := agg.New("AVG", false)
		return []agg.Func{a}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := window.NewManager(time.Hour, 0)
		m.EnableConfidence(0.95, 0.08)
		for _, o := range pre {
			m.Observe(o.ts, o.key, mkAggs, func(bk *window.Bucket) {
				bk.Aggs[0].Add(value.Float(o.score))
			})
		}
		m.Flush()
	}
	b.ReportMetric(float64(len(pre))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkE4GeocodeAblation measures the high-latency mitigations of
// §2 (cache / batch / async) over a skewed location workload with a
// 200µs-latency simulated service (stands in for the paper's ~200ms).
func BenchmarkE4GeocodeAblation(b *testing.B) {
	var locs []string
	for _, lt := range soccerStream()[:2000] {
		locs = append(locs, lt.Tweet.Location)
	}
	const latency = 200 * time.Microsecond
	newSvc := func() *geocode.Service {
		return geocode.NewService(geocode.ServiceConfig{BaseLatency: latency, PerItem: 10 * time.Microsecond})
	}
	ctx := context.Background()

	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := newSvc()
			for _, loc := range locs[:200] {
				_, _ = svc.Geocode(ctx, loc)
			}
		}
	})
	b.Run("cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := geocode.NewCachedClient(newSvc(), 10_000, 0)
			for _, loc := range locs {
				_, _ = c.Geocode(ctx, loc)
			}
		}
	})
	b.Run("cache_batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := geocode.NewCachedClient(newSvc(), 10_000, 0)
			for j := 0; j < len(locs); j += geocode.MaxBatch {
				end := j + geocode.MaxBatch
				if end > len(locs) {
					end = len(locs)
				}
				_, _ = c.GeocodeBatch(ctx, locs[j:end])
			}
		}
	})
	b.Run("cache_async", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := geocode.NewCachedClient(newSvc(), 10_000, 0)
			_, _ = asyncop.Map(ctx, locs, 16, func(ctx context.Context, loc string) (geocode.Result, error) {
				return c.Geocode(ctx, loc)
			})
		}
	})
}

// BenchmarkE5Sentiment measures the classification framework (Figure
// 1.6's input) on real generated tweet text.
func BenchmarkE5Sentiment(b *testing.B) {
	texts := make([]string, 0, 10_000)
	for _, lt := range soccerStream()[:10_000] {
		texts = append(texts, lt.Tweet.Text)
	}
	analyzer := sentiment.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = analyzer.Classify(texts[i%len(texts)])
	}
}

// BenchmarkE6PopularLinks measures URL aggregation and top-3 extraction
// (Figure 1.5).
func BenchmarkE6PopularLinks(b *testing.B) {
	texts := make([]string, 0, 20_000)
	for _, lt := range soccerStream()[:20_000] {
		texts = append(texts, lt.Tweet.Text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := links.NewCounter()
		for _, t := range texts {
			c.AddTweet(t)
		}
		_ = c.Top(3)
	}
	b.ReportMetric(float64(len(texts))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkE7MapRegions measures regional sentiment aggregation over
// the rivalry scenario's map pins (Figure 1.3).
func BenchmarkE7MapRegions(b *testing.B) {
	tr := twitinfo.NewTracker(twitinfo.EventConfig{Name: "rivalry", Keywords: firehose.RivalryKeywords}, nil)
	for _, lt := range firehose.New(firehose.BaseballRivalry(42)).Generate() {
		tr.Ingest(lt.Tweet)
	}
	tr.Finish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regions := tr.RegionSentiment(time.Time{}, time.Time{})
		if len(regions) == 0 {
			b.Fatal("no regions")
		}
	}
}

// BenchmarkE8RelevantTweets measures similarity ranking of the Relevant
// Tweets panel (Figure 1.4).
func BenchmarkE8RelevantTweets(b *testing.B) {
	tr := soccerTracker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked := tr.RelevantTweets(time.Time{}, time.Time{}, firehose.SoccerKeywords, 10)
		if len(ranked) != 10 {
			b.Fatal("ranking lost rows")
		}
	}
}

// BenchmarkE9EddyAdaptation measures the eddy's per-tuple routing cost
// under drifting selectivities (§2).
func BenchmarkE9EddyAdaptation(b *testing.B) {
	phase := 0
	filters := []eddy.Filter[int]{
		{Name: "A", Cost: 1, Pred: func(x int) bool { return phase == 1 || x%100 == 0 }},
		{Name: "B", Cost: 1, Pred: func(x int) bool { return x%10 != 1 }},
		{Name: "C", Cost: 1, Pred: func(x int) bool { return phase == 0 || x%100 == 0 }},
	}
	ed := eddy.New(filters, eddy.WithSeed[int](1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100_000 == 0 {
			phase = 1 - phase
		}
		ed.Process(i)
	}
}

// e10Shapes are the representative query shapes of E10.
var e10Shapes = []struct {
	name string
	sql  string
}{
	{"project", `SELECT text, username FROM twitter`},
	{"filter", `SELECT text FROM twitter WHERE text CONTAINS 'liverpool'`},
	{"sentiment_udf", `SELECT sentiment(text) AS s FROM twitter WHERE text CONTAINS 'liverpool'`},
	{"windowed_count", `SELECT COUNT(*) AS n FROM twitter WINDOW 1 MINUTE`},
	{"groupby_window", `SELECT COUNT(*) AS n FROM twitter GROUP BY has_geo WINDOW 5 MINUTES`},
}

// runE10 replays the 10k-tweet soccer prefix through one query and
// reports throughput.
func runE10(b *testing.B, sql string, opts core.Options) {
	b.Helper()
	all := firehose.Tweets(soccerStream()[:10_000])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub := twitterapi.NewHub()
		cat := catalog.New()
		cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, all[:1000]))
		svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(time.Duration) {}})
		if err := core.RegisterStandardUDFs(cat, core.Deps{Geocoder: geocode.NewCachedClient(svc, 10_000, 0)}); err != nil {
			b.Fatal(err)
		}
		opts.SourceBuffer = len(all) + 16
		eng := core.NewEngine(cat, opts)
		cur, err := eng.Query(context.Background(), sql)
		if err != nil {
			b.Fatal(err)
		}
		twitterapi.Replay(hub, all)
		for range cur.Rows() {
		}
	}
	b.ReportMetric(float64(len(all))*float64(b.N)/b.Elapsed().Seconds(), "tweets/sec")
}

// BenchmarkE10QueryThroughput measures end-to-end engine throughput for
// the representative query shapes of E10 over a 10k-tweet replay, with
// the production defaults (batched execution).
func BenchmarkE10QueryThroughput(b *testing.B) {
	for _, sh := range e10Shapes {
		b.Run(sh.name, func(b *testing.B) { runE10(b, sh.sql, core.DefaultOptions()) })
	}
}

// BenchmarkBatchAblation compares one-row batches (BatchSize=1)
// against 256-row batches, with and without the sharded worker pool,
// on the same E10 shapes — the scoreboard for batching.
func BenchmarkBatchAblation(b *testing.B) {
	variants := []struct {
		name               string
		batchSize, workers int
	}{
		{"batch1", 1, 1},
		{"batch256", 256, 1},
		{"batch256_workers4", 256, 4},
	}
	for _, sh := range e10Shapes {
		for _, v := range variants {
			b.Run(sh.name+"/"+v.name, func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.BatchSize = v.batchSize
				opts.BatchWorkers = v.workers
				runE10(b, sh.sql, opts)
			})
		}
	}
}

// BenchmarkTableStore measures the persistent table store: batched
// appends (encode + buffered write) and full-table scans (decode +
// time filter) over real tweet rows — the perf scoreboard for the
// INTO TABLE / FROM <table> path.
func BenchmarkTableStore(b *testing.B) {
	tweets := firehose.Tweets(soccerStream()[:10_000])
	rows := make([]value.Tuple, len(tweets))
	for i, tw := range tweets {
		rows[i] = catalog.TweetTuple(tw)
	}

	b.Run("append", func(b *testing.B) {
		tab, err := store.Open(store.Options{Dir: b.TempDir(), Fsync: store.FsyncNone})
		if err != nil {
			b.Fatal(err)
		}
		defer tab.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * 256) % (len(rows) - 256)
			if err := tab.AppendBatch(rows[lo : lo+256]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*256/b.Elapsed().Seconds(), "tweets/sec")
	})

	// append_sealing: the production configuration, where append never
	// is just append — columnar, a seal every 256 KiB of row log — so the
	// per-row cost includes building and committing the v2 blocks.
	// Retention only keeps the directory small.
	b.Run("append_sealing", func(b *testing.B) {
		tab, err := store.Open(store.Options{Dir: b.TempDir(), Fsync: store.FsyncNone,
			Columnar: true, SegmentMaxBytes: 256 << 10, RetainSegments: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer tab.Close()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocated := ms.TotalAlloc
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * 256) % (len(rows) - 256)
			if err := tab.AppendBatch(rows[lo : lo+256]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		n := float64(b.N) * 256
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
		b.ReportMetric(float64(ms.TotalAlloc-allocated)/n, "B/row")
	})

	// scan: the unsealed v1 row log (the active segment). scan_sealed and
	// scan_pruned: the same rows sealed into v2 column blocks, read whole
	// and read for 2 of the 12 columns — what `SELECT id, text … WHERE
	// text CONTAINS …` asks of the store.
	scan := func(opts store.Options, cols []string, from, to time.Time) func(b *testing.B) {
		want := 0
		for _, r := range rows {
			if !r.TS.Before(from) && (to.IsZero() || !r.TS.After(to)) {
				want++
			}
		}
		return func(b *testing.B) {
			opts.Dir, opts.Fsync = b.TempDir(), store.FsyncNone
			tab, err := store.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer tab.Close()
			if err := tab.AppendBatch(rows); err != nil {
				b.Fatal(err)
			}
			if err := tab.Flush(); err != nil {
				b.Fatal(err)
			}
			if sealed, _ := tab.Segments(); opts.Columnar && sealed == 0 {
				b.Fatal("nothing sealed: the benchmark would read the v1 tail only")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				err := tab.ScanColumns(from, to, 256, cols, func(batch []value.Tuple) error {
					n += len(batch)
					return nil
				})
				if err != nil || n != want {
					b.Fatalf("scan: n=%d want %d err=%v", n, want, err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(want)/b.Elapsed().Seconds(), "tweets/sec")
		}
	}
	all := time.Time{}
	sealed := store.Options{Columnar: true, SegmentMaxBytes: 256 << 10}
	b.Run("scan", scan(store.Options{}, nil, all, all))
	b.Run("scan_sealed", scan(sealed, nil, all, all))
	b.Run("scan_pruned", scan(sealed, []string{"id", "text"}, all, all))
	// scan_range: what range_10m asks of the store — three columns of the
	// rows between two timestamps that fall mid-block, from the sealed
	// segments of scan_sealed cut into 512-row blocks.
	b.Run("scan_range", scan(store.Options{Columnar: true, SegmentMaxBytes: 256 << 10, ColBlockRows: 512},
		[]string{"id", "text", "created_at"}, rows[1000].TS, rows[5000].TS))
}

// BenchmarkE11PeakLabels measures TF-IDF peak labeling (Figure 1.2's
// key terms).
func BenchmarkE11PeakLabels(b *testing.B) {
	corpus := terms.NewCorpus()
	var peak [][]uint32
	for i, lt := range soccerStream() {
		ids := corpus.AddDoc(nil, tweet.Tokenize(lt.Tweet.Text))
		if lt.Burst == "goal-3" && i%2 == 0 {
			peak = append(peak, ids)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := corpus.NewCounts()
		counts.AddDocs(len(peak))
		for _, ids := range peak {
			for _, id := range ids {
				counts.Add(id, 1)
			}
		}
		top := corpus.TopTerms(counts, 5, firehose.SoccerKeywords)
		if len(top) == 0 {
			b.Fatal("no labels")
		}
	}
}

// BenchmarkE12DashboardBuild measures assembling the full Figure 1
// dashboard from a loaded tracker.
func BenchmarkE12DashboardBuild(b *testing.B) {
	tr := soccerTracker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := tr.Dashboard(twitinfo.DashboardOptions{})
		if len(d.Peaks) == 0 {
			b.Fatal("dashboard lost peaks")
		}
	}
}
