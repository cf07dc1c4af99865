// Observability overhead guard: the PR 8 acceptance bar says the
// always-on instrumentation (per-operator stages, lag watermarks,
// store latency histograms) may cost at most 3% on the hot paths the
// repo already benchmarks (BenchmarkSharedScan, BenchmarkTableStore).
// This file enforces that bar as an asserting test so CI fails when a
// future change makes the disarmed/armed gap real.
//
// Methodology: each workload runs in A/B pairs, instrumented and
// uninstrumented strictly interleaved so machine-load drift hits both
// arms equally, and the guard compares the MINIMUM round time of each
// arm — min-of-rounds is the classic estimator for "the code's cost
// without the scheduler's noise". Skipped under -race (the detector
// multiplies atomic costs) and -short.
package tweeql_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/core"
	"tweeql/internal/firehose"
	"tweeql/internal/obs"
	"tweeql/internal/store"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// obsOverheadLimit is the acceptance bar: armed/disarmed <= 1.03.
const obsOverheadLimit = 1.03

// obsGuardRounds is how many interleaved A/B rounds feed the min.
const obsGuardRounds = 6

// obsGuardAttempts bounds the re-measurements assertOverhead may take
// before declaring the budget blown.
const obsGuardAttempts = 3

// assertOverhead measures the armed/disarmed ratio and enforces the 3%
// budget, re-measuring on a breach. Overhead is an upper-bound claim
// and scheduler noise only ever inflates the ratio — a loaded machine
// slows the arm that happens to be running — so the best attempt is
// the faithful estimate, while a real regression fails every attempt.
func assertOverhead(t *testing.T, what string, baseline, instrumented func() time.Duration) {
	t.Helper()
	best := math.Inf(1)
	for attempt := 0; attempt < obsGuardAttempts; attempt++ {
		if ratio := guardMinRatio(t, baseline, instrumented); ratio < best {
			best = ratio
		}
		if best <= obsOverheadLimit {
			return
		}
	}
	t.Errorf("%s: %.2f%% > %.0f%% budget",
		what, 100*(best-1), 100*(obsOverheadLimit-1))
}

// guardMinRatio runs the two arms interleaved (baseline first each
// round) and returns min(instrumented)/min(baseline).
func guardMinRatio(t *testing.T, baseline, instrumented func() time.Duration) float64 {
	t.Helper()
	// One unmeasured warmup each, so neither arm pays cold caches.
	baseline()
	instrumented()
	minBase, minInst := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < obsGuardRounds; r++ {
		if d := baseline(); d < minBase {
			minBase = d
		}
		if d := instrumented(); d < minInst {
			minInst = d
		}
	}
	t.Logf("baseline min %v, instrumented min %v (ratio %.4f)",
		minBase, minInst, float64(minInst)/float64(minBase))
	return float64(minInst) / float64(minBase)
}

func skipIfNoisy(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("overhead ratios are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("overhead guard is not a -short test")
	}
}

// sharedScanQuery is the BenchmarkSharedScan query.
const sharedScanQuery = `SELECT text FROM twitter WHERE followers > 1000000`

// sharedScanRound times one round of the shared-scan guard workload —
// the BenchmarkSharedScan shape: 8 copies of query on one shared scan
// ingesting a replay of all, on an engine with opts. arm, when set,
// runs once the engine is built and returns what stops it.
func sharedScanRound(t *testing.T, all []*tweet.Tweet, query string, opts core.Options, arm func(*catalog.Catalog, *core.Engine) func()) time.Duration {
	t.Helper()
	hub := twitterapi.NewHub()
	cat := catalog.New()
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, nil))
	opts.SourceBuffer = len(all) + 16
	eng := core.NewEngine(cat, opts)
	if arm != nil {
		defer arm(cat, eng)()
	}
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		cur, err := eng.Query(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range cur.Rows() {
			}
		}()
	}
	start := time.Now()
	twitterapi.Replay(hub, all)
	wg.Wait()
	return time.Since(start)
}

// TestObsOverheadSharedScan guards the streaming pipeline on the
// shared-scan workload, with engine profiling on vs off.
func TestObsOverheadSharedScan(t *testing.T) {
	skipIfNoisy(t)
	all := firehose.Tweets(soccerStream()[:2000])
	run := func(profiling bool) time.Duration {
		opts := core.DefaultOptions()
		opts.Profiling = profiling
		return sharedScanRound(t, all, sharedScanQuery, opts, nil)
	}
	assertOverhead(t, "profiling overhead on the shared-scan pipeline",
		func() time.Duration { return run(false) },
		func() time.Duration { return run(true) })
}

// TestObsOverheadColumnar guards the columnar stages' per-batch "vec"
// samples, which report through the same obs path as the scan: the
// shared-scan workload with a string filter and a two-column
// projection, so most of each round is spent in the vector kernels,
// with per-stage profiling on vs off. The filter passes few rows, so
// the replay is longer than the other guards' to keep a round well
// above scheduler jitter.
func TestObsOverheadColumnar(t *testing.T) {
	skipIfNoisy(t)
	all := firehose.Tweets(soccerStream()[:8000])
	const query = `SELECT text, username FROM twitter WHERE text CONTAINS 'liverpool'`
	run := func(profiling bool) time.Duration {
		opts := core.DefaultOptions()
		opts.Profiling = profiling
		return sharedScanRound(t, all, query, opts, nil)
	}
	assertOverhead(t, "profiling overhead on the columnar pipeline",
		func() time.Duration { return run(false) },
		func() time.Duration { return run(true) })
}

// TestObsOverheadTableStore guards the persistent store: batched
// appends plus a full scan — the BenchmarkTableStore shape — with the
// append/scan latency histograms on vs off.
func TestObsOverheadTableStore(t *testing.T) {
	skipIfNoisy(t)
	tweets := firehose.Tweets(soccerStream()[:8_000])
	rows := make([]value.Tuple, len(tweets))
	for i, tw := range tweets {
		rows[i] = catalog.TweetTuple(tw)
	}

	round := 0
	run := func(noHist bool) time.Duration {
		round++
		dir := t.TempDir() + fmt.Sprintf("/r%d", round)
		tab, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNone, NoLatencyHist: noHist})
		if err != nil {
			t.Fatal(err)
		}
		defer tab.Close()
		start := time.Now()
		for lo := 0; lo+256 <= len(rows); lo += 256 {
			if err := tab.AppendBatch(rows[lo : lo+256]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Flush(); err != nil {
			t.Fatal(err)
		}
		n := 0
		err = tab.Scan(time.Time{}, time.Time{}, 256, func(batch []value.Tuple) error {
			n += len(batch)
			return nil
		})
		if err != nil || n == 0 {
			t.Fatalf("scan: n=%d err=%v", n, err)
		}
		return time.Since(start)
	}

	assertOverhead(t, "histogram overhead on the table store",
		func() time.Duration { return run(true) },
		func() time.Duration { return run(false) })
}

// TestObsOverheadSysSampler guards the PR 9 self-observation layer on
// the same shared-scan workload: the baseline arm runs with
// SysStreams=false (the library default — nothing is registered, so
// the disarmed cost is structurally zero, not merely small), the
// instrumented arm registers $sys.metrics AND drives an aggressive
// 10ms sampler that snapshots every shared scan into metric rows on
// the live stream while the pipeline runs. Even that pathological
// sampling rate must fit inside the 3% budget, because the sampler
// only reads counters the hot path already maintains.
func TestObsOverheadSysSampler(t *testing.T) {
	skipIfNoisy(t)
	all := firehose.Tweets(soccerStream()[:2000])
	sample := func(cat *catalog.Catalog, eng *core.Engine) func() {
		mstream, _ := cat.SysStreams()
		sampler := obs.NewSampler(10*time.Millisecond, nil,
			func(now time.Time) []obs.Metric {
				var ms []obs.Metric
				for _, sc := range eng.Scans() {
					ms = append(ms, obs.Metric{
						Name:   "scan_rows_in",
						Labels: obs.RenderLabels("source", sc.Source),
						Value:  float64(sc.RowsIn),
						At:     now,
					})
				}
				return ms
			},
			func(ms []obs.Metric) { catalog.PublishMetrics(mstream, ms) })
		sampler.Start()
		return sampler.Close
	}
	run := func(sys bool) time.Duration {
		opts := core.DefaultOptions()
		opts.SysStreams = sys
		if !sys {
			return sharedScanRound(t, all, sharedScanQuery, opts, nil)
		}
		return sharedScanRound(t, all, sharedScanQuery, opts, sample)
	}
	assertOverhead(t, "sampler overhead on the shared-scan pipeline",
		func() time.Duration { return run(false) },
		func() time.Duration { return run(true) })
}
