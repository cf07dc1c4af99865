package twitinfo

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tweeql/internal/firehose"
	"tweeql/internal/links"
	"tweeql/internal/tweet"
)

// eventTracker is what the differential test drives on both the
// incremental Tracker and the rescanning oracle.
type eventTracker interface {
	Ingest(*tweet.Tweet) bool
	IngestMetric(name, labels string, v float64, ts time.Time)
	Finish()
	Dashboard(DashboardOptions) Dashboard
	PeakDashboard(int, DashboardOptions) (Dashboard, error)
	SearchPeaks(string, int) []LabeledPeak
	RelevantTweets(start, end time.Time, keywords []string, k int) []RankedTweet
	SentimentIn(start, end time.Time) Pie
	PopularLinksIn(start, end time.Time, k int) []links.URLCount
	MapPins(start, end time.Time, max int) []Pin
	RegionSentiment(start, end time.Time) map[string]Pie
}

// diffCase is one event definition and the arrivals it is fed.
type diffCase struct {
	name   string
	cfg    EventConfig
	feed   func(eventTracker)
	ranges int // random ranges compared, × every range panel
}

func soccerEventConfig() EventConfig {
	return EventConfig{Name: "Soccer: Manchester City vs Liverpool", Keywords: firehose.SoccerKeywords}
}

func feedTweets(tweets []*tweet.Tweet) func(eventTracker) {
	return func(tr eventTracker) {
		for _, t := range tweets {
			tr.Ingest(t)
		}
	}
}

// diffCases builds the configurations the tracker is compared under,
// for one soccer-match seed.
func diffCases(seed int64) []diffCase {
	stream := firehose.Tweets(firehose.New(firehose.SoccerMatch(seed)).Generate())
	// The variants below replay the first 45 minutes (kickoff and the
	// first goal): the oracle re-tokenizes per panel, and the whole
	// match is already covered by the default case.
	part := stream[:len(stream)*3/8]
	t0 := stream[0].CreatedAt
	rng := rand.New(rand.NewSource(seed))

	shuffled := slices.Clone(part)
	for lo := 0; lo < len(shuffled); lo += 50 {
		block := shuffled[lo:min(lo+50, len(shuffled))]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}

	// Every seventh tweet arrives twice, and a few distinct tweets share
	// an id, so ranking ties fall through to arrival order.
	var dup []*tweet.Tweet
	for i, t := range part {
		if i%11 == 0 {
			c := t.Clone()
			c.ID = int64(i % 5)
			t = c
		}
		dup = append(dup, t)
		if i%7 == 0 {
			dup = append(dup, t)
		}
	}

	// Tweets without a timestamp arrive mid-stream (the detector folds a
	// late arrival into its current bin; as a first arrival the zero
	// time would have it zero-fill two millennia of bins), next to late
	// ones from a century the bins do number.
	odd := slices.Clone(part[:20000])
	var matching []*tweet.Tweet
	for _, t := range part {
		if len(matching) < 3 && tweet.ContainsAnyWord(t.Text, firehose.SoccerKeywords) {
			matching = append(matching, t)
		}
	}
	for i, ts := range []time.Time{{}, time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC), {}} {
		c := matching[i].Clone()
		c.CreatedAt, c.HasGeo, c.Lat, c.Lon = ts, true, 40.7, -74
		odd = slices.Insert(odd, 5000*(i+1), c)
	}

	phrase := soccerEventConfig()
	phrase.Keywords = []string{"Thinking About", "#premierleague", " tevez "}

	window := soccerEventConfig()
	window.Start, window.End = t0.Add(9*time.Minute+30*time.Second), t0.Add(41*time.Minute)

	capped := soccerEventConfig()
	capped.MaxTweets = 9000

	ops := EventConfig{Name: "Ops: output_lag_p99", Metric: "output_lag_p99", Bin: 7 * time.Second}
	feedOps := func(tr eventTracker) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			v := r.Float64() * 0.02
			switch i / 200 % 5 {
			case 3:
				v += 0.5 // a latency spike every fifth stretch...
			case 4:
				v = 0 // ...and a lull after it, which closes the peak
			}
			labels := fmt.Sprintf(`query="q%d",stage="sink"`, r.Intn(4))
			if i%97 == 0 {
				labels = "see http://runbook.example/lag now"
			}
			tr.IngestMetric("output_lag_p99", labels, v, t0.Add(time.Duration(i)*250*time.Millisecond))
		}
	}

	return []diffCase{
		{"default", soccerEventConfig(), feedTweets(stream), 100},
		{"max_tweets", capped, feedTweets(part), 30},
		{"phrase_keyword", phrase, feedTweets(part), 30},
		{"start_end", window, feedTweets(part), 30},
		{"shuffled_arrivals", soccerEventConfig(), feedTweets(shuffled), 30},
		{"duplicate_ids", soccerEventConfig(), feedTweets(dup), 30},
		{"unnumbered_times", soccerEventConfig(), feedTweets(odd), 20},
		{"ops_metric", ops, feedOps, 30},
	}
}

// randomRange draws [start, end) around the stored tweets' time span:
// mostly a few bins wide, bin-aligned or not, sometimes open at either
// end, sometimes empty.
func randomRange(rng *rand.Rand, lo, hi time.Time, bin time.Duration) (start, end time.Time) {
	span := hi.Sub(lo) + 2*bin
	at := func() time.Time { return lo.Add(-bin + time.Duration(rng.Int63n(int64(span)))) }
	narrow := func(aligned bool) (time.Time, time.Time) {
		s, w := at(), time.Duration(rng.Int63n(int64(6*bin)))
		if aligned {
			s, w = s.Truncate(bin), w.Truncate(bin)+bin
		}
		return s, s.Add(w)
	}
	switch rng.Intn(10) {
	case 0, 1, 2:
		return narrow(true)
	case 3, 4, 5:
		return narrow(false)
	case 6:
		return time.Time{}, at()
	case 7:
		return at(), time.Time{}
	case 8: // empty: backwards, or clear of the event
		if rng.Intn(2) == 0 {
			s := at()
			return s, s.Add(-time.Duration(rng.Int63n(int64(bin))))
		}
		return hi.Add(3 * bin), hi.Add(5 * bin)
	default: // aligned start, ragged end, any width
		s, e := at().Truncate(bin), at()
		return s, e
	}
}

func sameSlice[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDifferentialAgainstRescanTracker holds the incremental tracker to
// the rescanning implementation it replaced: identical JSON for the
// dashboard, every peak drill-down and peak search, and identical
// results (nil-ness included) for every range panel over seeded random
// ranges, under each configuration of diffCases.
func TestDifferentialAgainstRescanTracker(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, c := range diffCases(seed) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, c.name), func(t *testing.T) {
				got, want := NewTracker(c.cfg, nil), newOracleTracker(c.cfg)
				for _, tr := range []eventTracker{got, want} {
					c.feed(tr)
					tr.Finish()
				}
				if len(want.tweets) == 0 || !sameSlice(got.Tweets(), want.tweets) {
					t.Fatalf("stored %d tweets, oracle %d", len(got.Tweets()), len(want.tweets))
				}
				compareDashboards(t, got, want)
				compareRanges(t, got, want, rand.New(rand.NewSource(seed)), c.ranges)
			})
		}
	}
}

func compareDashboards(t *testing.T, got *Tracker, want *oracleTracker) {
	for _, opts := range []DashboardOptions{{}, {TermsPerPeak: 2, RelevantTweets: 300, MaxPins: 7, TopLinks: 1}} {
		wd := want.Dashboard(opts)
		if g, w := asJSON(t, got.Dashboard(opts)), asJSON(t, wd); g != w {
			t.Fatalf("Dashboard(%+v):\n got %s\nwant %s", opts, g, w)
		}
		for _, p := range wd.Peaks {
			gd, gerr := got.PeakDashboard(p.ID, opts)
			wd, werr := want.PeakDashboard(p.ID, opts)
			if gerr != nil || werr != nil {
				t.Fatalf("PeakDashboard(%d): %v / oracle %v", p.ID, gerr, werr)
			}
			if g, w := asJSON(t, gd), asJSON(t, wd); g != w {
				t.Fatalf("PeakDashboard(%d, %+v):\n got %s\nwant %s", p.ID, opts, g, w)
			}
		}
	}
	if _, err := got.PeakDashboard(len(want.detector.Peaks())+1, DashboardOptions{}); err == nil {
		t.Error("PeakDashboard of an unknown peak succeeded")
	}
	for _, q := range []string{"goal", "0", "tevez", "lag", "nosuchterm", ""} {
		if g, w := asJSON(t, got.SearchPeaks(q, 4)), asJSON(t, want.SearchPeaks(q, 4)); g != w {
			t.Fatalf("SearchPeaks(%q):\n got %s\nwant %s", q, g, w)
		}
	}
}

func compareRanges(t *testing.T, got *Tracker, want *oracleTracker, rng *rand.Rand, n int) {
	// The span of the tweets a bin key numbers; unnumbered ones lie
	// outside every drawn range or inside the open-ended ones.
	var lo, hi time.Time
	for _, st := range want.tweets {
		if _, ok := got.binKey(st.CreatedAt); !ok {
			continue
		}
		if lo.IsZero() || st.CreatedAt.Before(lo) {
			lo = st.CreatedAt
		}
		if st.CreatedAt.After(hi) {
			hi = st.CreatedAt
		}
	}
	keywords := append(slices.Clone(want.cfg.Keywords), "goal", "Tevez", "tevez", "1-0", "notaterm")
	// Open-ended ranges first, whatever the draw: they are the ones
	// that reach tweets without a numbered bin.
	ranges := [][2]time.Time{{}, {{}, hi}, {{}, lo.Add(want.cfg.Bin)}, {lo, {}}, {hi, {}}}
	for i := 0; i < n; i++ {
		start, end := randomRange(rng, lo, hi, want.cfg.Bin)
		ranges = append(ranges, [2]time.Time{start, end})
	}
	for _, r := range ranges {
		start, end := r[0], r[1]
		where := fmt.Sprintf("[%s, %s)", start.Format(time.RFC3339Nano), end.Format(time.RFC3339Nano))

		all := want.RelevantTweets(start, end, keywords, 0)
		for _, k := range []int{0, 10, len(all) + 5} {
			w := all
			if k > 0 && k < len(w) {
				w = w[:k]
			}
			if g := got.RelevantTweets(start, end, keywords, k); !sameSlice(g, w) {
				t.Fatalf("RelevantTweets(%s, k=%d): %d tweets, oracle %d (nil %v/%v)", where, k, len(g), len(w), g == nil, w == nil)
			}
		}
		if g, w := got.SentimentIn(start, end), want.SentimentIn(start, end); g != w {
			t.Fatalf("SentimentIn(%s) = %+v, oracle %+v", where, g, w)
		}
		for _, k := range []int{3, 1000} {
			if g, w := got.PopularLinksIn(start, end, k), want.PopularLinksIn(start, end, k); !sameSlice(g, w) {
				t.Fatalf("PopularLinksIn(%s, %d) = %v, oracle %v", where, k, g, w)
			}
		}
		for _, max := range []int{0, 5} {
			if g, w := got.MapPins(start, end, max), want.MapPins(start, end, max); !sameSlice(g, w) {
				t.Fatalf("MapPins(%s, %d): %d pins, oracle %d", where, max, len(g), len(w))
			}
		}
		if g, w := got.RegionSentiment(start, end), want.RegionSentiment(start, end); g == nil || !maps.Equal(g, w) {
			t.Fatalf("RegionSentiment(%s) = %v, oracle %v", where, g, w)
		}
	}
}
