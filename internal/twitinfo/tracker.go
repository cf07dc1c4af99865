// Package twitinfo implements TwitInfo (§3): an event timeline
// generation and exploration application built on top of the TweeQL
// stream processor. Users define an event as a keyword query (§3.1);
// the tracker logs matching tweets, detects activity peaks and labels
// them with key terms (§3.2), and assembles the Figure 1 dashboard:
// timeline, relevant tweets, sentiment pie, popular links, and the
// geographic sentiment map (§3.3).
package twitinfo

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/gazetteer"
	"tweeql/internal/links"
	"tweeql/internal/peaks"
	"tweeql/internal/sentiment"
	"tweeql/internal/terms"
	"tweeql/internal/tweet"
	"tweeql/internal/value"
)

// EventConfig defines an event the way §3.1 describes: a human-readable
// name, the keyword query, and an optional time window.
type EventConfig struct {
	Name     string
	Keywords []string
	// Metric marks a self-observation event: the timeline tracks one
	// $sys.metrics series (value-weighted) instead of a keyword query,
	// so no keywords are required.
	Metric string
	// Start/End bound the event; zero values mean unbounded.
	Start, End time.Time
	// Bin is the timeline granularity (default 1 minute).
	Bin time.Duration
	// Peaks tunes the detector beyond the bin width.
	Peaks peaks.Config
	// MaxTweets caps stored tweets (default 200k) so a runaway event
	// cannot exhaust memory; beyond the cap, tweets still count in the
	// timeline but are not retained for drill-down.
	MaxTweets int
}

func (c EventConfig) withDefaults() EventConfig {
	if c.Bin <= 0 {
		c.Bin = time.Minute
	}
	c.Peaks.Bin = c.Bin
	if c.MaxTweets <= 0 {
		c.MaxTweets = 200_000
	}
	return c
}

// StoredTweet is one logged tweet with its derived metadata.
type StoredTweet struct {
	ID        int64           `json:"id"`
	Username  string          `json:"username"`
	Text      string          `json:"text"`
	CreatedAt time.Time       `json:"created_at"`
	Sentiment sentiment.Label `json:"sentiment"`
	Score     float64         `json:"score"`
	HasGeo    bool            `json:"has_geo"`
	Lat       float64         `json:"lat,omitempty"`
	Lon       float64         `json:"lon,omitempty"`
	Retweet   bool            `json:"retweet"`
}

// Tracker logs one event's tweets and maintains its dashboard state
// incrementally: a tweet is tokenized once at ingest, its terms are
// interned, and its contribution is folded into the partial of the
// timeline bin its own created_at falls in, so every panel over a time
// range merges bin partials instead of rescanning and re-tokenizing the
// stored tweets.
//
// A Tracker is safe for one writer and any number of readers: Ingest,
// IngestTuple, IngestMetric and Finish take its write lock, every read
// method its read lock, each for the length of one call. Dashboard and
// PeakDashboard build all their panels under a single read lock, so a
// payload is one consistent snapshot.
type Tracker struct {
	cfg      EventConfig
	analyzer *sentiment.Analyzer
	// keywords is the event's keyword query, compiled; nil when the
	// event has no keywords and every tweet matches.
	keywords *tweet.Keywords
	// binOrigin is the Unix epoch truncated to cfg.Bin, in Unix ns: the
	// start of bin 0 (see binKey).
	binOrigin int64
	// tupleCols caches IngestTuple's column positions for the last
	// schema it saw.
	tupleCols atomic.Pointer[tupleColumns]

	mu       sync.RWMutex
	detector *peaks.Detector
	corpus   *terms.Corpus
	links    *links.Counter

	tweets []StoredTweet
	// termIDs holds every stored tweet's distinct term ids back to back;
	// tweet i's are termIDs[termEnd[i-1]:termEnd[i]].
	termIDs []uint32
	termEnd []uint32
	// bins are the per-bin partials, sorted by key; unbinned holds the
	// tweets whose timestamp has no bin key (see binKey).
	bins     []*binPartial
	unbinned binPartial
	// geo lists the geo-tagged stored tweets in ingest order.
	geo []int32

	ingested int64
	pie      Pie // whole-event totals, tweets beyond MaxTweets included
}

// binPartial is what one timeline bin's stored tweets contribute to the
// range panels. Partials count stored tweets only: beyond MaxTweets a
// tweet reaches the timeline and the whole-event totals but no partial.
type binPartial struct {
	key    int64
	pie    Pie
	terms  map[uint32]int32 // term id → tweets of the bin containing it
	urls   map[string]int
	tweets []int32 // indices into Tracker.tweets, ingest order
}

// NewTracker creates a tracker for the event.
func NewTracker(cfg EventConfig, analyzer *sentiment.Analyzer) *Tracker {
	cfg = cfg.withDefaults()
	if analyzer == nil {
		analyzer = sentiment.Default()
	}
	tr := &Tracker{
		cfg:       cfg,
		analyzer:  analyzer,
		binOrigin: time.Unix(0, 0).Truncate(cfg.Bin).UnixNano(),
		detector:  peaks.NewDetector(cfg.Peaks),
		corpus:    terms.NewCorpus(),
		links:     links.NewCounter(),
	}
	if len(cfg.Keywords) > 0 {
		tr.keywords = tweet.NewKeywords(cfg.Keywords)
	}
	return tr
}

// Config returns the event definition.
func (tr *Tracker) Config() EventConfig { return tr.cfg }

// Matches reports whether the tweet belongs to the event: inside the
// time window and containing one of the keywords.
func (tr *Tracker) Matches(t *tweet.Tweet) bool {
	return tr.matches(t.Text, t.CreatedAt)
}

// matches tests a tweet's window and keywords; the keyword test walks
// the text in place, so a rejected tweet is never tokenized.
func (tr *Tracker) matches(text string, createdAt time.Time) bool {
	return inRange(createdAt, tr.cfg.Start, tr.cfg.End) && (tr.keywords == nil || tr.keywords.Any(text))
}

// Ingest logs one tweet (skipping non-matching ones) and returns
// whether it was accepted.
func (tr *Tracker) Ingest(t *tweet.Tweet) bool {
	if !tr.matches(t.Text, t.CreatedAt) {
		return false
	}
	tr.ingest(t)
	return true
}

// tupleColumns is the tweet columns' positions in one schema.
type tupleColumns struct {
	schema *value.Schema
	cols   catalog.TweetColumns
}

// IngestTuple logs a TweeQL output row — the "TwitInfo is an
// application written on top of the TweeQL stream processor" wiring.
// The window and keyword test reads only the row's created_at and text;
// the tweet is built for rows that pass.
func (tr *Tracker) IngestTuple(row value.Tuple) bool {
	tc := tr.tupleCols.Load()
	if tc == nil || tc.schema != row.Schema {
		tc = &tupleColumns{schema: row.Schema, cols: catalog.ResolveTweetColumns(row.Schema)}
		tr.tupleCols.Store(tc)
	}
	if !tr.matches(tc.cols.TextAndTime(row)) {
		return false
	}
	tr.ingest(tc.cols.Tweet(row))
	return true
}

// ingest logs a tweet the event matches. Its text is tokenized once;
// the sentiment classifier and the term corpus both read those tokens.
func (tr *Tracker) ingest(t *tweet.Tweet) {
	toks := tweet.Tokenize(t.Text)
	label, score := tr.analyzer.ClassifyTokens(toks)
	urls := tweet.URLs(t.Text)
	st := StoredTweet{
		ID: t.ID, Username: t.Username, Text: t.Text, CreatedAt: t.CreatedAt,
		Sentiment: label, Score: score, HasGeo: t.HasGeo, Retweet: t.Retweet,
	}
	if t.HasGeo {
		st.Lat, st.Lon = t.Lat, t.Lon
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ingested++
	tr.detector.Add(t.CreatedAt)
	for _, u := range urls {
		tr.links.Add(u)
	}
	tr.pie.add(label)
	tr.store(st, toks, urls)
}

// store adds the tweet to the corpus and, below the MaxTweets cap, to
// the stored tweets and its bin's partial.
func (tr *Tracker) store(st StoredTweet, toks, urls []string) {
	start := len(tr.termIDs)
	tr.termIDs = tr.corpus.AddDoc(tr.termIDs, toks)
	if len(tr.tweets) >= tr.cfg.MaxTweets {
		tr.termIDs = tr.termIDs[:start]
		return
	}
	idx := int32(len(tr.tweets))
	tr.tweets = append(tr.tweets, st)
	tr.termEnd = append(tr.termEnd, uint32(len(tr.termIDs)))
	if st.HasGeo {
		tr.geo = append(tr.geo, idx)
	}

	b := tr.bin(st.CreatedAt)
	b.pie.add(st.Sentiment)
	for _, id := range tr.termIDs[start:] {
		b.terms[id]++
	}
	for _, u := range urls {
		b.urls[u]++
	}
	b.tweets = append(b.tweets, idx)
}

// maxBinSec bounds, in seconds either side of the Unix epoch, the
// timestamps that get a bin key: inside it UnixNano is exact and a
// bin's bounds cannot overflow for any plausible bin width.
const maxBinSec = 1 << 32

// binKey numbers the timeline bin holding ts: bin k spans
// [binOrigin + k*Bin, binOrigin + (k+1)*Bin), so bins line up with the
// detector's ts.Truncate(Bin) bins and therefore with every peak's
// bounds. ok is false for a timestamp too far from the epoch to number
// (the zero time, say); such tweets are kept in Tracker.unbinned.
func (tr *Tracker) binKey(ts time.Time) (key int64, ok bool) {
	if sec := ts.Unix(); sec <= -maxBinSec || sec >= maxBinSec {
		return 0, false
	}
	bin := int64(tr.cfg.Bin)
	d := ts.UnixNano() - tr.binOrigin
	key = d / bin
	if d%bin < 0 {
		key--
	}
	return key, true
}

// bin returns the partial of the bin holding ts, creating it if this is
// its first stored tweet. Arrivals are mostly in time order, so the bin
// is usually the last one.
func (tr *Tracker) bin(ts time.Time) *binPartial {
	key, ok := tr.binKey(ts)
	if !ok {
		if tr.unbinned.terms == nil {
			tr.unbinned.terms, tr.unbinned.urls = make(map[uint32]int32), make(map[string]int)
		}
		return &tr.unbinned
	}
	if n := len(tr.bins); n > 0 && tr.bins[n-1].key == key {
		return tr.bins[n-1]
	}
	i := sort.Search(len(tr.bins), func(i int) bool { return tr.bins[i].key >= key })
	if i < len(tr.bins) && tr.bins[i].key == key {
		return tr.bins[i]
	}
	b := &binPartial{key: key, terms: make(map[uint32]int32), urls: make(map[string]int)}
	tr.bins = slices.Insert(tr.bins, i, b)
	return b
}

// termsOf returns stored tweet i's distinct term ids.
func (tr *Tracker) termsOf(i int32) []uint32 {
	start := uint32(0)
	if i > 0 {
		start = tr.termEnd[i-1]
	}
	return tr.termIDs[start:tr.termEnd[i]]
}

// span visits what the stored tweets in [start, end) contributed: whole
// is called with the partial of each bin lying entirely inside the
// range, each with the index of every in-range tweet of the bins the
// range cuts (and of tr.unbinned). Zero bounds are open. Peak bounds are
// bin-aligned, so a peak's span is whole bins only.
func (tr *Tracker) span(start, end time.Time, whole func(*binPartial), each func(i int32)) {
	walk := func(b *binPartial) {
		for _, i := range b.tweets {
			if inRange(tr.tweets[i].CreatedAt, start, end) {
				each(i)
			}
		}
	}
	walk(&tr.unbinned)

	bin := int64(tr.cfg.Bin)
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64) // the range in Unix ns
	if !start.IsZero() {
		lo = clampNano(start)
	}
	if !end.IsZero() {
		hi = clampNano(end)
	}
	startOf := func(b *binPartial) int64 { return tr.binOrigin + b.key*bin }
	first := sort.Search(len(tr.bins), func(i int) bool { return startOf(tr.bins[i])+bin > lo })
	for _, b := range tr.bins[first:] {
		switch from := startOf(b); {
		case from >= hi:
			return
		case from >= lo && from+bin <= hi:
			whole(b)
		default:
			walk(b)
		}
	}
}

// clampNano is ts in Unix nanoseconds, clamped to the range binKey
// numbers.
func clampNano(ts time.Time) int64 {
	switch sec := ts.Unix(); {
	case sec <= -maxBinSec:
		return -maxBinSec * int64(time.Second)
	case sec >= maxBinSec:
		return maxBinSec * int64(time.Second)
	}
	return ts.UnixNano()
}

// metricScale converts a metric value into timeline counts. Seconds-
// scale latencies become milliseconds, so sub-integer values survive
// the detector's integer bins.
const metricScale = 1000

// IngestMetric logs one $sys.metrics sample as the event's "tweet":
// the timeline is weighted by the metric's value (×1000, so fractional
// seconds survive integer bins) instead of counting rows — one sample
// arrives per interval regardless of health, so row volume is flat and
// meaningless, but summed value per bin makes the Figure 1 volume-peak
// view double as an ops view where peaks are latency spikes. The
// sample's series text feeds the corpus and drill-down panels, so peak
// labels name the offending series.
func (tr *Tracker) IngestMetric(name, labels string, v float64, ts time.Time) {
	if !inRange(ts, tr.cfg.Start, tr.cfg.End) {
		return
	}
	count := int(math.Round(v * metricScale))
	if count < 0 {
		count = 0
	}
	text := name
	if labels != "" {
		text += "{" + labels + "}"
	}
	text += fmt.Sprintf(" %g", v)
	st := StoredTweet{Username: "tweeqld", Text: text, CreatedAt: ts, Sentiment: sentiment.Neutral}
	// A sample's links count in the range panels only, as its text
	// never reached the whole-event link counter.
	toks, urls := tweet.Tokenize(text), tweet.URLs(text)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ingested++
	tr.detector.AddCount(ts, count)
	tr.pie.add(sentiment.Neutral)
	tr.store(st, toks, urls)
}

// IngestMetricTuple logs a $sys.metrics row (name, labels, value,
// created_at) via IngestMetric. Rows with a NULL or non-numeric value
// are skipped; name and labels degrade to "" on kind drift.
func (tr *Tracker) IngestMetricTuple(row value.Tuple) {
	v := row.Get("value")
	if v.Kind() != value.KindFloat && v.Kind() != value.KindInt {
		return
	}
	ts := row.TS
	if t, err := row.Get("created_at").TimeVal(); err == nil {
		ts = t
	}
	var name, labels string
	if nv := row.Get("name"); nv.Kind() == value.KindString {
		name = nv.Str()
	}
	if lv := row.Get("labels"); lv.Kind() == value.KindString {
		labels = lv.Str()
	}
	tr.IngestMetric(name, labels, v.Num(), ts)
}

// Finish flushes the timeline (closing any open peak) at end of stream.
func (tr *Tracker) Finish() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.detector.Finish()
}

// Ingested reports how many tweets the event has logged.
func (tr *Tracker) Ingested() int64 {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.ingested
}

// Tweets returns the stored tweets in ingest order (shared slice;
// callers must not mutate). The tracker only ever appends to it, so the
// returned prefix stays valid while ingest continues.
func (tr *Tracker) Tweets() []StoredTweet {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.tweets
}

// Timeline returns the volume histogram (Figure 1.2's curve).
func (tr *Tracker) Timeline() []peaks.Bin {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.detector.Bins()
}

// LabeledPeak is a detected peak plus its automatic key terms.
type LabeledPeak struct {
	peaks.Peak
	Terms []terms.ScoredTerm `json:"terms"`
}

// Peaks returns the detected peaks, each labeled with its top key terms
// (Figure 1.2's flags and the annotated list to the right of the
// timeline). Event keywords are excluded from labels since they appear
// in every tweet by construction.
func (tr *Tracker) Peaks(termsPerPeak int) []LabeledPeak {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.labeledPeaks(termsPerPeak)
}

func (tr *Tracker) labeledPeaks(termsPerPeak int) []LabeledPeak {
	if termsPerPeak <= 0 {
		termsPerPeak = 5
	}
	ps := tr.detector.Peaks()
	out := make([]LabeledPeak, len(ps))
	counts := tr.corpus.NewCounts()
	for i, p := range ps {
		counts.Reset()
		tr.span(p.Start, p.End, func(b *binPartial) {
			counts.AddDocs(len(b.tweets))
			for id, n := range b.terms {
				counts.Add(id, n)
			}
		}, func(i int32) {
			counts.AddDocs(1)
			for _, id := range tr.termsOf(i) {
				counts.Add(id, 1)
			}
		})
		out[i] = LabeledPeak{Peak: p, Terms: tr.corpus.TopTerms(counts, termsPerPeak, tr.cfg.Keywords)}
	}
	return out
}

// SearchPeaks returns the labeled peaks whose key terms match the
// query (§3.2: "Users can perform text search on this list of key terms
// to locate a specific peak").
func (tr *Tracker) SearchPeaks(query string, termsPerPeak int) []LabeledPeak {
	var out []LabeledPeak
	for _, lp := range tr.Peaks(termsPerPeak) {
		if terms.MatchesSearch(lp.Terms, query) {
			out = append(out, lp)
		}
	}
	return out
}

func inRange(ts, start, end time.Time) bool {
	if !start.IsZero() && ts.Before(start) {
		return false
	}
	if !end.IsZero() && !ts.Before(end) {
		return false
	}
	return true
}

// RankedTweet is one Relevant Tweets entry (Figure 1.4).
type RankedTweet struct {
	StoredTweet
	Similarity float64 `json:"similarity"`
}

// RelevantTweets ranks tweets in [start, end) by similarity to the
// given keywords (event keywords for the event view, peak terms for a
// drill-down), demoting retweets as less original content; ties go to
// the lower id, then the earlier arrival. k bounds the result (k <= 0:
// every tweet in the range).
func (tr *Tracker) RelevantTweets(start, end time.Time, keywords []string, k int) []RankedTweet {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.relevantTweets(start, end, keywords, k)
}

func (tr *Tracker) relevantTweets(start, end time.Time, keywords []string, k int) []RankedTweet {
	type ranked struct {
		sim float64
		i   int32
	}
	before := func(a, b ranked) bool {
		if a.sim != b.sim {
			return a.sim > b.sim
		}
		if ida, idb := tr.tweets[a.i].ID, tr.tweets[b.i].ID; ida != idb {
			return ida < idb
		}
		return a.i < b.i
	}
	kw := tr.corpus.Keywords(keywords)
	// A small k is selected as the tweets are scored; a large one (or
	// none) by sorting every candidate, which insertion would not beat.
	bounded := k > 0 && k <= 256
	var top []ranked
	score := func(i int32) {
		sim := kw.Similarity(tr.termsOf(i))
		if tr.tweets[i].Retweet {
			sim *= 0.8
		}
		if bounded {
			top = terms.KeepTop(top, k, ranked{sim, i}, before)
		} else {
			top = append(top, ranked{sim, i})
		}
	}
	tr.span(start, end, func(b *binPartial) {
		for _, i := range b.tweets {
			score(i)
		}
	}, score)
	if !bounded {
		sort.Slice(top, func(i, j int) bool { return before(top[i], top[j]) })
		if k > 0 && k < len(top) {
			top = top[:k]
		}
	}
	if len(top) == 0 {
		return nil
	}
	out := make([]RankedTweet, len(top))
	for n, r := range top {
		out[n] = RankedTweet{StoredTweet: tr.tweets[r.i], Similarity: r.sim}
	}
	return out
}

// Pie is the Overall Sentiment panel (Figure 1.6): the proportion of
// positive and negative tweets.
type Pie struct {
	Positive int64 `json:"positive"`
	Negative int64 `json:"negative"`
	Neutral  int64 `json:"neutral"`
}

// PositiveShare is the positive fraction among polar (non-neutral)
// tweets, the number the pie chart visualizes.
func (p Pie) PositiveShare() float64 {
	polar := p.Positive + p.Negative
	if polar == 0 {
		return 0
	}
	return float64(p.Positive) / float64(polar)
}

// Normalized rescales the polar counts by per-class classifier recall,
// the correction the deployed TwitInfo applied so that a classifier
// that finds (say) 60% of positive tweets but 80% of negative ones does
// not skew the pie: each observed count divides by its class recall to
// estimate the true count. Recalls outside (0, 1] are treated as 1.
func (p Pie) Normalized(posRecall, negRecall float64) Pie {
	if posRecall <= 0 || posRecall > 1 {
		posRecall = 1
	}
	if negRecall <= 0 || negRecall > 1 {
		negRecall = 1
	}
	return Pie{
		Positive: int64(float64(p.Positive) / posRecall),
		Negative: int64(float64(p.Negative) / negRecall),
		Neutral:  p.Neutral,
	}
}

// add counts one tweet of the given polarity.
func (p *Pie) add(l sentiment.Label) {
	switch l {
	case sentiment.Positive:
		p.Positive++
	case sentiment.Negative:
		p.Negative++
	default:
		p.Neutral++
	}
}

// Sentiment returns the whole-event pie.
func (tr *Tracker) Sentiment() Pie {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.pie
}

// SentimentIn recomputes the pie over a time range (peak drill-down).
func (tr *Tracker) SentimentIn(start, end time.Time) Pie {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.sentimentIn(start, end)
}

func (tr *Tracker) sentimentIn(start, end time.Time) Pie {
	var p Pie
	tr.span(start, end, func(b *binPartial) {
		p.Positive += b.pie.Positive
		p.Negative += b.pie.Negative
		p.Neutral += b.pie.Neutral
	}, func(i int32) {
		p.add(tr.tweets[i].Sentiment)
	})
	return p
}

// PopularLinks returns the top-k URLs over the whole event (Figure
// 1.5; TwitInfo shows k=3).
func (tr *Tracker) PopularLinks(k int) []links.URLCount {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.links.Top(k)
}

// PopularLinksIn recomputes top links over a time range.
func (tr *Tracker) PopularLinksIn(start, end time.Time, k int) []links.URLCount {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.popularLinksIn(start, end, k)
}

func (tr *Tracker) popularLinksIn(start, end time.Time, k int) []links.URLCount {
	c := links.NewCounter()
	tr.span(start, end, func(b *binPartial) {
		for u, n := range b.urls {
			c.AddN(u, n)
		}
	}, func(i int32) {
		c.AddTweet(tr.tweets[i].Text)
	})
	return c.Top(k)
}

// Pin is one Tweet Map marker (Figure 1.3), colored by sentiment.
type Pin struct {
	Lat       float64         `json:"lat"`
	Lon       float64         `json:"lon"`
	Sentiment sentiment.Label `json:"sentiment"`
	TweetID   int64           `json:"tweet_id"`
	Text      string          `json:"text"`
}

// MapPins returns up to max geo-tagged tweets in the range as map
// markers, earliest arrivals first.
func (tr *Tracker) MapPins(start, end time.Time, max int) []Pin {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.mapPins(start, end, max)
}

func (tr *Tracker) mapPins(start, end time.Time, max int) []Pin {
	var out []Pin
	for _, i := range tr.geo {
		st := &tr.tweets[i]
		if !inRange(st.CreatedAt, start, end) {
			continue
		}
		out = append(out, Pin{Lat: st.Lat, Lon: st.Lon, Sentiment: st.Sentiment, TweetID: st.ID, Text: st.Text})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// RegionSentiment aggregates pin sentiment by nearest gazetteer city —
// the §3.3 observation that "opinion on an event differs by geographic
// region" (Red Sox fans in Boston vs Yankees fans in New York).
func (tr *Tracker) RegionSentiment(start, end time.Time) map[string]Pie {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	out := make(map[string]Pie)
	for _, i := range tr.geo {
		st := &tr.tweets[i]
		if !inRange(st.CreatedAt, start, end) {
			continue
		}
		city := gazetteer.Nearest(st.Lat, st.Lon).Name
		p := out[city]
		p.add(st.Sentiment)
		out[city] = p
	}
	return out
}

// PeakDetectUDF exposes the peak detector as a stateful TweeQL UDF, as
// §3.2 describes ("a stateful TweeQL UDF that performs streaming mean
// deviation detection over the aggregate tweet count"). Applied as
// peak_detect(window_end, n) over a windowed COUNT(*) stream, it folds
// each window's count into the detector and returns the open peak's
// flag letter, or NULL outside peaks.
func PeakDetectUDF(cfg peaks.Config) catalog.StatefulFactory {
	return func() catalog.ScalarFn {
		d := peaks.NewDetector(cfg)
		return func(_ context.Context, args []value.Value) (value.Value, error) {
			if len(args) != 2 {
				return value.Null(), fmt.Errorf("twitinfo: peak_detect takes (window_end, count), got %d args", len(args))
			}
			ts, err := args[0].TimeVal()
			if err != nil {
				return value.Null(), fmt.Errorf("twitinfo: peak_detect first arg must be a time: %w", err)
			}
			n, err := args[1].IntVal()
			if err != nil {
				return value.Null(), fmt.Errorf("twitinfo: peak_detect second arg must be a count: %w", err)
			}
			d.AddCount(ts, int(n))
			if p, ok := d.Open(); ok {
				return value.String(p.Flag()), nil
			}
			return value.Null(), nil
		}
	}
}

// String renders a one-line event summary.
func (tr *Tracker) String() string {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return fmt.Sprintf("event %q tracking [%s]: %d tweets, %d peaks",
		tr.cfg.Name, strings.Join(tr.cfg.Keywords, ", "), tr.ingested, len(tr.detector.Peaks()))
}
