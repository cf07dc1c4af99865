package twitinfo

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"tweeql/internal/gazetteer"
	"tweeql/internal/links"
	"tweeql/internal/peaks"
	"tweeql/internal/sentiment"
	"tweeql/internal/terms"
	"tweeql/internal/tweet"
)

// oracleTracker is the tracker as it was before panels became merges of
// per-bin partials: every range panel linearly rescans the stored
// tweets and re-tokenizes their text, and peak labels and similarity
// are scored from text (oracleCorpus, oracleSimilarity). It is the
// definition the differential test holds Tracker to, output for output.
type oracleTracker struct {
	cfg      EventConfig
	analyzer *sentiment.Analyzer

	detector *peaks.Detector
	corpus   *oracleCorpus
	links    *links.Counter

	tweets            []StoredTweet
	ingested          int64
	pos, neg, neutral int64
}

func newOracleTracker(cfg EventConfig) *oracleTracker {
	cfg = cfg.withDefaults()
	return &oracleTracker{
		cfg:      cfg,
		analyzer: sentiment.Default(),
		detector: peaks.NewDetector(cfg.Peaks),
		corpus:   &oracleCorpus{docFreq: make(map[string]int)},
		links:    links.NewCounter(),
	}
}

func (tr *oracleTracker) Matches(t *tweet.Tweet) bool {
	if !tr.cfg.Start.IsZero() && t.CreatedAt.Before(tr.cfg.Start) {
		return false
	}
	if !tr.cfg.End.IsZero() && !t.CreatedAt.Before(tr.cfg.End) {
		return false
	}
	if len(tr.cfg.Keywords) == 0 {
		return true
	}
	return tweet.ContainsAnyWord(t.Text, tr.cfg.Keywords)
}

func (tr *oracleTracker) Ingest(t *tweet.Tweet) bool {
	if !tr.Matches(t) {
		return false
	}
	tr.ingested++
	tr.detector.Add(t.CreatedAt)
	tr.corpus.AddDoc(t.Text)
	tr.links.AddTweet(t.Text)

	label, score := tr.analyzer.Classify(t.Text)
	switch label {
	case sentiment.Positive:
		tr.pos++
	case sentiment.Negative:
		tr.neg++
	default:
		tr.neutral++
	}
	if len(tr.tweets) < tr.cfg.MaxTweets {
		st := StoredTweet{
			ID: t.ID, Username: t.Username, Text: t.Text, CreatedAt: t.CreatedAt,
			Sentiment: label, Score: score, HasGeo: t.HasGeo, Retweet: t.Retweet,
		}
		if t.HasGeo {
			st.Lat, st.Lon = t.Lat, t.Lon
		}
		tr.tweets = append(tr.tweets, st)
	}
	return true
}

func (tr *oracleTracker) IngestMetric(name, labels string, v float64, ts time.Time) {
	if !inRange(ts, tr.cfg.Start, tr.cfg.End) {
		return
	}
	tr.ingested++
	count := int(math.Round(v * metricScale))
	if count < 0 {
		count = 0
	}
	tr.detector.AddCount(ts, count)
	text := name
	if labels != "" {
		text += "{" + labels + "}"
	}
	text += fmt.Sprintf(" %g", v)
	tr.corpus.AddDoc(text)
	tr.neutral++
	if len(tr.tweets) < tr.cfg.MaxTweets {
		tr.tweets = append(tr.tweets, StoredTweet{
			Username: "tweeqld", Text: text, CreatedAt: ts, Sentiment: sentiment.Neutral,
		})
	}
}

func (tr *oracleTracker) Finish() { tr.detector.Finish() }

func (tr *oracleTracker) Peaks(termsPerPeak int) []LabeledPeak {
	if termsPerPeak <= 0 {
		termsPerPeak = 5
	}
	ps := tr.detector.Peaks()
	out := make([]LabeledPeak, len(ps))
	for i, p := range ps {
		var texts []string
		for j := range tr.tweets {
			if inRange(tr.tweets[j].CreatedAt, p.Start, p.End) {
				texts = append(texts, tr.tweets[j].Text)
			}
		}
		out[i] = LabeledPeak{Peak: p, Terms: tr.corpus.TopTerms(texts, termsPerPeak, tr.cfg.Keywords)}
	}
	return out
}

func (tr *oracleTracker) SearchPeaks(query string, termsPerPeak int) []LabeledPeak {
	var out []LabeledPeak
	for _, lp := range tr.Peaks(termsPerPeak) {
		if terms.MatchesSearch(lp.Terms, query) {
			out = append(out, lp)
		}
	}
	return out
}

func (tr *oracleTracker) RelevantTweets(start, end time.Time, keywords []string, k int) []RankedTweet {
	var out []RankedTweet
	for i := range tr.tweets {
		st := tr.tweets[i]
		if !inRange(st.CreatedAt, start, end) {
			continue
		}
		sim := oracleSimilarity(st.Text, keywords)
		if st.Retweet {
			sim *= 0.8
		}
		out = append(out, RankedTweet{StoredTweet: st, Similarity: sim})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func (tr *oracleTracker) Sentiment() Pie {
	return Pie{Positive: tr.pos, Negative: tr.neg, Neutral: tr.neutral}
}

func (tr *oracleTracker) SentimentIn(start, end time.Time) Pie {
	var p Pie
	for i := range tr.tweets {
		if st := &tr.tweets[i]; inRange(st.CreatedAt, start, end) {
			p.add(st.Sentiment)
		}
	}
	return p
}

func (tr *oracleTracker) PopularLinksIn(start, end time.Time, k int) []links.URLCount {
	c := links.NewCounter()
	for i := range tr.tweets {
		if inRange(tr.tweets[i].CreatedAt, start, end) {
			c.AddTweet(tr.tweets[i].Text)
		}
	}
	return c.Top(k)
}

func (tr *oracleTracker) MapPins(start, end time.Time, max int) []Pin {
	var out []Pin
	for i := range tr.tweets {
		st := &tr.tweets[i]
		if !st.HasGeo || !inRange(st.CreatedAt, start, end) {
			continue
		}
		out = append(out, Pin{Lat: st.Lat, Lon: st.Lon, Sentiment: st.Sentiment, TweetID: st.ID, Text: st.Text})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

func (tr *oracleTracker) RegionSentiment(start, end time.Time) map[string]Pie {
	out := make(map[string]Pie)
	for i := range tr.tweets {
		st := &tr.tweets[i]
		if !st.HasGeo || !inRange(st.CreatedAt, start, end) {
			continue
		}
		city := gazetteer.Nearest(st.Lat, st.Lon).Name
		p := out[city]
		p.add(st.Sentiment)
		out[city] = p
	}
	return out
}

func (tr *oracleTracker) Dashboard(opts DashboardOptions) Dashboard {
	opts = opts.withDefaults()
	return Dashboard{
		Event:    tr.cfg.Name,
		Keywords: tr.cfg.Keywords,
		Ingested: tr.ingested,
		Timeline: tr.detector.Bins(),
		Peaks:    tr.Peaks(opts.TermsPerPeak),
		Relevant: tr.RelevantTweets(time.Time{}, time.Time{}, tr.cfg.Keywords, opts.RelevantTweets),
		Pins:     tr.MapPins(time.Time{}, time.Time{}, opts.MaxPins),
		Links:    tr.links.Top(opts.TopLinks),
		Pie:      tr.Sentiment(),
	}
}

func (tr *oracleTracker) PeakDashboard(peakID int, opts DashboardOptions) (Dashboard, error) {
	opts = opts.withDefaults()
	labeled := tr.Peaks(opts.TermsPerPeak)
	var sel *LabeledPeak
	for i := range labeled {
		if labeled[i].ID == peakID {
			sel = &labeled[i]
			break
		}
	}
	if sel == nil {
		return Dashboard{}, fmt.Errorf("twitinfo: no peak with id %d", peakID)
	}
	kws := append([]string{}, tr.cfg.Keywords...)
	for _, st := range sel.Terms {
		kws = append(kws, st.Term)
	}
	return Dashboard{
		Event:    tr.cfg.Name,
		Keywords: tr.cfg.Keywords,
		Ingested: tr.ingested,
		Timeline: tr.detector.Bins(),
		Peaks:    labeled,
		Relevant: tr.RelevantTweets(sel.Start, sel.End, kws, opts.RelevantTweets),
		Pins:     tr.MapPins(sel.Start, sel.End, opts.MaxPins),
		Links:    tr.PopularLinksIn(sel.Start, sel.End, opts.TopLinks),
		Pie:      tr.SentimentIn(sel.Start, sel.End),
		Selected: &Selection{PeakID: sel.ID, Flag: sel.Flag(), Start: sel.Start, End: sel.End},
	}, nil
}

// oracleCorpus is the text-based document-frequency table the interning
// terms.Corpus replaced.
type oracleCorpus struct {
	docFreq map[string]int
	docs    int
}

func (c *oracleCorpus) AddDoc(text string) {
	c.docs++
	for term := range tweet.TermSet(text) {
		c.docFreq[term]++
	}
}

func (c *oracleCorpus) IDF(term string) float64 {
	return math.Log(float64(c.docs+1) / float64(c.docFreq[term]+1))
}

func (c *oracleCorpus) TopTerms(peakTexts []string, k int, excluded []string) []terms.ScoredTerm {
	skip := make(map[string]bool, len(excluded))
	for _, x := range excluded {
		skip[strings.ToLower(x)] = true
	}
	counts := make(map[string]int)
	for _, text := range peakTexts {
		for term := range tweet.TermSet(text) {
			if skip[term] {
				continue
			}
			counts[term]++
		}
	}
	scored := make([]terms.ScoredTerm, 0, len(counts))
	for term, n := range counts {
		tf := float64(n) / float64(len(peakTexts)+1)
		scored = append(scored, terms.ScoredTerm{Term: term, Score: tf * c.IDF(term), Count: n})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].Term < scored[j].Term
	})
	if k < len(scored) {
		scored = scored[:k]
	}
	return scored
}

func oracleSimilarity(text string, keywords []string) float64 {
	set := tweet.TermSet(text)
	if len(set) == 0 || len(keywords) == 0 {
		return 0
	}
	kw := make(map[string]bool, len(keywords))
	for _, k := range keywords {
		kw[strings.ToLower(k)] = true
	}
	overlap := 0
	for term := range set {
		if kw[term] {
			overlap++
		}
	}
	return float64(overlap) / (math.Sqrt(float64(len(set))) * math.Sqrt(float64(len(kw))))
}
