// Package firehose generates the synthetic tweet stream that stands in
// for Twitter's firehose. Everything the paper's evaluation needs from
// real tweets is distributional — bursts around events, uneven geography,
// skewed user activity, polarity-bearing text, link sharing — so the
// generator controls those distributions explicitly and records ground
// truth (polarity, topic, source burst) with every tweet. Experiments
// then score TweeQL/TwitInfo output against truth exactly.
//
// Generation is fully deterministic for a given Config (seeded PRNG,
// virtual clock), so tests and benchmarks are reproducible.
package firehose

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"tweeql/internal/gazetteer"
	"tweeql/internal/sentiment"
	"tweeql/internal/tweet"
)

// LabeledTweet pairs a tweet with the generator's ground truth.
type LabeledTweet struct {
	Tweet *tweet.Tweet
	// Polarity is the true sentiment planted in the text (Neutral when no
	// polarity word was planted).
	Polarity sentiment.Label
	// Topic names the background topic or event that produced the tweet.
	Topic string
	// Burst is the marker of the scripted burst that produced the tweet,
	// "" for steady traffic.
	Burst string
}

// Topic is a background subject with its own vocabulary.
type Topic struct {
	Name   string
	Words  []string
	Weight float64
}

// Burst is a scripted spike in event traffic — a goal, an earthquake, a
// speech. Marker terms are planted in most burst tweets so peak-labeling
// experiments have ground truth.
type Burst struct {
	// Label identifies the burst in ground truth ("goal-1").
	Label string
	// Offset and Duration place the burst relative to stream start.
	Offset   time.Duration
	Duration time.Duration
	// Rate is the extra tweets/sec while the burst is active.
	Rate float64
	// MarkerTerms are planted in ~80% of burst tweets ("3-0", "tevez").
	MarkerTerms []string
	// PosBias is the fraction of sentiment-bearing burst tweets that are
	// positive (0.5 when unset via NaN; use NewBurst for defaults).
	PosBias float64
	// SentimentProb is the fraction of burst tweets carrying polarity.
	SentimentProb float64
	// Cities optionally restricts burst authors to fans in these cities
	// (E7's regional-sentiment experiment); empty means world-wide.
	Cities []string
}

// EventScript is a tracked happening: steady keyword chatter plus bursts.
type EventScript struct {
	Name string
	// Keywords appear in every event tweet, as a TwitInfo keyword query
	// would require ("soccer, manchester, liverpool...").
	Keywords []string
	// BaseRate is the steady tweets/sec about the event outside bursts.
	BaseRate float64
	// Bursts are the scripted spikes.
	Bursts []Burst
	// URLs is the pool of links event tweets share, most-popular first
	// (sampling is Zipf over this order).
	URLs []string
	// URLProb is the fraction of event tweets sharing a link.
	URLProb float64
}

// Config drives generation.
type Config struct {
	Seed     int64
	Start    time.Time
	Duration time.Duration
	// BaseRate is background tweets/sec (all topics combined).
	BaseRate float64
	// Users is the synthetic user population size.
	Users int
	// GeoTagProb is the fraction of tweets with device GPS.
	GeoTagProb float64
	// JunkLocationProb is the fraction of users whose profile location is
	// un-geocodable junk.
	JunkLocationProb float64
	// SentimentProb is the fraction of background tweets with polarity.
	SentimentProb float64
	// PosFraction is the positive share among polarity background tweets.
	PosFraction float64
	// URLProb is the fraction of background tweets sharing a link.
	URLProb float64
	// RetweetProb is the fraction of tweets that are retweets.
	RetweetProb float64
	// Topics is the background topic mixture; defaults provided if empty.
	Topics []Topic
	// Events are the scripted happenings.
	Events []EventScript
}

// withDefaults fills zero fields with sensible demo-scale values.
func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2011, 6, 12, 12, 0, 0, 0, time.UTC) // SIGMOD'11 week
	}
	if c.Duration == 0 {
		c.Duration = time.Hour
	}
	if c.BaseRate == 0 {
		c.BaseRate = 20
	}
	if c.Users == 0 {
		c.Users = 5000
	}
	if c.GeoTagProb == 0 {
		c.GeoTagProb = 0.15
	}
	if c.JunkLocationProb == 0 {
		c.JunkLocationProb = 0.2
	}
	if c.SentimentProb == 0 {
		c.SentimentProb = 0.35
	}
	if c.PosFraction == 0 {
		c.PosFraction = 0.5
	}
	if c.URLProb == 0 {
		c.URLProb = 0.12
	}
	if c.RetweetProb == 0 {
		c.RetweetProb = 0.2
	}
	if len(c.Topics) == 0 {
		c.Topics = DefaultTopics()
	}
	return c
}

// DefaultTopics returns the stock background topic mixture.
func DefaultTopics() []Topic {
	return []Topic{
		{"music", []string{"album", "concert", "song", "band", "playlist", "tour", "lyrics"}, 3},
		{"food", []string{"coffee", "lunch", "pizza", "dinner", "recipe", "restaurant", "brunch"}, 3},
		{"tech", []string{"phone", "app", "laptop", "startup", "internet", "gadget", "update"}, 2},
		{"tv", []string{"episode", "season", "finale", "show", "series", "premiere"}, 2},
		{"weather", []string{"rain", "sunny", "snow", "forecast", "storm", "heatwave"}, 1},
		{"commute", []string{"traffic", "train", "delay", "bus", "subway", "airport"}, 1},
	}
}

// user is one synthetic account.
type user struct {
	id        int64
	name      string
	city      gazetteer.City
	location  string // profile free-text
	followers int
	junkLoc   bool
}

// Generator produces deterministic labeled tweet streams.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	users  []user
	nextID int64

	topicWeightSum float64
	// Strings and pools every tweet of a kind shares, built once:
	// topicURLs[ti][n] is topic ti's n-th short link, eventTopics[ei]
	// event ei's ground-truth topic, cityPools[ei][bi] the users a
	// city-restricted burst draws its authors from (nil: anyone).
	topicURLs   [][5]string
	eventTopics []string
	cityPools   [][][]int

	// mu guards rng/nextID and memoizes the generated stream: the PRNG
	// state advances as tweets are drawn, so without memoization a
	// second Generate call would produce a different stream and two
	// goroutines sharing a Generator would race on the PRNG.
	mu        sync.Mutex
	generated []*LabeledTweet
}

// New builds a generator for the config.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		nextID: 1,
	}
	byCity := g.makeUsers()
	g.topicURLs = make([][5]string, len(cfg.Topics))
	for ti, t := range cfg.Topics {
		g.topicWeightSum += t.Weight
		for n := range g.topicURLs[ti] {
			g.topicURLs[ti][n] = "http://short.ly/" + t.Name + strconv.Itoa(n)
		}
	}
	for _, ev := range cfg.Events {
		g.eventTopics = append(g.eventTopics, "event:"+ev.Name)
		pools := make([][]int, len(ev.Bursts))
		for bi, b := range ev.Bursts {
			for _, c := range b.Cities {
				pools[bi] = append(pools[bi], byCity[c]...)
			}
		}
		g.cityPools = append(g.cityPools, pools)
	}
	return g
}

var junkLocations = []string{
	"earth", "everywhere", "the moon", "in my head", "worldwide",
	"somewhere over the rainbow", "ur mom's house", "127.0.0.1", "",
}

// makeUsers draws the user population and returns, for burst city
// bias, each city's users (city name → user indices).
func (g *Generator) makeUsers() map[string][]int {
	byCity := make(map[string][]int)
	zipf := rand.NewZipf(g.rng, 1.3, 1, 1_000_000)
	g.users = make([]user, g.cfg.Users)
	for i := range g.users {
		city := gazetteer.SampleWeighted(g.rng.Float64())
		u := user{
			id:        int64(i + 1),
			name:      fmt.Sprintf("user%d", i+1),
			city:      city,
			followers: int(zipf.Uint64()) + 1,
		}
		if g.rng.Float64() < g.cfg.JunkLocationProb {
			u.junkLoc = true
			u.location = junkLocations[g.rng.Intn(len(junkLocations))]
		} else {
			aliases := city.Aliases
			u.location = aliases[g.rng.Intn(len(aliases))]
		}
		g.users[i] = u
		byCity[city.Name] = append(byCity[city.Name], i)
	}
	return byCity
}

// poisson draws from Poisson(lambda) via Knuth's method with splitting
// for large lambda (keeps the product in float range).
func (g *Generator) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	n := 0
	for lambda > 30 {
		// Poisson(a+b) = Poisson(a) + Poisson(b)
		n += g.poisson(30)
		lambda -= 30
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			break
		}
		k++
	}
	return n + k
}

// Generate materializes the whole stream, ordered by timestamp. The
// stream is generated once and memoized: repeated calls — including
// concurrent ones, e.g. from parallel tests sharing a fixture — all
// observe the identical stream for a given Config. Callers must not
// mutate the returned slice.
func (g *Generator) Generate() []*LabeledTweet {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.generated == nil {
		g.generated = g.generate()
	}
	return g.generated
}

func (g *Generator) generate() []*LabeledTweet {
	seconds := int(g.cfg.Duration / time.Second)
	// Size the stream once from the configured rates (Poisson totals
	// this large stray well under the 1% headroom).
	expect := float64(seconds) * g.cfg.BaseRate
	for _, ev := range g.cfg.Events {
		expect += float64(seconds) * ev.BaseRate
		for _, b := range ev.Bursts {
			expect += b.Duration.Seconds() * b.Rate
		}
	}
	out := make([]*LabeledTweet, 0, int(expect*1.01)+1024)
	a := &arena{}
	for s := 0; s < seconds; s++ {
		first := len(out)
		secStart := g.cfg.Start.Add(time.Duration(s) * time.Second)
		// Background chatter.
		for i, n := 0, g.poisson(g.cfg.BaseRate); i < n; i++ {
			out = append(out, g.backgroundTweet(a, secStart))
		}
		// Event chatter and bursts.
		for ei := range g.cfg.Events {
			ev := &g.cfg.Events[ei]
			for i, n := 0, g.poisson(ev.BaseRate); i < n; i++ {
				out = append(out, g.eventTweet(a, secStart, ei, -1))
			}
			for bi := range ev.Bursts {
				b := &ev.Bursts[bi]
				off := time.Duration(s) * time.Second
				if off >= b.Offset && off < b.Offset+b.Duration {
					for i, n := 0, g.poisson(b.Rate); i < n; i++ {
						out = append(out, g.eventTweet(a, secStart, ei, bi))
					}
				}
			}
		}
		// A tweet's jitter keeps it inside its own second, so ordering
		// each second's tweets as they are produced orders the stream,
		// ties staying in generation order.
		slices.SortStableFunc(out[first:], func(x, y *LabeledTweet) int {
			return x.Tweet.CreatedAt.Compare(y.Tweet.CreatedAt)
		})
	}
	return out
}

// arena hands out the stream's tweets and their text from slabs — one
// allocation per slabTweets tweets rather than three per tweet. The
// whole stream is memoized, so slabs live exactly as long as single
// tweets would.
type arena struct {
	labeled []LabeledTweet
	tweets  []tweet.Tweet
	text    strings.Builder
	words   []string // the tweet being assembled; words[0] is kept for "RT"
}

const (
	slabTweets    = 1024
	slabTextBytes = 64 << 10
)

// next returns a zeroed tweet to fill in.
func (a *arena) next() *LabeledTweet {
	if len(a.labeled) == 0 {
		a.labeled = make([]LabeledTweet, slabTweets)
		a.tweets = make([]tweet.Tweet, slabTweets)
	}
	lt := &a.labeled[0]
	lt.Tweet = &a.tweets[0]
	a.labeled, a.tweets = a.labeled[1:], a.tweets[1:]
	return lt
}

// join is strings.Join(words, " ") into the current text slab.
func (a *arena) join(words []string) string {
	need := len(words)
	for _, w := range words {
		need += len(w)
	}
	if a.text.Cap()-a.text.Len() < need {
		// Strings already handed out keep the old slab alive.
		a.text = strings.Builder{}
		a.text.Grow(max(slabTextBytes, need))
	}
	start := a.text.Len()
	for i, w := range words {
		if i > 0 {
			a.text.WriteByte(' ')
		}
		a.text.WriteString(w)
	}
	return a.text.String()[start:]
}

// Stream replays a generated stream on a channel. speedup scales virtual
// time (0 or negative means "as fast as possible"). The channel closes
// when the stream ends or ctx is cancelled.
func (g *Generator) Stream(ctx context.Context, speedup float64) <-chan *LabeledTweet {
	all := g.Generate()
	ch := make(chan *LabeledTweet, 256)
	go func() {
		defer close(ch)
		start := time.Now()
		for _, lt := range all {
			if speedup > 0 {
				virtual := lt.Tweet.CreatedAt.Sub(g.cfg.Start)
				due := start.Add(time.Duration(float64(virtual) / speedup))
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
			}
			select {
			case ch <- lt:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// StreamBatches replays the generated stream as pre-batched chunks of
// up to size tweets — the source-side half of the engine's batched
// pipeline (one channel transfer per chunk instead of per tweet).
// speedup scales virtual time exactly as in Stream; whenever the
// virtual clock would idle waiting for the next tweet, the pending
// partial batch is flushed first, so batching adds no delivery latency
// on a paced replay. The channel closes when the stream ends or ctx is
// cancelled.
func (g *Generator) StreamBatches(ctx context.Context, speedup float64, size int) <-chan []*LabeledTweet {
	if size < 1 {
		size = 1
	}
	all := g.Generate()
	ch := make(chan []*LabeledTweet, 4)
	go func() {
		defer close(ch)
		start := time.Now()
		batch := make([]*LabeledTweet, 0, size)
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			select {
			case ch <- batch:
			case <-ctx.Done():
				return false
			}
			batch = make([]*LabeledTweet, 0, size)
			return true
		}
		for _, lt := range all {
			if speedup > 0 {
				virtual := lt.Tweet.CreatedAt.Sub(g.cfg.Start)
				due := start.Add(time.Duration(float64(virtual) / speedup))
				if d := time.Until(due); d > 0 {
					if !flush() {
						return
					}
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
			}
			batch = append(batch, lt)
			if len(batch) >= size {
				if !flush() {
					return
				}
			}
		}
		flush()
	}()
	return ch
}

// pickUser draws a tweet's author: from pool when it has anyone (a
// burst restricted to fans in some cities), else from everyone.
func (g *Generator) pickUser(pool []int) *user {
	if len(pool) > 0 {
		return &g.users[pool[g.rng.Intn(len(pool))]]
	}
	return &g.users[g.rng.Intn(len(g.users))]
}

// pickTopic draws a background topic's index by weight.
func (g *Generator) pickTopic() int {
	target := g.rng.Float64() * g.topicWeightSum
	var acc float64
	for i := range g.cfg.Topics {
		acc += g.cfg.Topics[i].Weight
		if target < acc {
			return i
		}
	}
	return len(g.cfg.Topics) - 1
}

var fillers = []string{
	"just saw", "thinking about", "can't stop talking about", "so much",
	"all day", "right now", "again", "this morning", "tonight", "honestly",
}

// buildTweet fills in lt's tweet for the user at ts. words[0] is the
// slot kept for the retweet mark; the text is words[1:] behind "RT"
// when the retweet draw, which comes after the words', says so.
func (g *Generator) buildTweet(a *arena, lt *LabeledTweet, ts time.Time, u *user, words []string) {
	retweet := g.rng.Float64() < g.cfg.RetweetProb
	if retweet {
		words[0] = "RT"
	} else {
		words = words[1:]
	}
	jitter := time.Duration(g.rng.Int63n(int64(time.Second)))
	t := lt.Tweet
	t.ID = g.nextID
	t.UserID = u.id
	t.Username = u.name
	t.Text = a.join(words)
	t.CreatedAt = ts.Add(jitter)
	t.Location = u.location
	t.Followers = u.followers
	t.Retweet = retweet
	g.nextID++
	if g.rng.Float64() < g.cfg.GeoTagProb && !u.junkLoc {
		t.HasGeo = true
		t.Lat = u.city.Lat + g.rng.NormFloat64()*0.05
		t.Lon = u.city.Lon + g.rng.NormFloat64()*0.05
	}
}

// sentimentWord returns a polarity word and its label given the positive
// bias, or ("", Neutral) with probability 1-prob.
func (g *Generator) sentimentWord(prob, posBias float64) (string, sentiment.Label) {
	if g.rng.Float64() >= prob {
		return "", sentiment.Neutral
	}
	if g.rng.Float64() < posBias {
		return sentiment.PositiveWords[g.rng.Intn(len(sentiment.PositiveWords))], sentiment.Positive
	}
	return sentiment.NegativeWords[g.rng.Intn(len(sentiment.NegativeWords))], sentiment.Negative
}

func (g *Generator) backgroundTweet(a *arena, ts time.Time) *LabeledTweet {
	u := g.pickUser(nil)
	ti := g.pickTopic()
	topic := &g.cfg.Topics[ti]
	words := append(a.words[:0], "",
		fillers[g.rng.Intn(len(fillers))],
		topic.Words[g.rng.Intn(len(topic.Words))],
	)
	if g.rng.Float64() < 0.5 {
		words = append(words, topic.Words[g.rng.Intn(len(topic.Words))])
	}
	sw, pol := g.sentimentWord(g.cfg.SentimentProb, g.cfg.PosFraction)
	if sw != "" {
		words = append(words, sw)
	}
	if g.rng.Float64() < g.cfg.URLProb {
		words = append(words, g.topicURLs[ti][g.rng.Intn(5)])
	}
	a.words = words
	lt := a.next()
	lt.Polarity, lt.Topic = pol, topic.Name
	g.buildTweet(a, lt, ts, u, words)
	return lt
}

// eventTweet draws one tweet about event ei: steady chatter when bi is
// negative, else a tweet of the event's burst bi.
func (g *Generator) eventTweet(a *arena, ts time.Time, ei, bi int) *LabeledTweet {
	ev := &g.cfg.Events[ei]
	var b *Burst
	var pool []int
	sentProb, posBias := g.cfg.SentimentProb, g.cfg.PosFraction
	if bi >= 0 {
		b, pool = &ev.Bursts[bi], g.cityPools[ei][bi]
		if b.SentimentProb > 0 {
			sentProb = b.SentimentProb
		}
		posBias = b.PosBias
	}
	u := g.pickUser(pool)

	// Every event tweet names at least one tracked keyword so a TwitInfo
	// keyword query catches it.
	words := append(a.words[:0], "", ev.Keywords[g.rng.Intn(len(ev.Keywords))])
	if len(ev.Keywords) > 1 && g.rng.Float64() < 0.4 {
		words = append(words, ev.Keywords[g.rng.Intn(len(ev.Keywords))])
	}
	words = append(words, fillers[g.rng.Intn(len(fillers))])

	label := ""
	if b != nil {
		label = b.Label
		// Plant marker terms in ~80% of burst tweets.
		if len(b.MarkerTerms) > 0 && g.rng.Float64() < 0.8 {
			words = append(words, b.MarkerTerms[g.rng.Intn(len(b.MarkerTerms))])
			if len(b.MarkerTerms) > 1 && g.rng.Float64() < 0.4 {
				words = append(words, b.MarkerTerms[g.rng.Intn(len(b.MarkerTerms))])
			}
		}
	}
	sw, pol := g.sentimentWord(sentProb, posBias)
	if sw != "" {
		words = append(words, sw)
	}
	if len(ev.URLs) > 0 && g.rng.Float64() < ev.URLProb {
		// Zipf-ish rank sampling over the URL pool: heavy head, long tail.
		rank := int(math.Floor(float64(len(ev.URLs)) * math.Pow(g.rng.Float64(), 2)))
		if rank >= len(ev.URLs) {
			rank = len(ev.URLs) - 1
		}
		words = append(words, ev.URLs[rank])
	}
	a.words = words
	lt := a.next()
	lt.Polarity, lt.Topic, lt.Burst = pol, g.eventTopics[ei], label
	g.buildTweet(a, lt, ts, u, words)
	return lt
}

// Tweets strips labels, for callers that only need the raw stream.
func Tweets(lts []*LabeledTweet) []*tweet.Tweet {
	out := make([]*tweet.Tweet, len(lts))
	for i, lt := range lts {
		out[i] = lt.Tweet
	}
	return out
}
