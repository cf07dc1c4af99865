package twitterapi

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tweeql/internal/firehose"
	"tweeql/internal/tweet"
)

// soccerTweets is a seed-1 soccer stream of the given length.
func soccerTweets(d time.Duration) []*tweet.Tweet {
	cfg := firehose.SoccerMatch(1)
	cfg.Duration = d
	return firehose.Tweets(firehose.New(cfg).Generate())
}

// indexedConn is one connection of TestHubTrackIndexMatchesFilters: open
// while tweets [from, to) are published.
type indexedConn struct {
	filter   Filter
	from, to int
	c        *Connection
}

// TestHubTrackIndexMatchesFilters holds the hub's one-pass track index to
// the per-connection filters it replaced: track, sample, follow and
// location connections come and go while the stream is published, more
// than 64 track connections at once among them, and each must receive
// exactly the tweets of its open window that Filter.Matches selects, in
// order.
func TestHubTrackIndexMatchesFilters(t *testing.T) {
	tweets := soccerTweets(20 * time.Minute)
	tweets = append(tweets,
		mkTweet(1, "GOAL!!! #Liverpool http://t.co/AbC"),
		mkTweet(2, "the Premier League tonight Kelvin"),
		mkTweet(3, "İstanbul ##goal go\xffal"))
	n := len(tweets)

	// Track lists drawn from the stream's own words, so most match
	// something: single words in the text's case, hashtags, phrases and
	// URLs, lists sharing words, and a list with no usable word.
	var words []string
	for _, tw := range tweets[:200] {
		words = append(words, strings.Fields(tw.Text)...)
	}
	var conns []*indexedConn
	for i := 0; i < 90; i++ {
		list := []string{words[(i*7)%len(words)], words[(i*13+5)%len(words)]}
		switch i % 6 {
		case 1:
			list = append(list, "#"+words[i%len(words)])
		case 2:
			list = append(list, words[i%len(words)]+" "+words[(i+1)%len(words)])
		case 3:
			list = append(list, "http://t.co/abc", "liverpool", " ")
		case 4:
			list = []string{"  ", ""}
		}
		// Staggered windows: all 90 overlap in the middle of the stream.
		from, to := (i*n)/400, n-(i*n)/300
		if i%5 == 0 {
			to = n // open until the hub closes
		}
		conns = append(conns, &indexedConn{filter: Filter{Track: list}, from: from, to: to})
	}
	conns = append(conns,
		&indexedConn{filter: Filter{SampleRate: 0.5}, from: n / 10, to: n / 2},
		&indexedConn{filter: Filter{SampleRate: 1}, from: 0, to: n},
		&indexedConn{filter: Filter{Follow: []int64{tweets[0].UserID, tweets[n/2].UserID}}, from: n / 3, to: n},
		&indexedConn{filter: Filter{Locations: []Box{{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}}}, from: n / 4, to: 3 * n / 4})

	h := NewHub()
	open := func(ic *indexedConn) {
		c, err := h.Connect(ic.filter, WithBuffer(n+1))
		if err != nil {
			t.Fatal(err)
		}
		ic.c = c
	}
	for i := 0; i <= n; i++ {
		for _, ic := range conns {
			if ic.to == i && ic.to < n {
				ic.c.Close()
			}
			if ic.from == i {
				open(ic)
			}
		}
		if i < n {
			// Alternate the two publish paths.
			if i%2 == 0 {
				h.Publish(tweets[i])
			} else {
				h.PublishBatch(tweets[i : i+1])
			}
		}
	}
	h.Close()
	checked := 0
	for _, ic := range conns {
		var want []*tweet.Tweet
		for _, tw := range tweets[ic.from:ic.to] {
			if ic.filter.Matches(tw) {
				want = append(want, tw)
			}
		}
		got := drain(ic.c)
		if len(got) != len(want) {
			t.Fatalf("%s open over [%d, %d): %d tweets, Filter.Matches selects %d", ic.filter, ic.from, ic.to, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: tweet %d is %q, want %q", ic.filter, j, got[j].Text, want[j].Text)
			}
		}
		if st := ic.c.Stats(); st.Dropped != 0 || st.Matched != int64(len(want)) {
			t.Fatalf("%s: stats %+v, want %d matched and none dropped", ic.filter, st, len(want))
		}
		checked += len(want)
	}
	if checked == 0 {
		t.Fatal("no connection matched a tweet")
	}
}

// BenchmarkPublishTrackMix is the hub's per-tweet cost under live_drain's
// connection mix: four track connections (the keyword statements'
// pushdowns and the TwitInfo event's keywords) and the unfiltered scan's
// sample, each drained by its own consumer. One op is one tweet.
func BenchmarkPublishTrackMix(b *testing.B) {
	tweets := soccerTweets(30 * time.Minute)
	h := NewHub()
	var wg sync.WaitGroup
	for _, f := range []Filter{
		{Track: []string{"goal"}},
		{Track: []string{"liverpool", "gerrard", "penalty"}},
		{Track: []string{"liverpool"}},
		{Track: firehose.SoccerKeywords},
		{SampleRate: 1},
	} {
		c, err := h.Connect(f, WithBuffer(4096))
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range c.C() {
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		lo := i % len(tweets)
		hi := min(lo+256, len(tweets), lo+b.N-i)
		h.PublishBatch(tweets[lo:hi])
		i += hi - lo
	}
	b.StopTimer()
	h.Close()
	wg.Wait()
	if h.Published() != int64(b.N) {
		b.Fatalf("published %d of %d", h.Published(), b.N)
	}
}
