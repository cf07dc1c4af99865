// Package links implements the Popular Links panel (§3.3: "aggregates
// the top three URLs extracted from tweets in the timeframe being
// explored").
package links

import (
	"sort"

	"tweeql/internal/tweet"
)

// URLCount is one aggregated link.
type URLCount struct {
	URL   string
	Count int
}

// Counter tallies shared URLs. Single-goroutine, like the panel builder
// that owns it.
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int)}
}

// AddTweet extracts and counts every URL in the tweet text.
func (c *Counter) AddTweet(text string) {
	for _, u := range tweet.URLs(text) {
		c.counts[u]++
	}
}

// Add counts one URL directly.
func (c *Counter) Add(url string) { c.counts[url]++ }

// AddN counts n shares of one URL, for merging tallies.
func (c *Counter) AddN(url string, n int) { c.counts[url] += n }

// Distinct reports how many distinct URLs were seen.
func (c *Counter) Distinct() int { return len(c.counts) }

// Top returns the k most shared URLs, counts descending, ties broken by
// URL for determinism. TwitInfo's panel uses k=3.
func (c *Counter) Top(k int) []URLCount {
	out := make([]URLCount, 0, len(c.counts))
	for u, n := range c.counts {
		out = append(out, URLCount{URL: u, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].URL < out[j].URL
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
