package firehose

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// streamDigest hashes every field of every tweet, in stream order.
func streamDigest(lts []*LabeledTweet) string {
	h := sha256.New()
	for _, lt := range lts {
		t := lt.Tweet
		fmt.Fprintf(h, "%d|%d|%s|%s|%d|%s|%t|%v|%v|%d|%t|%d|%s|%s\n",
			t.ID, t.UserID, t.Username, t.Text, t.CreatedAt.UnixNano(), t.Location, t.HasGeo,
			t.Lat, t.Lon, t.Followers, t.Retweet, lt.Polarity, lt.Topic, lt.Burst)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStreams pins the generated streams byte for byte: the
// digests were taken from the generator before its allocation and
// sorting were reworked, so any change to the order or number of PRNG
// draws, to the per-second stable sort, or to text assembly fails here.
// The earthquake day covers the burst Cities pool.
func TestGoldenStreams(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		tweets int
		sha    string
	}{
		{"soccer/1", SoccerMatch(1), 171356, "9f2d2c31ff1d96f015a69e00d1bd938140a6a35566832bd1618816784756e084"},
		{"soccer/2", SoccerMatch(2), 171336, "6a270cad94b123868d371bb119b2fb7c150d17955feda3658addeb8626f006eb"},
		{"soccer/3", SoccerMatch(3), 170665, "6e710b4a0703bd966c53d7e60848566340d97c0a86592e6bb981a5c372443029"},
		{"earthquakes/1", EarthquakeTimeline(1), 1155896, "d69fd38fb9d91b81c4523e0a9645971cd441ff6bdb5875524672aa273b7e5b28"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.tweets > 1_000_000 {
				t.Skip("day-long stream")
			}
			lts := New(c.cfg).Generate()
			if len(lts) != c.tweets {
				t.Fatalf("tweets = %d, want %d", len(lts), c.tweets)
			}
			if got := streamDigest(lts); got != c.sha {
				t.Fatalf("digest = %s, want %s", got, c.sha)
			}
		})
	}
}

// BenchmarkGenerate is one whole soccer-match stream — what the bench
// harness's setup_s is made of.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := len(New(SoccerMatch(1)).Generate()); n != 171356 {
			b.Fatalf("tweets = %d", n)
		}
	}
}
