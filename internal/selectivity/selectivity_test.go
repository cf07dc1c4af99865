package selectivity

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tweeql/internal/firehose"
	"tweeql/internal/tweet"
	"tweeql/internal/twitterapi"
)

// sampleStream builds a deterministic mixed stream: frac obama tweets,
// geoFrac NYC-geotagged tweets (the two may overlap independently).
func sampleStream(n int, kwFrac, geoFrac float64) []*tweet.Tweet {
	out := make([]*tweet.Tweet, n)
	for i := 0; i < n; i++ {
		t := &tweet.Tweet{ID: int64(i), Text: "hello world", CreatedAt: time.Unix(int64(i), 0)}
		if float64(i%1000)/1000 < kwFrac {
			t.Text = "obama speaks tonight"
		}
		if float64((i*7)%1000)/1000 < geoFrac {
			t.HasGeo = true
			t.Lat, t.Lon = 40.71, -74.0
		}
		out[i] = t
	}
	return out
}

func TestEstimateFromSample(t *testing.T) {
	sample := sampleStream(10000, 0.3, 0.05)
	kw := twitterapi.Filter{Track: []string{"obama"}}
	loc := twitterapi.Filter{Locations: []twitterapi.Box{twitterapi.NYCBox}}
	ests := EstimateFromSample(sample, []twitterapi.Filter{kw, loc})
	if got := ests[0].Selectivity(); got < 0.28 || got > 0.32 {
		t.Errorf("keyword selectivity = %v, want ≈0.3", got)
	}
	if got := ests[1].Selectivity(); got < 0.03 || got > 0.07 {
		t.Errorf("location selectivity = %v, want ≈0.05", got)
	}
	if !strings.Contains(ests[0].String(), "/10000") {
		t.Errorf("String = %q", ests[0].String())
	}
}

func TestChoosePicksLowestSelectivity(t *testing.T) {
	// The paper's example: obama keyword matches far more tweets than the
	// NYC bounding box, so the box should be pushed to the API.
	sample := sampleStream(10000, 0.3, 0.05)
	kw := twitterapi.Filter{Track: []string{"obama"}}
	loc := twitterapi.Filter{Locations: []twitterapi.Box{twitterapi.NYCBox}}
	best, ests := Choose(sample, []twitterapi.Filter{kw, loc})
	if best != 1 {
		t.Errorf("chose %d (%v), want location filter", best, ests[best])
	}
	// Inverted workload: rare keyword, dense geography.
	sample = sampleStream(10000, 0.01, 0.5)
	best, _ = Choose(sample, []twitterapi.Filter{kw, loc})
	if best != 0 {
		t.Errorf("chose %d, want keyword filter", best)
	}
}

func TestChooseTieGoesFirst(t *testing.T) {
	sample := sampleStream(1000, 0, 0)
	a := twitterapi.Filter{Track: []string{"zzz"}}
	b := twitterapi.Filter{Track: []string{"qqq"}}
	best, _ := Choose(sample, []twitterapi.Filter{a, b})
	if best != 0 {
		t.Errorf("tie broke to %d", best)
	}
}

func TestEmptySample(t *testing.T) {
	best, ests := Choose(nil, []twitterapi.Filter{{Track: []string{"a"}}})
	if best != 0 || ests[0].Selectivity() != 0 {
		t.Errorf("empty sample: best=%d est=%v", best, ests)
	}
}

func TestSampleFromHub(t *testing.T) {
	hub := twitterapi.NewHub()
	lts := firehose.New(firehose.Config{Seed: 1, Duration: 2 * time.Minute, BaseRate: 50}).Generate()
	// The stream repeats until the sample is taken and only then does the
	// hub close: SampleFromHub connects at some point during the replay,
	// and a replay that closed the hub first would refuse the connection.
	tweets := firehose.Tweets(lts)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for lo := 0; lo < len(tweets); lo += 256 {
				select {
				case <-done:
					return
				default:
				}
				hub.PublishBatch(tweets[lo:min(lo+256, len(tweets))])
			}
		}
	}()
	sample, err := SampleFromHub(hub, 0.5, 100)
	close(done)
	wg.Wait()
	hub.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) == 0 {
		t.Fatal("empty sample")
	}
	if len(sample) > 100 {
		t.Errorf("sample overshot: %d", len(sample))
	}
}

func TestSampleFromHubInvalidRate(t *testing.T) {
	hub := twitterapi.NewHub()
	if _, err := SampleFromHub(hub, 5, 10); err == nil {
		t.Error("invalid rate should error")
	}
}
