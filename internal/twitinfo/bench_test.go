package twitinfo

import (
	"sync"
	"testing"

	"tweeql/internal/firehose"
	"tweeql/internal/tweet"
)

var benchStream = sync.OnceValue(func() []*tweet.Tweet {
	return firehose.Tweets(firehose.New(firehose.SoccerMatch(1)).Generate())
})

func benchEvent() EventConfig {
	return EventConfig{Name: "Soccer: Manchester City vs Liverpool", Keywords: firehose.SoccerKeywords}
}

// benchTracker is the soccer event fully ingested, as the dashboard
// benchmarks read it.
var benchTracker = sync.OnceValue(func() *Tracker {
	tr := NewTracker(benchEvent(), nil)
	for _, t := range benchStream() {
		tr.Ingest(t)
	}
	tr.Finish()
	return tr
})

// BenchmarkTrackerIngest is the per-tweet cost of logging a tweet the
// event matches: what StartTracking's goroutine pays per row.
func BenchmarkTrackerIngest(b *testing.B) {
	var matching []*tweet.Tweet
	probe := NewTracker(benchEvent(), nil)
	for _, t := range benchStream() {
		if probe.Matches(t) {
			matching = append(matching, t)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var tr *Tracker
	for i := 0; i < b.N; i++ {
		if i%len(matching) == 0 {
			tr = NewTracker(benchEvent(), nil)
		}
		if !tr.Ingest(matching[i%len(matching)]) {
			b.Fatal("matching tweet rejected")
		}
	}
}

// BenchmarkTrackerDashboard builds the whole-event Figure 1 payload.
func BenchmarkTrackerDashboard(b *testing.B) {
	tr := benchTracker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := tr.Dashboard(DashboardOptions{}); len(d.Peaks) == 0 {
			b.Fatal("dashboard lost its peaks")
		}
	}
}

// BenchmarkTrackerPeakDashboard builds the drill-down into the tallest
// peak: every panel filtered to that peak's window.
func BenchmarkTrackerPeakDashboard(b *testing.B) {
	tr := benchTracker()
	peaks := tr.Peaks(0)
	if len(peaks) == 0 {
		b.Fatal("no peaks")
	}
	tallest := peaks[0]
	for _, p := range peaks {
		if p.MaxCount > tallest.MaxCount {
			tallest = p
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.PeakDashboard(tallest.ID, DashboardOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
