package twitinfo

import (
	"fmt"
	"time"

	"tweeql/internal/links"
	"tweeql/internal/peaks"
)

// Selection describes the drill-down state: which peak (if any) the
// other panels are filtered to (§3.2: "when the user clicks on a peak,
// the other interface elements ... refresh to show only tweets in the
// time period of that peak").
type Selection struct {
	PeakID int       `json:"peak_id,omitempty"`
	Flag   string    `json:"flag,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Dashboard is the full Figure 1 payload: every panel's data for the
// event view or a peak drill-down.
type Dashboard struct {
	Event    string   `json:"event"`
	Keywords []string `json:"keywords"`
	Ingested int64    `json:"ingested"`

	Timeline []peaks.Bin      `json:"timeline"` // 1.2 (curve)
	Peaks    []LabeledPeak    `json:"peaks"`    // 1.2 (flags + key terms)
	Relevant []RankedTweet    `json:"relevant"` // 1.4
	Pins     []Pin            `json:"pins"`     // 1.3
	Links    []links.URLCount `json:"links"`    // 1.5
	Pie      Pie              `json:"pie"`      // 1.6

	Selected *Selection `json:"selected,omitempty"`
}

// DashboardOptions bound panel sizes.
type DashboardOptions struct {
	TermsPerPeak   int // default 5
	RelevantTweets int // default 10
	MaxPins        int // default 500
	TopLinks       int // default 3 (the paper's "top three URLs")
}

func (o DashboardOptions) withDefaults() DashboardOptions {
	if o.TermsPerPeak <= 0 {
		o.TermsPerPeak = 5
	}
	if o.RelevantTweets <= 0 {
		o.RelevantTweets = 10
	}
	if o.MaxPins <= 0 {
		o.MaxPins = 500
	}
	if o.TopLinks <= 0 {
		o.TopLinks = 3
	}
	return o
}

// Dashboard assembles the whole-event view.
func (tr *Tracker) Dashboard(opts DashboardOptions) Dashboard {
	opts = opts.withDefaults()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return Dashboard{
		Event:    tr.cfg.Name,
		Keywords: tr.cfg.Keywords,
		Ingested: tr.ingested,
		Timeline: tr.detector.Bins(),
		Peaks:    tr.labeledPeaks(opts.TermsPerPeak),
		Relevant: tr.relevantTweets(time.Time{}, time.Time{}, tr.cfg.Keywords, opts.RelevantTweets),
		Pins:     tr.mapPins(time.Time{}, time.Time{}, opts.MaxPins),
		Links:    tr.links.Top(opts.TopLinks),
		Pie:      tr.pie,
	}
}

// PeakDashboard assembles the drill-down view for one peak: the
// timeline stays whole, every other panel filters to the peak window,
// and relevant tweets rank against the peak's key terms.
func (tr *Tracker) PeakDashboard(peakID int, opts DashboardOptions) (Dashboard, error) {
	opts = opts.withDefaults()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	labeled := tr.labeledPeaks(opts.TermsPerPeak)
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
	// Peak keywords: event keywords plus the peak's own key terms.
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
		Relevant: tr.relevantTweets(sel.Start, sel.End, kws, opts.RelevantTweets),
		Pins:     tr.mapPins(sel.Start, sel.End, opts.MaxPins),
		Links:    tr.popularLinksIn(sel.Start, sel.End, opts.TopLinks),
		Pie:      tr.sentimentIn(sel.Start, sel.End),
		Selected: &Selection{PeakID: sel.ID, Flag: sel.Flag(), Start: sel.Start, End: sel.End},
	}, nil
}
