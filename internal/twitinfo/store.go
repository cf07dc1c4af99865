package twitinfo

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"tweeql/internal/sentiment"
	"tweeql/internal/tweet"
)

// Store manages the set of tracked events for a TwitInfo deployment.
// Its lock guards only the set: ingestion happens from stream
// goroutines while the web dashboard reads concurrently, and each
// Tracker synchronizes its own state.
type Store struct {
	analyzer *sentiment.Analyzer

	mu       sync.RWMutex
	trackers map[string]*Tracker
	order    []*Tracker // creation order; append-only
}

// NewStore creates an empty event store.
func NewStore(analyzer *sentiment.Analyzer) *Store {
	if analyzer == nil {
		analyzer = sentiment.Default()
	}
	return &Store{analyzer: analyzer, trackers: make(map[string]*Tracker)}
}

// Create registers a new event (§3.1: "TwitInfo saves the event and
// begins logging tweets matching the query"). Names must be unique.
func (s *Store) Create(cfg EventConfig) (*Tracker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("twitinfo: event name required")
	}
	// Keyword events need a query to track; metric-tracked (ops) events
	// follow a $sys.metrics series instead.
	if len(cfg.Keywords) == 0 && cfg.Metric == "" {
		return nil, fmt.Errorf("twitinfo: event needs at least one keyword")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.trackers[cfg.Name]; dup {
		return nil, fmt.Errorf("twitinfo: event %q already exists", cfg.Name)
	}
	tr := NewTracker(cfg, s.analyzer)
	s.trackers[cfg.Name] = tr
	s.order = append(s.order, tr)
	return tr, nil
}

// Get returns the named event's tracker.
func (s *Store) Get(name string) (*Tracker, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tr, ok := s.trackers[name]
	return tr, ok
}

// Names lists events in creation order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.order))
	for i, tr := range s.order {
		out[i] = tr.cfg.Name
	}
	return out
}

// Ingest offers the tweet to every event; each tracker keeps it only if
// it matches. Returns how many events accepted it.
func (s *Store) Ingest(t *tweet.Tweet) int {
	n := 0
	for _, tr := range s.all() {
		if tr.Ingest(t) {
			n++
		}
	}
	return n
}

// FinishAll flushes every tracker's timeline (end of stream).
func (s *Store) FinishAll() {
	for _, tr := range s.all() {
		tr.Finish()
	}
}

// all returns the trackers in creation order. The list is append-only,
// so the returned prefix may be walked without the lock.
func (s *Store) all() []*Tracker {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.order
}

// WithTracker runs fn with the named tracker, or fails for an unknown
// event. Each Tracker read is its own consistent snapshot (Dashboard
// builds every panel under one lock), so fn may run during live
// ingestion.
func (s *Store) WithTracker(name string, fn func(*Tracker) error) error {
	tr, ok := s.Get(name)
	if !ok {
		return fmt.Errorf("twitinfo: unknown event %q", name)
	}
	return fn(tr)
}

// Summaries returns one line per event for the index page, ordered by
// event name.
func (s *Store) Summaries() []string {
	trackers := slices.Clone(s.all())
	sort.Slice(trackers, func(i, j int) bool { return trackers[i].cfg.Name < trackers[j].cfg.Name })
	out := make([]string, 0, len(trackers))
	for _, tr := range trackers {
		out = append(out, tr.String())
	}
	return out
}
