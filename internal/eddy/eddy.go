// Package eddy implements Eddies-style adaptive operator reordering for
// conjunctive filters (§2: "We are also exploring Eddies-style dynamic
// operator reordering to adjust to changes in operator selectivity over
// time", citing Avnur & Hellerstein, SIGMOD 2000).
//
// Each tuple is routed through the not-yet-applied filters by lottery
// scheduling: a filter holds tickets proportional to how often it has
// dropped tuples recently, so selective filters migrate to the front of
// the effective order. Ticket counts decay, so when stream selectivities
// drift mid-stream (a keyword goes viral, a region wakes up) the order
// adapts within a few hundred tuples.
//
// The package is an experiment fixture: experiment E9 and
// BenchmarkE9EddyAdaptation measure it against a static order. Queries
// do not use it; their filters evaluate conjuncts in query order.
package eddy

import (
	"math/rand"
	"sort"
)

// Filter is one conjunct: a named predicate with a relative evaluation
// cost (1 = cheap string test; a web-service call would be much higher).
type Filter[T any] struct {
	Name string
	Pred func(T) bool
	Cost float64
}

// Stats reports per-filter accounting.
type Stats struct {
	Name string
	// Applied counts predicate evaluations.
	Applied int64
	// Dropped counts tuples this filter rejected.
	Dropped int64
	// Tickets is the current lottery balance.
	Tickets float64
}

// Selectivity is the observed pass rate (1 - drop rate); 1 when unused.
func (s Stats) Selectivity() float64 {
	if s.Applied == 0 {
		return 1
	}
	return 1 - float64(s.Dropped)/float64(s.Applied)
}

// Eddy routes tuples through filters adaptively. Not safe for concurrent
// use; the owning operator is single-goroutine.
type Eddy[T any] struct {
	filters []Filter[T]
	tickets []float64
	applied []int64
	dropped []int64
	rng     *rand.Rand

	// decayEvery and decayFactor implement the sliding reward window.
	decayEvery  int64
	decayFactor float64
	processed   int64

	// scratch holds per-tuple "already applied" flags, reused across
	// tuples to avoid allocation.
	scratch []bool

	evals int64
}

// Option tunes an Eddy.
type Option[T any] func(*Eddy[T])

// WithSeed fixes the lottery PRNG for reproducible runs.
func WithSeed[T any](seed int64) Option[T] {
	return func(e *Eddy[T]) { e.rng = rand.New(rand.NewSource(seed)) }
}

// WithDecay overrides the ticket decay cadence (every n tuples, multiply
// tickets by factor). Decay is what lets the order adapt to drift.
func WithDecay[T any](every int64, factor float64) Option[T] {
	return func(e *Eddy[T]) { e.decayEvery, e.decayFactor = every, factor }
}

// New builds an eddy over the filters.
func New[T any](filters []Filter[T], opts ...Option[T]) *Eddy[T] {
	e := &Eddy[T]{
		filters:     filters,
		tickets:     make([]float64, len(filters)),
		applied:     make([]int64, len(filters)),
		dropped:     make([]int64, len(filters)),
		scratch:     make([]bool, len(filters)),
		rng:         rand.New(rand.NewSource(1)),
		decayEvery:  256,
		decayFactor: 0.5,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Process routes one tuple through all filters; it returns true when the
// tuple survives every conjunct. Evaluation stops at the first drop.
func (e *Eddy[T]) Process(t T) bool {
	e.processed++
	if e.decayEvery > 0 && e.processed%e.decayEvery == 0 {
		for i := range e.tickets {
			e.tickets[i] *= e.decayFactor
		}
	}
	for i := range e.scratch {
		e.scratch[i] = false
	}
	for remaining := len(e.filters); remaining > 0; remaining-- {
		idx := e.lottery()
		e.scratch[idx] = true
		e.applied[idx]++
		e.evals++
		if !e.filters[idx].Pred(t) {
			e.dropped[idx]++
			// Reward: dropping early is exactly what we want more of.
			// Cost-normalize so an expensive filter must drop more to
			// earn the front slot.
			e.tickets[idx] += 1 / e.filters[idx].Cost
			return false
		}
	}
	return true
}

// lottery picks an un-applied filter with probability proportional to
// tickets+1 (the +1 keeps unlucky filters explorable).
func (e *Eddy[T]) lottery() int {
	var total float64
	for i, used := range e.scratch {
		if !used {
			total += e.tickets[i] + 1
		}
	}
	target := e.rng.Float64() * total
	var acc float64
	last := -1
	for i, used := range e.scratch {
		if used {
			continue
		}
		last = i
		acc += e.tickets[i] + 1
		if target < acc {
			return i
		}
	}
	return last
}

// Evaluations reports the total number of predicate evaluations, the
// cost metric experiment E9 compares against a static order.
func (e *Eddy[T]) Evaluations() int64 { return e.evals }

// Stats returns per-filter accounting in declaration order.
func (e *Eddy[T]) Stats() []Stats {
	out := make([]Stats, len(e.filters))
	for i, f := range e.filters {
		out[i] = Stats{Name: f.Name, Applied: e.applied[i], Dropped: e.dropped[i], Tickets: e.tickets[i]}
	}
	return out
}

// Order returns filter names sorted by current ticket balance, the
// eddy's effective filter order right now.
func (e *Eddy[T]) Order() []string {
	idx := make([]int, len(e.filters))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return e.tickets[idx[a]] > e.tickets[idx[b]] })
	names := make([]string, len(idx))
	for i, j := range idx {
		names[i] = e.filters[j].Name
	}
	return names
}

// StaticChain applies filters in fixed order, with the same evaluation
// accounting as Eddy — the baseline for E9.
type StaticChain[T any] struct {
	filters []Filter[T]
	evals   int64
}

// NewStatic builds a fixed-order chain.
func NewStatic[T any](filters []Filter[T]) *StaticChain[T] {
	return &StaticChain[T]{filters: filters}
}

// Process applies the conjuncts in order, stopping at the first drop.
func (c *StaticChain[T]) Process(t T) bool {
	for i := range c.filters {
		c.evals++
		if !c.filters[i].Pred(t) {
			return false
		}
	}
	return true
}

// Evaluations reports total predicate evaluations.
func (c *StaticChain[T]) Evaluations() int64 { return c.evals }
