package eddy

import (
	"testing"
)

// filtersFor builds three integer filters with known selectivities:
// passEven (50%), passSmall (pass < limit), passAll (100%).
func filtersFor(limit int) []Filter[int] {
	return []Filter[int]{
		{Name: "even", Pred: func(x int) bool { return x%2 == 0 }, Cost: 1},
		{Name: "small", Pred: func(x int) bool { return x < limit }, Cost: 1},
		{Name: "all", Pred: func(x int) bool { return true }, Cost: 1},
	}
}

func TestCorrectness(t *testing.T) {
	// The eddy must accept exactly the tuples the conjunction accepts,
	// regardless of routing order.
	e := New(filtersFor(100), WithSeed[int](7))
	s := NewStatic(filtersFor(100))
	for x := 0; x < 1000; x++ {
		if e.Process(x) != s.Process(x) {
			t.Fatalf("eddy and static disagree on %d", x)
		}
	}
}

func TestAdaptsToSelectiveFilter(t *testing.T) {
	// "small" drops 99% of tuples; after warm-up the eddy should apply it
	// first most of the time, so its Applied count dominates.
	e := New(filtersFor(10), WithSeed[int](1))
	for x := 0; x < 5000; x++ {
		e.Process(x % 1000)
	}
	stats := e.Stats()
	var small, all Stats
	for _, s := range stats {
		switch s.Name {
		case "small":
			small = s
		case "all":
			all = s
		}
	}
	if small.Applied <= all.Applied {
		t.Errorf("selective filter applied %d <= pass-all %d", small.Applied, all.Applied)
	}
	if got := e.Order()[0]; got != "small" {
		t.Errorf("effective order starts with %q, want small", got)
	}
	// Selectivity estimate should be near truth (1% pass).
	if sel := small.Selectivity(); sel > 0.05 {
		t.Errorf("small selectivity = %v", sel)
	}
}

func TestBeatsStaticUnderDrift(t *testing.T) {
	// Phase 1: pred A selective, B not. Phase 2: inverted. A static chain
	// ordered optimally for phase 1 pays for every B evaluation in phase
	// 2; the eddy re-learns. This is E9's claim in miniature.
	phase := 0
	mk := func() []Filter[int] {
		return []Filter[int]{
			{Name: "A", Pred: func(x int) bool {
				if phase == 0 {
					return x%100 == 0 // selective in phase 1
				}
				return true // pass-all in phase 2
			}, Cost: 1},
			{Name: "B", Pred: func(x int) bool {
				if phase == 0 {
					return true
				}
				return x%100 == 0
			}, Cost: 1},
		}
	}
	const n = 20000
	run := func(p func(int) bool) int64 {
		phase = 0
		for x := 0; x < n; x++ {
			if x == n/2 {
				phase = 1
			}
			p(x)
		}
		return 0
	}
	e := New(mk(), WithSeed[int](3), WithDecay[int](128, 0.5))
	run(e.Process)
	eddyEvals := e.Evaluations()

	s := NewStatic(mk()) // static order A,B: optimal for phase 1 only
	run(s.Process)
	staticEvals := s.Evaluations()

	if float64(eddyEvals) > 0.95*float64(staticEvals) {
		t.Errorf("eddy evals %d not better than static %d under drift", eddyEvals, staticEvals)
	}
}

func TestStatsSelectivityEmpty(t *testing.T) {
	if (Stats{}).Selectivity() != 1 {
		t.Error("unused filter selectivity should be 1")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() int64 {
		e := New(filtersFor(50), WithSeed[int](42))
		for x := 0; x < 2000; x++ {
			e.Process(x % 200)
		}
		return e.Evaluations()
	}
	if run() != run() {
		t.Error("same seed produced different evaluation counts")
	}
}

func TestCostNormalization(t *testing.T) {
	// Two equally selective filters, one 10x more expensive: the cheap
	// one should accumulate more tickets and sit first in the order.
	filters := []Filter[int]{
		{Name: "cheap", Pred: func(x int) bool { return x%10 == 0 }, Cost: 1},
		{Name: "pricey", Pred: func(x int) bool { return x%10 == 0 }, Cost: 10},
	}
	e := New(filters, WithSeed[int](5))
	for x := 0; x < 5000; x++ {
		e.Process(x)
	}
	if got := e.Order()[0]; got != "cheap" {
		t.Errorf("order[0] = %q, want cheap", got)
	}
}

func TestSingleFilter(t *testing.T) {
	e := New([]Filter[int]{{Name: "only", Pred: func(x int) bool { return x > 0 }, Cost: 1}})
	if !e.Process(1) || e.Process(-1) {
		t.Error("single-filter eddy wrong")
	}
}
