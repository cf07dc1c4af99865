package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registered experiments = %d, want 12", len(all))
	}
	// Ordered numerically: E1 ... E12.
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	for i, r := range all {
		if r.ID != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, r.ID, want[i])
		}
	}
	if _, ok := Get("e4"); !ok {
		t.Error("Get should be case-insensitive")
	}
	if _, ok := Get("E99"); ok {
		t.Error("bogus id resolved")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Claim: "things hold",
		Header: []string{"a", "bb"},
	}
	tab.Add("x", 1)
	tab.Add(2.5, "yyy")
	tab.Findingf("n=%d", 2)
	s := tab.String()
	for _, want := range []string{"## EX — demo", "claim: things hold", "a", "bb", "=> n=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

// TestFastExperimentsRun executes the cheap experiments end to end so
// the harness itself is covered by `go test`. The heavyweight ones
// (E10, E11, E12 generate multi-hundred-k tweet streams) run from
// cmd/experiments and the benchmarks instead.
func TestFastExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	for _, id := range []string{"E2", "E3", "E5", "E6", "E8", "E9"} {
		r, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tab, err := r.Run(7)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if len(tab.Findings) == 0 {
			t.Errorf("%s produced no findings", id)
		}
	}
}

// TestExpectationsHold asserts the structural claims on a second seed,
// so the verdicts `go run ./cmd/experiments` prints aren't a
// single-seed accident.
func TestExpectationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	// E2: sampled policy optimal everywhere.
	tab := mustRun(t, "E2", 99)
	if !strings.Contains(strings.Join(tab.Findings, " "), "5/5") {
		t.Errorf("E2 findings: %v", tab.Findings)
	}
	// E9: eddy beats static under drift.
	tab = mustRun(t, "E9", 99)
	if !strings.Contains(strings.Join(tab.Findings, " "), "beats the static order") {
		t.Errorf("E9 findings: %v", tab.Findings)
	}
	// E3: Tokyo early, Cape Town held.
	tab = mustRun(t, "E3", 99)
	joined := strings.Join(tab.Findings, " ")
	if !strings.Contains(joined, "emitted early: true") || !strings.Contains(joined, "held to window close: true") {
		t.Errorf("E3 findings: %v", tab.Findings)
	}
}

func mustRun(t *testing.T, id string, seed int64) *Table {
	t.Helper()
	r, ok := Get(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	tab, err := r.Run(seed)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tab
}
