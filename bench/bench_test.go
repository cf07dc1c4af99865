package main

import (
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tweeql"
)

// quickRun runs one workload in -quick mode in this process.
func quickRun(t *testing.T, all []*tweeql.Tweet, workload string, seed int64, trace string, tamper func(*env)) *result {
	t.Helper()
	o := options{workload: workload, seed: seed, quick: true, trace: trace, tmpRoot: t.TempDir()}
	e, err := newEnv(o, all, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	if tamper != nil {
		tamper(e)
	}
	res, err := findWorkload(workload).run(e)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func stream(seed int64) []*tweeql.Tweet {
	all, _ := generate(options{seed: seed, quick: true})
	return all
}

// TestQuickWorkloads keeps the harness compiling and its correctness
// checks green: every workload, untraced and traced, against the
// reference; every declared metric present; the trace loadable.
func TestQuickWorkloads(t *testing.T) {
	all := stream(1)
	for _, w := range workloads {
		res := quickRun(t, all, w.Name, 1, "0", nil)
		if why := res.rejected(); why != "" {
			t.Errorf("%s: %s", w.Name, why)
		}
		if res.Attempted < 1 {
			t.Errorf("%s: attempted %d ops", w.Name, res.Attempted)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", w.Name, len(res.Metrics), len(endToEnd))
		}
		for _, spec := range endToEnd {
			m, ok := res.Metrics[spec.Name]
			if !ok || m.Value <= 0 || m.Unit != spec.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, spec.Name, m, spec.Unit)
			}
		}

		path := filepath.Join(t.TempDir(), "trace.json")
		res = quickRun(t, all, w.Name, 1, path, nil)
		if why := res.rejected(); why != "" {
			t.Errorf("%s traced: %s", w.Name, why)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want the %d per-layer ones", w.Name, len(res.Metrics), len(perLayer))
		}
		for _, spec := range perLayer {
			if m, ok := res.Metrics[spec.Name]; !ok || m.Unit != spec.Unit {
				t.Errorf("%s traced: %s missing or in %q, want %q", w.Name, spec.Name, m.Unit, spec.Unit)
			}
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
			Profiles map[string]json.RawMessage `json:"profiles"`
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		if err != nil || len(doc.TraceEvents) == 0 || len(doc.Profiles) == 0 {
			t.Errorf("%s: trace %s: err=%v, %d events, %d profiles", w.Name, path, err, len(doc.TraceEvents), len(doc.Profiles))
		}
	}
}

// TestDeterminism: one seed, identical counts and digests; another
// seed, different ones.
func TestDeterminism(t *testing.T) {
	all1, all2 := stream(1), stream(2)
	for _, w := range workloads {
		a := quickRun(t, all1, w.Name, 1, "0", nil)
		b := quickRun(t, all1, w.Name, 1, "0", nil)
		c := quickRun(t, all2, w.Name, 2, "0", nil)
		if len(a.counts) == 0 || !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: two runs of seed 1 disagree:\n%v\n%v", w.Name, a.counts, b.counts)
		}
		if reflect.DeepEqual(a.counts, c.counts) {
			t.Errorf("%s: seeds 1 and 2 produced identical counts: %v", w.Name, a.counts)
		}
	}
}

// TestBrokenReferenceFails: a reference that expects one row more than
// the program delivers must fail the run.
func TestBrokenReferenceFails(t *testing.T) {
	all := stream(1)
	for workload, st := range map[string]*statement{"live_drain": &q8[0], "serve_fanout": &fanoutStmt, "table_replay": &replayStmts[0]} {
		res := quickRun(t, all, workload, 1, "0", func(e *env) {
			w := e.expectOf(st)
			w.rows++
			e.want[st.name] = w
		})
		if res.Correct || res.Failed == 0 || res.rejected() == "" {
			t.Errorf("%s: one missing row went unnoticed: correct=%v failed=%d", workload, res.Correct, res.Failed)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricSpec{"tweets_per_s", "tweets/s", "higher", 0.10}
	lower := metricSpec{"lag_p50_ms", "ms", "lower", 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		spec         metricSpec
		base, change []float64
		want         string
	}{
		{higher, steady, []float64{100, 99, 101, 100, 98}, "ok"},
		{higher, steady, []float64{85, 86, 84, 85, 87}, "worse"},
		{lower, steady, []float64{115, 116, 114, 115, 117}, "worse"},
		{lower, steady, []float64{85, 86, 84, 85, 87}, "ok"},
		{higher, steady, []float64{70, 100, 130, 95, 128}, "unresolved"},
		{higher, []float64{70, 100, 130, 95, 128}, []float64{140, 150, 160, 170, 180}, "ok"}, // every run better
	}
	for i, c := range cases {
		if got, _ := verdict(c.spec, c.base, c.change); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

// TestFailedRunsReachCompare: a child that exits non-zero still lands in
// the record, and -compare refuses a rise in the failed share of ops even
// when every median holds.
func TestFailedRunsReachCompare(t *testing.T) {
	exit1 := errors.New("exit status 1")
	for _, c := range []struct {
		line              string
		runErr            error
		attempted, failed int64
	}{
		{`{"correct":true,"attempted":10,"failed":0,"metrics":{}}`, nil, 10, 0},
		{`{"correct":false,"attempted":10,"failed":3,"metrics":{}}`, exit1, 10, 3},
		{`{"correct":false,"attempted":10,"failed":0,"metrics":{}}`, exit1, 11, 1}, // an invalid open-loop run
		{"", exit1, 1, 1}, // died before reporting
	} {
		res, err := parseChild(c.line, c.runErr)
		if res.Attempted != c.attempted || res.Failed != c.failed || (err != nil) != (c.runErr != nil) {
			t.Errorf("parseChild(%q, %v) = %d attempted, %d failed, err %v", c.line, c.runErr, res.Attempted, res.Failed, err)
		}
	}

	write := func(name string, failed int64) string {
		rec := recorded{Values: map[string]map[string][]float64{}, Attempted: map[string]int64{}, Failed: map[string]int64{}}
		for _, w := range workloads {
			rec.Values[w.Name] = map[string][]float64{}
			for _, spec := range endToEnd {
				rec.Values[w.Name][spec.Name] = []float64{100, 101, 99}
			}
			rec.Attempted[w.Name] = 1000
		}
		rec.Failed["table_log"] = failed
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, broken := write("a.json", 0), write("b.json", 1)
	if got := compareFiles(io.Discard, clean, clean); got != 0 {
		t.Errorf("identical records: exit %d", got)
	}
	if got := compareFiles(io.Discard, clean, broken); got != 1 {
		t.Errorf("one failed op more: exit %d, want 1", got)
	}
}

// TestProbe runs the speed probe a -quick run skips.
func TestProbe(t *testing.T) {
	e := &env{tweets: stream(1)[:20_000]}
	if s := e.probe(); !(s > 0.05 && s < 50) {
		t.Errorf("box slowness %v: the probe's reference cost is off by more than any box", s)
	}
}

// allowedImports is everything of this module bench/ may use. A PR that
// claims a gain may not edit bench/, so the benchmark must survive the
// ROADMAP's refactors: it stays on the public packages, the serving and
// catalog surfaces, and the handful of entry points it times in
// isolation — never the executor, the planner or an ablation option.
var allowedImports = map[string]bool{
	"tweeql":                     true,
	"tweeql/twitinfo":            true,
	"tweeql/internal/server":     true,
	"tweeql/internal/catalog":    true,
	"tweeql/internal/store":      true,
	"tweeql/internal/twitterapi": true,
	"tweeql/internal/lang":       true,
	"tweeql/internal/tweet":      true,
	"tweeql/internal/firehose":   true,
}

var forbiddenOptions = []string{".Columnar", ".CompileExprs", ".SharedScans", ".AdaptiveFilters", ".BatchSize", ".BatchWorkers", ".BatchFlushEvery"}

func TestImportsAndOptions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "tweeql" || strings.HasPrefix(path, "tweeql/")) && !allowedImports[path] {
				t.Errorf("%s imports %s, which is outside the benchmark's allowed list", name, path)
			}
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range forbiddenOptions {
			if strings.Contains(string(src), opt) {
				t.Errorf("%s touches the ablation option %s; the benchmark runs production defaults", name, opt)
			}
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json at the repo root is the same
// contract the code implements.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths = %v, command = %v", doc.Paths, doc.Command)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, the code has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []named, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, spec := range want {
			g := got[i]
			if g.Name != spec.Name || g.Unit != spec.Unit || g.Better != spec.Better {
				t.Errorf("%s %d = %+v, the code has %+v", kind, i, g, spec)
			}
			if bounded && (g.Bound == nil || *g.Bound != spec.Bound) {
				t.Errorf("%s %s: bound %v, the code has %v", kind, g.Name, g.Bound, spec.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, g.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
