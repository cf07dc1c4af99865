// Command bench is the repository's end-to-end + per-layer benchmark:
// five workloads over the deterministic firehose soccer scenario, a
// fixed set of end-to-end metrics with regression bounds, per-layer
// metrics from a separate traced run, and a plain-Go reference that
// checks every workload's output. README.md in this directory is the
// contract; BENCHMARK.json at the repo root mirrors the tables below.
//
//	go run ./bench -seed 1                       every workload, every metric
//	go run ./bench -workload live_drain -trace 1 one workload, per-layer metrics
//	go run ./bench -runs 5 -out a.json           record runs for -compare
//	go run ./bench -compare a.json b.json        judge b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec names one reported metric. Bound is the relative worsening
// of the median that counts as a regression (end-to-end metrics only).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees; every workload reports
// every one of them from untraced passes (README "End-to-end metrics"
// says what each means on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"tweets_per_s", "tweets/s", "higher", 0.25},
	{"deliveries_per_s", "rows/s", "higher", 0.25},
	{"lag_p50_ms", "ms", "lower", 0.25},
	{"lag_p90_ms", "ms", "lower", 0.25},
	{"range_query_p50_ms", "ms", "lower", 0.25},
	{"dashboard_p50_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_tweet", "B", "lower", 0.01},
	{"alloc_bytes_per_tweet", "B", "lower", 0.05},
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
	run  func(*env) (*result, error)
}

var workloads = []workloadSpec{
	{"live_drain", "closed loop at saturation: tweeqld's query mix (hub filters, conversion, CONTAINS, shared scans, windows, TwitInfo); store and sockets idle", runLiveDrain},
	{"live_paced", "open loop at 40000 tweets/s, a quarter of capacity: lag from due time is waiting (batch fill, flush timers, hand-offs), so kernels should not move it", runLivePaced},
	{"serve_fanout", "one pass-through query to 2 NDJSON sockets + 6 in-process subscribers: fan-out and JSON encoding only, the bypass workload for kernel and scan work", runServeFanout},
	{"table_log", "SELECT * INTO TABLE with 8 MiB segments, timed through Engine.Close: store append, seal and value encoding; the write half of the store pair", runTableLog},
	{"table_replay", "six statements over the logged table (scans, windows, range, TwitInfo replay): segment decode, transposition and zone maps; the read half of the pair", runTableReplay},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome. The last stdout line of a
// single-workload run is its JSON form.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples states how many observations stand behind each timing.
	samples map[string]int
	// counts are exact, seed-determined numbers (rows delivered, id
	// digests, bytes on disk): two runs of one seed must agree on them.
	counts map[string]int64
	// info are the driver's own numbers (the unit is in the name) shown
	// beside the metrics but not gated.
	info map[string]float64
	// invalid marks a run whose load generator fell behind schedule.
	invalid               string
	passes, passesInvalid int
	lagSamples            int // lag observations behind the per-pass quantiles, all passes
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	quick    bool
	runs     int
	out      string
	compare  bool
	tmpRoot  string // where a run's scratch directories go
}

func main() {
	o := options{tmpRoot: buildDir}
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (empty: run every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "firehose seed; the program under test sees only the generated tweets")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds of measured passes per workload (after one discarded warm-up pass)")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics from untraced passes; 1 or a file path: per-layer metrics from a traced pass, Chrome trace written to the path (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&o.quick, "quick", false, "10000-tweet prefix, one pass per workload: the harness self-test `go test ./bench` runs")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: repeat every workload this many times (for -out / -compare)")
	flag.StringVar(&o.out, "out", "", "with no -workload: write every run's end-to-end metrics to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.Parse()

	switch {
	case o.compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case o.workload == "":
		os.Exit(runAll(o))
	default:
		os.Exit(runOne(o))
	}
}

// runSeconds is BENCHMARK.json's run_seconds: how long the judge lets
// one run measure.
const runSeconds = 15

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its metrics, the
// last line being the machine-readable result.
func runOne(o options) int {
	w := findWorkload(o.workload)
	if w == nil {
		fatalf("unknown workload %q", o.workload)
	}
	all, genSeconds := generate(o)
	e, err := newEnv(o, all, genSeconds)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := w.run(e)
	e.cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	printResult(os.Stdout, w.Name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if why := res.rejected(); why != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.Name, why)
		return 1
	}
	return 0
}

// rejected says why a run must exit non-zero ("" when it may pass): a
// load generator that fell behind, or any op the reference refused.
func (r *result) rejected() string {
	switch {
	case r.invalid != "":
		return "run invalid: " + r.invalid
	case !r.Correct:
		return fmt.Sprintf("%d of %d ops failed the reference check", r.Failed, r.Attempted)
	}
	return ""
}

// printResult lists every metric by name with its unit and sample count.
func printResult(w *os.File, workload string, res *result) {
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		note := ""
		if k := res.samples[n]; k > 0 {
			note = fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintf(w, "%-14s %-36s %16.6g %-9s%s\n", workload, n, m.Value, m.Unit, note)
	}
	for _, k := range sortedKeys(res.counts) {
		fmt.Fprintf(w, "%-14s count %-30s %16d\n", workload, k, res.counts[k])
	}
	for _, k := range sortedKeys(res.info) {
		fmt.Fprintf(w, "%-14s info  %-30s %16.6g\n", workload, k, res.info[k])
	}
	fmt.Fprintf(w, "%-14s passes=%d passes_invalid=%d lag_samples=%d ops_attempted=%d ops_failed=%d\n",
		workload, res.passes, res.passesInvalid, res.lagSamples, res.Attempted, res.Failed)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recorded is the -out file: workload → metric → one value per run,
// plus the failed/attempted totals -compare checks for a rise.
type recorded struct {
	Seed      int64                           `json:"seed"`
	Values    map[string]map[string][]float64 `json:"values"`
	Attempted map[string]int64                `json:"ops_attempted"`
	Failed    map[string]int64                `json:"ops_failed"`
}

// runAll runs every workload in its own child process, so GC state and
// TotalAlloc do not leak between workloads: untraced for the
// end-to-end metrics, then traced for the per-layer ones.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	rec := recorded{Seed: o.seed, Values: map[string]map[string][]float64{},
		Attempted: map[string]int64{}, Failed: map[string]int64{}}
	status := 0
	for _, w := range workloads {
		rec.Values[w.Name] = map[string][]float64{}
		for run := 0; run < max(o.runs, 1); run++ {
			traces := []string{"0"}
			if run == 0 {
				traces = append(traces, traceArg(o.trace, w.Name))
			}
			for _, tr := range traces {
				res, err := runChild(self, o, w.Name, tr)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					status = 1
				}
				if tr != "0" {
					continue
				}
				// A run that exited non-zero still counts: its ops go into
				// the record (the run itself being one failed op when it
				// reported none), so -compare sees the rise.
				rec.Attempted[w.Name] += res.Attempted
				rec.Failed[w.Name] += res.Failed
				if err != nil {
					continue
				}
				for name, m := range res.Metrics {
					rec.Values[w.Name][name] = append(rec.Values[w.Name][name], m.Value)
				}
			}
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}
	return status
}

// traceArg resolves the all-workloads -trace flag for one child: "0"
// and "1" mean the default per-workload file, anything else is a path
// that gets the workload name spliced in before its extension.
func traceArg(flagVal, workload string) string {
	if flagVal == "0" || flagVal == "1" || flagVal == "" {
		return "1"
	}
	ext := filepath.Ext(flagVal)
	return strings.TrimSuffix(flagVal, ext) + "-" + workload + ext
}

// runChild executes one workload run in a child process, relays its
// human-readable lines, and parses the final JSON line. A child that
// exited non-zero still returns a result beside the error: what it
// reported if its last line parses, and in any case at least one
// attempted and one failed op.
func runChild(self string, o options, workload, trace string) (result, error) {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", trace}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	return parseChild(lines[len(lines)-1], runErr)
}

func parseChild(lastLine string, runErr error) (result, error) {
	var res result
	err := json.Unmarshal([]byte(lastLine), &res)
	switch {
	case runErr == nil && err != nil:
		return result{Attempted: 1, Failed: 1}, fmt.Errorf("bad result line: %w", err)
	case runErr != nil && (err != nil || res.Failed == 0):
		res.Attempted++
		res.Failed++
	}
	return res, runErr
}
