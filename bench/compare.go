package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict judges one workload × end-to-end metric pair: base and change
// are the two sides' per-run values.
//
//   - worse: the change's median is beyond the bound on the bad side.
//   - unresolved: either side's own run-to-run spread (interquartile
//     range over its median) exceeds the bound, so the runs cannot tell
//     — unless every run of the change beats every run of the base.
//   - ok: otherwise.
func verdict(spec metricSpec, base, change []float64) (string, float64) {
	mb, mc := median(base), median(change)
	if mb == 0 {
		return "unresolved", 0
	}
	ratio := mc / mb
	worsening := ratio - 1
	if spec.Better == "higher" {
		worsening = 1 - ratio
	}
	if worsening > spec.Bound {
		return "worse", ratio
	}
	if spread(base) > spec.Bound || spread(change) > spec.Bound {
		if allBetter(spec, base, change) {
			return "ok", ratio
		}
		return "unresolved", ratio
	}
	return "ok", ratio
}

// spread is the interquartile range over the median, the run-to-run
// noise a bound has to stand clear of.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Quartile i of 4 as Python's statistics.quantiles(xs, n=4) gives it
	// (the "exclusive" method): the judge of this benchmark uses that.
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(xs)
}

func allBetter(spec metricSpec, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if (spec.Better == "lower" && c >= b) || (spec.Better == "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// the ratio with its base, and the verdict; the exit status is non-zero
// on any "worse" or any rise in the failed share of ops.
func compareFiles(w io.Writer, basePath, changePath string) int {
	load := func(path string) recorded {
		var r recorded
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		return r
	}
	base, change := load(basePath), load(changePath)
	status := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s  %-22s %s\n", "workload", "metric", "base median", "change median", "ratio (change/base)", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			b, c := base.Values[wl.Name][spec.Name], change.Values[wl.Name][spec.Name]
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-14s %-22s %14s %14s  %-22s %s\n", wl.Name, spec.Name, "-", "-", "-", "missing")
				status = 1
				continue
			}
			v, ratio := verdict(spec, b, c)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g  %-22s %s\n", wl.Name, spec.Name, median(b), median(c),
				fmt.Sprintf("%.4f of %.6g %s", ratio, median(b), spec.Unit), v)
		}
		fb := float64(base.Failed[wl.Name]) / float64(max(base.Attempted[wl.Name], 1))
		fc := float64(change.Failed[wl.Name]) / float64(max(change.Attempted[wl.Name], 1))
		if fc > fb {
			fmt.Fprintf(w, "%-14s ops_failed/ops_attempted rose from %.3g to %.3g\n", wl.Name, fb, fc)
			status = 1
		}
	}
	return status
}
