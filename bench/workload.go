package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// expectOf memoises a statement's reference answer: the reference is
// recomputed per process, not per pass.
func (e *env) expectOf(st *statement) expect {
	if w, ok := e.want[st.name]; ok {
		return w
	}
	w := st.want(e.ref)
	e.want[st.name] = w
	return w
}

// passStats is what one pass of any workload measured; the workload
// computes its own rates, because what counts as a tweet consumed or a
// row delivered is the workload's to say.
type passStats struct {
	began          time.Time
	wall           time.Duration // the timed region
	tweetsPerS     float64
	deliveriesPerS float64
	diskPerTweet   float64
	allocPerTweet  float64
	lags           []*lagSamples
	rangeMs        float64 // the workload's time-range query, once a pass
	dashMs         float64 // the workload's dashboard, once a pass
	attempted      int64
	failed         int64
	invalid        string             // why an open-loop pass must not count
	counts         map[string]int64   // exact, seed-determined numbers
	layer          map[string]float64 // traced pass: counters, and "crossed.<metric>" row counts
	speed          float64            // the box's slowness around this pass (see env.probe); 1 = reference speed
}

func newPassStats() *passStats {
	return &passStats{began: time.Now(), speed: 1, counts: map[string]int64{}, layer: map[string]float64{}}
}

// probeRefNs is the speed probe's cost per tweet on the reference box
// in its usual state; rates and times are reported as if the box ran at
// that speed.
const probeRefNs = 30.0

var probeSink atomic.Uint64

// probe measures how slow the box is right now, as a factor of its
// reference speed. The box this benchmark is judged on is shared: its
// two cores change speed by up to 2x for seconds to minutes at a time (a
// fixed spin loop was seen to take 7, 10 or 14 ms depending on the
// minute), which moves every saturation rate by as much and would drown
// any bound a regression gate could use. The probe is fixed work of the
// two kinds the workloads do, about half its time each — FNV-hash every
// tweet's text (compute), lower-case every 32nd and split it into words
// (allocation) — shared between two goroutines that take the next 256
// tweets as they finish the last, as the engine's goroutines share a
// pass, so one slow core costs the probe what it costs them. The fastest
// of five runs stands for the box's state, a neighbour's burst inflating
// single runs only. README "Bounds, and the speed probe" has the runs
// this mix was chosen on.
func (e *env) probe() float64 {
	if e.opts.quick {
		return 1 // a 10k-tweet probe is shorter than the scheduler's noise
	}
	const chunk = 256
	best := 0.0
	for r := 0; r < 5; r++ {
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := uint64(14695981039346656037)
				for lo := int(next.Add(chunk)) - chunk; lo < len(e.tweets); lo = int(next.Add(chunk)) - chunk {
					for k, t := range e.tweets[lo:min(lo+chunk, len(e.tweets))] {
						for i := 0; i < len(t.Text); i++ {
							h = (h ^ uint64(t.Text[i])) * 1099511628211
						}
						if k%32 == 0 {
							h += uint64(len(strings.Fields(strings.ToLower(t.Text))))
						}
					}
				}
				probeSink.Store(h)
			}()
		}
		wg.Wait()
		if d := float64(time.Since(start).Nanoseconds()) / float64(len(e.tweets)); best == 0 || d < best {
			best = d
		}
	}
	return best / probeRefNs
}

// settle collects the previous pass's garbage, so every pass starts
// from the same heap, and probes the box's speed.
func (e *env) settle() float64 {
	runtime.GC()
	e.speed = e.probe()
	return e.speed
}

// noteSetup records one set-up duration, corrected to reference speed
// by the probe taken just before it.
func (e *env) noteSetup(d time.Duration) {
	e.setups = append(e.setups, d.Seconds()/e.speed)
}

// passFunc runs one pass of a workload. Passes are numbered from 0 (the
// warm-up); the number is the trace's pass id.
type passFunc func(pass int) (*passStats, error)

// scaled says which of the workload's gated numbers stretch with the
// box and are therefore corrected by the probe: the rates of a closed
// loop do, an open loop's rate is the schedule's; lag does where it is
// backlog or the duration of saturated work, and does not where it is
// waiting on flush timers and hand-offs, which no faster box shortens.
// Set-up and the once-a-pass queries are one client's CPU work on every
// workload and are always corrected.
type scaled struct{ rates, lags bool }

// measure runs the workload the way its mode asks and assembles the
// result:
//
//   - untraced (-trace 0): one discarded warm-up pass, then passes until
//     -seconds of wall clock have gone by; every end-to-end metric is
//     the median over those passes of the pass's own value (for the lag
//     quantiles: of the pass's own quantile).
//   - traced (-trace 1): warm-up, one untraced pass, one traced pass,
//     then the isolated per-layer replays; per-layer metrics only.
//   - -quick: a single pass in either mode.
func (e *env) measure(workload string, follows scaled, one passFunc) (*result, error) {
	res := &result{Metrics: map[string]metric{}, samples: map[string]int{}, counts: map[string]int64{}, info: map[string]float64{}}
	next := 0
	before := e.settle()
	e.genSpeed = min(e.genSpeed, before) // two probes bracket the generation timings' correction
	run := func() (*passStats, error) {
		e.tr.openPass(next)
		ps, err := one(next)
		e.tr.closePass(next)
		next++
		if err != nil {
			return nil, err
		}
		// The box's state during the pass is the better of the probes on
		// either side of it.
		after := e.settle()
		ps.speed = min(before, after)
		before = after
		res.Attempted += ps.attempted
		res.Failed += ps.failed
		return ps, nil
	}
	if !e.opts.quick {
		if _, err := run(); err != nil { // warm-up: caches fill, lazy set-up finishes
			return nil, err
		}
	}

	if e.tracer != nil {
		plain, err := run()
		if err != nil {
			return nil, err
		}
		e.tr = e.tracer
		traced, err := run()
		if err != nil {
			return nil, err
		}
		layer, err := e.layerMetrics(plain, traced)
		e.tr = nil
		if err != nil {
			return nil, err
		}
		for _, spec := range perLayer {
			res.Metrics[spec.Name] = metric{Value: layer[spec.Name], Unit: spec.Unit}
		}
		res.counts = traced.counts
		res.Correct = res.Failed == 0
		return res, e.tracer.write(e.tracePath(workload))
	}

	var passes []*passStats
	start := time.Now()
	invalid := 0
	lastInvalid := ""
	// An open-loop run whose every pass so far was disturbed keeps trying
	// for up to three times its allotted seconds before giving up.
	more := func() bool {
		spent := time.Since(start).Seconds()
		return !e.opts.quick && (spent < e.opts.seconds || (len(passes) == 0 && spent < 3*e.opts.seconds))
	}
	for len(passes)+invalid == 0 || more() {
		ps, err := run()
		if err != nil {
			return nil, err
		}
		if ps.invalid != "" {
			// A pass whose generator fell behind measured the generator,
			// not the system: it is discarded, not averaged in.
			invalid++
			lastInvalid = ps.invalid
			continue
		}
		passes = append(passes, ps)
	}
	res.passes, res.passesInvalid = len(passes), invalid
	if len(passes) == 0 {
		res.invalid = fmt.Sprintf("all %d passes invalid: %s", invalid, lastInvalid)
		return res, nil
	}

	var tps, dps, rawTps, disk, alloc, speeds, p50s, p90s, ranges, dashes []float64
	lagSamplesSeen := 0
	for _, ps := range passes {
		rate, lag := 1.0, 1.0
		if follows.rates {
			rate = ps.speed
		}
		if follows.lags {
			lag = 1 / ps.speed
		}
		tps = append(tps, ps.tweetsPerS*rate)
		dps = append(dps, ps.deliveriesPerS*rate)
		rawTps = append(rawTps, ps.tweetsPerS)
		speeds = append(speeds, ps.speed)
		disk = append(disk, ps.diskPerTweet)
		alloc = append(alloc, ps.allocPerTweet)
		p50, n := quantileMs(ps.lags, 0.50)
		p90, _ := quantileMs(ps.lags, 0.90)
		p50s, p90s = append(p50s, p50*lag), append(p90s, p90*lag)
		lagSamplesSeen += n
		// One query by one client is CPU work wherever it runs: it
		// stretches with the box like set-up does.
		ranges, dashes = append(ranges, ps.rangeMs/ps.speed), append(dashes, ps.dashMs/ps.speed)
		for k, v := range ps.counts {
			if old, ok := res.counts[k]; ok && old != v {
				res.Failed++ // the same seed must deliver the same rows every pass
			}
			res.counts[k] = v
		}
	}
	res.info["tweets_per_s_as_measured"] = median(rawTps)
	res.info["box_slowness"] = median(speeds)
	values := map[string]float64{
		"setup_s":               median(e.genSeconds)/e.genSpeed + median(e.setups),
		"tweets_per_s":          median(tps),
		"deliveries_per_s":      median(dps),
		"lag_p50_ms":            median(p50s),
		"lag_p90_ms":            median(p90s),
		"range_query_p50_ms":    median(ranges),
		"dashboard_p50_ms":      median(dashes),
		"disk_bytes_per_tweet":  median(disk),
		"alloc_bytes_per_tweet": median(alloc),
	}
	for _, spec := range endToEnd {
		res.Metrics[spec.Name] = metric{Value: values[spec.Name], Unit: spec.Unit}
		res.samples[spec.Name] = len(passes)
	}
	res.lagSamples = lagSamplesSeen
	res.Correct = res.Failed == 0
	return res, nil
}

// tracePath is where this run's Chrome trace goes.
func (e *env) tracePath(workload string) string {
	if e.opts.trace != "1" {
		return e.opts.trace
	}
	return filepath.Join(buildDir, "trace-"+workload+".json")
}

func runLiveDrain(e *env) (*result, error) {
	return e.measure("live_drain", scaled{rates: true}, func(pass int) (*passStats, error) { return e.livePass(pass, 0) })
}

func runLivePaced(e *env) (*result, error) {
	return e.measure("live_paced", scaled{}, func(pass int) (*passStats, error) {
		if pass == 0 && !e.opts.quick {
			return e.livePass(pass, 0) // the warm-up need not take a paced pass's four seconds
		}
		return e.livePass(pass, pacedRate)
	})
}
