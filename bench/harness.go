package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tweeql"
	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/twitterapi"
)

const (
	// chunkSize is tweeqld's feed granularity: tweets per PublishBatch.
	chunkSize = 64
	// subBuffer is each subscriber's ring: large enough that a reader
	// descheduled for a few milliseconds does not stall the publisher.
	subBuffer = 4096
	// quickTweets is about how many tweets a -quick run keeps.
	quickTweets = 10_000
	// buildDir holds everything a run writes (temp data dirs, traces);
	// the benchmark contract confines writes to the checkout.
	buildDir = ".bench_build"
)

// env is one process's benchmark context: the generated input, its
// reference answers, and the knobs of this run.
type env struct {
	opts   options
	tweets []*tweeql.Tweet
	minID  int64
	index  []int32 // tweet id - minID → position in tweets
	ref    *reference
	want   map[string]expect // memoised reference answers, by statement
	tracer *tracer           // nil on untraced runs
	tr     *tracer           // the tracer while a traced pass runs, else nil
	tmp    string            // root of this run's temp dirs

	// genSeconds are the firehose generation timings and setups the
	// per-pass (or per-run) timings of everything else that precedes a
	// timed region; setup_s is the sum of their medians.
	genSeconds []float64
	setups     []float64
	generated  int     // tweets the firehose produced (the run may use a prefix)
	speed      float64 // the latest probe: the box's slowness, 1 = reference speed
	genSpeed   float64 // the first probe, the one nearest the generation timings
}

// generate materialises the seed's soccer stream, timing it. Set-up time
// is gated, so a full run generates five times and the median counts;
// one slow generation must not decide it.
func generate(o options) (all []*tweeql.Tweet, seconds []float64) {
	reps := 5
	if o.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		all = firehose.Tweets(firehose.New(firehose.SoccerMatch(o.seed)).Generate())
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return all, seconds
}

// newEnv prepares a run over the generated stream all.
func newEnv(o options, all []*tweeql.Tweet, genSeconds []float64) (*env, error) {
	e := &env{opts: o, want: map[string]expect{}, genSeconds: genSeconds, generated: len(all), tweets: thin(o, all), speed: 1}
	if len(e.tweets) == 0 {
		return nil, fmt.Errorf("firehose generated no tweets for seed %d", o.seed)
	}
	lo, hi := e.tweets[0].ID, e.tweets[0].ID
	for _, t := range e.tweets {
		lo, hi = min(lo, t.ID), max(hi, t.ID)
	}
	e.minID = lo
	e.index = make([]int32, hi-lo+1)
	for i := range e.index {
		e.index[i] = -1
	}
	for i, t := range e.tweets {
		e.index[t.ID-lo] = int32(i)
	}
	e.ref = newReference(e.tweets)
	if o.trace != "0" && o.trace != "" {
		e.tracer = newTracer()
	}
	root, err := filepath.Abs(o.tmpRoot)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	e.tmp, err = os.MkdirTemp(root, "run-")
	e.genSpeed = e.settle()
	return e, err
}

// thin is the -quick input: every k-th tweet, about quickTweets of them,
// so the small stream still spans the whole match (every window, the
// replay ranges) where a prefix would end minutes after kick-off.
func thin(o options, all []*tweeql.Tweet) []*tweeql.Tweet {
	if !o.quick || len(all) <= quickTweets {
		return all
	}
	k := len(all) / quickTweets
	out := make([]*tweeql.Tweet, 0, len(all)/k+1)
	for i := 0; i < len(all); i += k {
		out = append(out, all[i])
	}
	return out
}

func (e *env) cleanup() {
	if e.tmp != "" {
		_ = os.RemoveAll(e.tmp) // best effort: the directory is git-ignored scratch
	}
}

// dataDir makes a fresh data directory for one pass.
func (e *env) dataDir(label string) (string, error) {
	return os.MkdirTemp(e.tmp, label+"-")
}

// tweetIndex maps a delivered row's id back to the tweet's position in
// the published stream (-1 for an id the stream never contained).
func (e *env) tweetIndex(id int64) int {
	if id < e.minID || id-e.minID >= int64(len(e.index)) {
		return -1
	}
	return int(e.index[id-e.minID])
}

// system is one freshly built program under test: an engine on
// production defaults reading "twitter" from a hub, as tweeqld wires it.
type system struct {
	eng *tweeql.Engine
	hub *twitterapi.Hub
	dir string
}

// newSystem builds the engine the way tweeql.NewSimulated does, keeping
// the hub so the driver can publish and read its counters. Only
// deployment settings leave their defaults: the data directory and, for
// the table workloads, segment size and fsync policy; SourceBuffer is
// sized so a saturating publisher loses no tweets (NewSimulated does
// the same for burst replays).
func (e *env) newSystem(dir string, segmentMaxBytes int64) (*system, error) {
	opts := tweeql.DefaultOptions()
	opts.SysStreams = false
	opts.DataDir = dir
	opts.SegmentMaxBytes = segmentMaxBytes
	opts.FsyncPolicy = "seal"
	opts.SourceBuffer = len(e.tweets) + 16
	eng, err := tweeql.New(opts, tweeql.GeocoderConfig{Sleep: func(time.Duration) {}})
	if err != nil {
		return nil, err
	}
	hub := twitterapi.NewHub()
	sample := e.tweets[:min(2000, len(e.tweets))]
	eng.Core().Catalog().RegisterSource("twitter", catalog.NewTwitterSource(hub, sample))
	return &system{eng: eng, hub: hub, dir: dir}, nil
}

// publisher feeds the stream in chunkSize batches and remembers when
// each chunk was handed over (closed loop) or due (open loop): every
// lag sample is measured from that instant.
type publisher struct {
	e      *env
	hub    *twitterapi.Hub
	rate   float64 // tweets/s; 0 = closed loop, as fast as the hub accepts
	pass   int
	stamp  []time.Time // per chunk: hand-over or due time
	late   []float64   // open loop: ms each chunk was published after its due time
	busy   time.Duration
	start  time.Time
	end    time.Time // last PublishBatch returned
	closed time.Time // set by the caller just before it closes the hub
}

func (e *env) newPublisher(hub *twitterapi.Hub, rate float64, pass int) *publisher {
	chunks := (len(e.tweets) + chunkSize - 1) / chunkSize
	p := &publisher{e: e, hub: hub, rate: rate, pass: pass, stamp: make([]time.Time, chunks)}
	if rate > 0 {
		p.late = make([]float64, 0, chunks)
	}
	return p
}

// run publishes the whole stream. With a rate, chunk k is due at
// start + (64k+63)/rate — when its last tweet would have arrived — and
// the generator sleeps until then, never skipping ahead of schedule.
func (p *publisher) run() {
	tweets := p.e.tweets
	p.start = time.Now()
	for k := range p.stamp {
		lo := k * chunkSize
		hi := min(lo+chunkSize, len(tweets))
		if p.rate > 0 {
			due := p.start.Add(time.Duration(float64(hi-1) / p.rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			p.stamp[k] = due
			p.late = append(p.late, float64(time.Since(due))/float64(time.Millisecond))
		} else {
			p.stamp[k] = time.Now()
		}
		sp := p.e.tr.begin("twitterapi.PublishBatch", p.pass)
		t0 := time.Now()
		p.hub.PublishBatch(tweets[lo:hi])
		p.busy += time.Since(t0)
		p.e.tr.end(sp)
	}
	p.end = time.Now()
}

// noteHub records the hub-side layer numbers of a traced pass.
func (p *publisher) noteHub(ps *passStats) {
	n := float64(len(p.e.tweets))
	ps.layer["twitterapi.publish_ns_per_tweet"] = float64(p.busy) / n
	ps.layer["twitterapi.delivered_per_published"] = float64(p.hub.Delivered()) / float64(max(p.hub.Published(), 1))
	ps.layer["crossed.twitterapi.publish_ns_per_tweet"] = n
}

// stampOf is the reference instant of the tweet at stream position i.
func (p *publisher) stampOf(i int) time.Time { return p.stamp[i/chunkSize] }

// lagSamples collects per-delivery lags without allocating inside the
// timed region. stride keeps every stride-th sample.
type lagSamples struct {
	ns     []int64
	stride int
	seen   int
}

func newLagSamples(capacity, stride int) *lagSamples {
	return &lagSamples{ns: make([]int64, 0, capacity/stride+1), stride: stride}
}

func (l *lagSamples) add(d time.Duration) {
	if l.seen%l.stride == 0 && len(l.ns) < cap(l.ns) {
		l.ns = append(l.ns, int64(d))
	}
	l.seen++
}

// memDelta reads the allocation counters around a timed region.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() (bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// waitFor polls cond every 200µs until it holds or the deadline passes.
func waitFor(ctx context.Context, cond func() bool) bool {
	for !cond() {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(200 * time.Microsecond):
		}
	}
	return true
}

// median and quantile work on a copy; q is nearest-rank on the sorted
// sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quantileMs is the nearest-rank quantile over pooled lag samples, in
// milliseconds, and the number of samples behind it.
func quantileMs(pools []*lagSamples, q float64) (float64, int) {
	var all []int64
	for _, p := range pools {
		all = append(all, p.ns...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	i := int(q*float64(len(all))+0.999999) - 1
	return float64(all[min(max(i, 0), len(all)-1)]) / 1e6, len(all)
}
