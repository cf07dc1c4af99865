package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the driver's calls into each layer, in
// memory, and writes them at exit as Chrome trace JSON. A nil tracer is
// the untraced run: every method is a no-op, so end-to-end passes pay
// one nil check per call site.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	roots    map[int]int // pass id → its root span
	profiles map[string]any
}

// span is one timed call. Parent is the index of the span that caused
// it (-1 for a root); spans of one pass share its id.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	pass       int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: map[int]int{}, profiles: map[string]any{}}
}

// openPass opens the pass's root span; every span begun for that pass
// afterwards is its child, so a viewer can fold a pass and a layer's
// self time is its spans' durations within the root's.
func (t *tracer) openPass(pass int) {
	if t == nil {
		return
	}
	id := t.begin("pass", pass)
	t.mu.Lock()
	t.roots[pass] = id
	t.mu.Unlock()
}

func (t *tracer) closePass(pass int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id, ok := t.roots[pass]
	t.mu.Unlock()
	if ok {
		t.end(id)
	}
}

// begin opens a span caused by the pass's root span (a root itself when
// the pass has none yet).
func (t *tracer) begin(name string, pass int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.roots[pass]
	if !ok {
		parent = -1
	}
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, pass: pass})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// total sums the durations of the closed spans with this name.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			d += s.end - s.start
			n++
		}
	}
	return d, n
}

// attach stores a value (a query's Cursor.Profile().Snapshot(), dumped
// verbatim) under the trace file's "profiles" key.
func (t *tracer) attach(key string, v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.profiles[key] = v
	t.mu.Unlock()
}

// write emits the Chrome trace-event object form: complete ("X")
// events with microsecond timestamps, one process per pass, one thread
// lane per span name so concurrent readers do not overlap, and the
// causing span's index under args.parent.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	lanes := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		lane, ok := lanes[s.name]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.name] = lane
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: s.pass, Tid: lane,
			Args: map[string]any{"span": i, "parent": s.parent},
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "profiles": t.profiles}
	t.mu.Unlock()

	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
