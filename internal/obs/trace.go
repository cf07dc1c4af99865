package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one sampled per-stage span: the enter/exit of one batch (or
// sampled row/call) through one operator.
type Event struct {
	Stage   string `json:"stage"`
	Kind    string `json:"kind"`
	Seq     uint64 `json:"seq"`
	Start   int64  `json:"start_ns"` // unix nanoseconds at enter
	Dur     int64  `json:"dur_ns"`
	RowsIn  int    `json:"rows_in"`
	RowsOut int    `json:"rows_out"`
}

// Tracer samples every Nth observation per stage into a bounded ring
// of span events. Sampling is deterministic: observation seq is
// sampled iff (seq+offset) % n == 0, with offset derived from the
// seed — so the same seed always selects the same batch set, and
// spans from different stages of a steadily flowing pipeline line up
// on the same batch ordinals.
type Tracer struct {
	n      uint64
	offset uint64

	mu       sync.Mutex
	capacity int     // ring size once full
	ring     []Event // grows as events arrive, up to capacity
	next     int     // next write slot
	wrapped  bool
	dropped  int64 // events overwritten after the ring filled
}

func newTracer(everyN int, seed int64, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	n := uint64(everyN)
	return &Tracer{n: n, offset: uint64(seed) % n, capacity: capacity}
}

// sampled reports whether observation seq is in the sampled set.
func (t *Tracer) sampled(seq uint64) bool {
	return (seq+t.offset)%t.n == 0
}

// record appends an event, overwriting the oldest once full. Only
// sampled observations reach here, so the mutex is off the hot path.
func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.next] = ev
		t.next = (t.next + 1) % t.capacity
		t.wrapped = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Events returns the retained spans in record order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Event(nil), t.ring...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped reports how many spans were overwritten after the ring
// filled (0 = the trace is complete).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL writes the events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// array form loadable in chrome://tracing and Perfetto): complete "X"
// spans, one tid per stage so operators stack as parallel tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON
// array. id labels the process; each stage gets its own track, plus
// metadata records naming them.
func WriteChromeTrace(w io.Writer, id string, events []Event) error {
	tids := map[string]int{}
	out := make([]any, 0, len(events)+1)
	out = append(out, map[string]any{
		"name": "process_name", "ph": "M", "pid": 1,
		"args": map[string]any{"name": fmt.Sprintf("tweeql query %s", id)},
	})
	for _, ev := range events {
		tid, ok := tids[ev.Stage]
		if !ok {
			tid = len(tids) + 1
			tids[ev.Stage] = tid
			out = append(out, map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": fmt.Sprintf("%s (%s)", ev.Stage, ev.Kind)},
			})
		}
		out = append(out, chromeEvent{
			Name: ev.Stage, Cat: ev.Kind, Ph: "X",
			TS: float64(ev.Start) / 1e3, Dur: float64(ev.Dur) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"seq": ev.Seq, "rows_in": ev.RowsIn, "rows_out": ev.RowsOut},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
