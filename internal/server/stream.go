package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/value"
)

// heartbeatEvery bounds how long an idle SSE connection goes without
// traffic, so proxies and dead-peer detection keep the stream alive.
const heartbeatEvery = 15 * time.Second

// streamQuery serves a query's live results as SSE (default) or NDJSON:
//
//	GET /api/queries/{name}/stream?format=sse|ndjson&buffer=64&policy=drop|block
//
// Each connection gets its own queue of at most `buffer` rows. Policy
// "drop" (default) drops the oldest buffered rows when the client lags
// — drops are counted and surfaced in the query status and /metrics —
// while "block" applies backpressure to the query's fan-out (total
// delivery, shared cost: one blocked client slows every subscriber's
// feed). The stream ends when the query is dropped or the daemon shuts
// down; a paused query keeps connections open and idle.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("name")))
		return
	}
	bcast := q.Broadcaster()
	if bcast == nil {
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("query %q routes INTO TABLE; use /api/tables/{name}/snapshot", q.Spec().Name))
		return
	}
	buffer := s.opts.StreamBuffer
	if v := r.URL.Query().Get("buffer"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1<<20 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad buffer %q", v))
			return
		}
		buffer = n
	}
	policy := catalog.DropOldest
	if s.opts.BlockDefault {
		policy = catalog.Block
	}
	switch r.URL.Query().Get("policy") {
	case "":
	case "drop":
		policy = catalog.DropOldest
	case "block":
		policy = catalog.Block
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad policy %q: want drop or block", r.URL.Query().Get("policy")))
		return
	}
	sse := true
	switch r.URL.Query().Get("format") {
	case "", "sse":
	case "ndjson":
		sse = false
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad format %q: want sse or ndjson", r.URL.Query().Get("format")))
		return
	}

	s.pump(w, r, bcast, streamSpec{name: q.Spec().Name, sse: sse, heartbeat: heartbeatEvery,
		sub: catalog.SubOptions{Buffer: buffer, Policy: policy}})
}

// streamSpec is what distinguishes one streaming connection from
// another: the name its SSE preamble announces, its framing, its queue,
// and how long it may sit idle before a ping.
type streamSpec struct {
	name      string
	sse       bool // false: NDJSON, which has no preamble, pings or end frame
	sub       catalog.SubOptions
	heartbeat time.Duration
}

// pump is the one stream loop behind /api/queries/{name}/stream and
// /api/alerts/stream: subscribe to bcast, then turn each burst of rows
// into a single Write+Flush until the stream closes or the client goes.
// Rows, frame bytes and the encoder's key layout are all reused from one
// burst to the next.
func (s *Server) pump(w http.ResponseWriter, r *http.Request, bcast *catalog.DerivedStream, spec streamSpec) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	sub := bcast.Subscribe(spec.sub)
	defer sub.Cancel()

	head, tail := "", "\n"
	if spec.sse {
		head, tail = "data: ", "\n\n"
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		fmt.Fprintf(w, ": stream %s columns=%s\n\n", spec.name, mustJSON(bcast.Schema().Names()))
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher.Flush()

	// One timer bounds every wait between two pings: it cancels idle, the
	// context RecvInto waits under, and is re-armed before each wait. Only
	// a wait that outlasts the heartbeat pays for a new context and timer.
	idle, expire := context.WithCancel(r.Context())
	timer := time.AfterFunc(spec.heartbeat, expire)
	defer func() { timer.Stop(); expire() }()

	var (
		enc  rowEncoder
		rows []value.Tuple
		buf  []byte
		err  error
	)
	for {
		timer.Reset(spec.heartbeat)
		if rows, err = sub.RecvInto(idle, rows); err != nil {
			switch {
			case errors.Is(err, catalog.ErrStreamClosed):
				// Query dropped or daemon shutting down.
				if spec.sse {
					fmt.Fprint(w, "event: end\ndata: {}\n\n")
					flusher.Flush()
				}
				return
			case r.Context().Err() != nil:
				return // client gone
			}
			// Idle for a whole heartbeat: keep the connection visibly alive.
			idle, expire = context.WithCancel(r.Context())
			timer = time.AfterFunc(spec.heartbeat, expire)
			if spec.sse {
				if _, werr := fmt.Fprint(w, ": ping\n\n"); werr != nil {
					return
				}
				flusher.Flush()
			}
			continue
		}
		buf = buf[:0]
		for _, row := range rows {
			buf = append(buf, head...)
			buf = enc.appendRow(buf, row)
			buf = append(buf, tail...)
		}
		if _, werr := w.Write(buf); werr != nil {
			return
		}
		flusher.Flush()
	}
}

// mustJSON renders v for informational headers; marshal failures become
// null rather than an error path nobody can hit with string slices.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("null")
	}
	return b
}
