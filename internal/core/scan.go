package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/exec"
	"tweeql/internal/fault"
	"tweeql/internal/plan"
	"tweeql/internal/resilience"
)

// Shared-scan execution: the paper's premise is many continuous queries
// over ONE rate-limited tweet stream, yet a naive engine opens one API
// cursor and one ingest/conversion pipeline per query — O(N) endpoint
// load and ingest work for N queries over the same stream. A SharedScan
// is one physical source subscription keyed by the plan's scan
// signature (source + merged pushdown set + pushed time range): the
// first query with a signature opens the source, every later query with
// the same signature attaches to the existing scan, and batches fan out
// through a DerivedStream's sharded, lock-free subscriber set to each
// query's private residual pipeline. Queries detach on stop/pause/drop;
// the last detach closes the physical source.

// scanManager owns an engine's live shared scans, keyed by signature.
type scanManager struct {
	mu    sync.Mutex
	scans map[string]*SharedScan
}

func newScanManager() *scanManager {
	return &scanManager{scans: make(map[string]*SharedScan)}
}

// SharedScan is one ref-counted physical scan of a live source, fanned
// out to every attached query. A supervisor goroutine owns the
// physical subscription: when the source fails mid-stream it reopens
// it with backoff (up to the engine's restart budget) instead of
// fanning a fatal error to every attached query.
type SharedScan struct {
	sig    string
	source string
	mgr    *scanManager
	ds     *catalog.DerivedStream
	info   *catalog.OpenInfo
	// pushedKey is the stable conjunct key (plan.Query.CandidateKey) of
	// the candidate the physical connection pushed down, "" when the
	// scan reads the full stream. Attaching queries resolve their
	// residual conjuncts against it.
	pushedKey string
	// ctx is the scan's root context; cancel (fired by the last detach)
	// ends the supervisor and the current physical subscription.
	ctx    context.Context
	cancel context.CancelFunc
	// reopen opens a fresh physical subscription under a child of ctx,
	// captured at openScan so the supervisor can restart the source.
	reopen func() (<-chan exec.Batch, context.CancelFunc, error)

	rowsIn    atomic.Int64
	batchesIn atomic.Int64
	restarts  atomic.Int64
	ended     atomic.Bool
	scanErr   atomic.Pointer[error]

	// refs counts attached queries; guarded by mgr.mu so attach and
	// last-detach-closes are atomic with map membership.
	refs int
}

// scanPolicy is the supervisor's restart discipline, derived from
// engine options (and overridable in tests).
type scanPolicy struct {
	maxRestarts  int
	backoff      resilience.Backoff
	healthyAfter time.Duration
	now          func() time.Time
}

func scanPolicyFrom(opts Options) scanPolicy {
	base := opts.ScanRestartBackoff
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	healthy := opts.ScanHealthyAfter
	if healthy <= 0 {
		healthy = 30 * time.Second
	}
	return scanPolicy{
		maxRestarts:  opts.ScanMaxRestarts,
		backoff:      resilience.Backoff{Base: base, Cap: 20 * base, Jitter: 0.2},
		healthyAfter: healthy,
		now:          time.Now,
	}
}

// ScanStatus is a snapshot of one shared scan, for metrics and EXPLAIN.
type ScanStatus struct {
	// Signature is the scan's plan signature (the map key).
	Signature string
	// Source is the scanned source name.
	Source string
	// Queries is the number of currently attached queries.
	Queries int
	// RowsIn / Batches count rows and batches ingested from the
	// physical source since the scan opened.
	RowsIn  int64
	Batches int64
	// Restarts counts supervisor restarts of the physical source after
	// mid-stream failures.
	Restarts int64
	// Subscribers / Dropped mirror the fan-out stream's counters:
	// attached pipelines and rows lost to slow ones (DropOldest rings,
	// the streaming-API "receive most tweets" contract).
	Subscribers int
	Dropped     int64
	// Pushed / Filter report the scan's pushdown decision.
	Pushed bool
	Filter string
}

// isLiveSource reports whether src opted into shared scanning.
func isLiveSource(src catalog.Source) bool {
	ls, ok := src.(catalog.LiveSource)
	return ok && ls.LiveStream()
}

// queries reports how many queries are attached to the scan with the
// given signature (0 = no live scan).
func (m *scanManager) queries(sig string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.scans[sig]; ok && !s.ended.Load() {
		return s.refs
	}
	return 0
}

// Scans snapshots the engine's live shared scans, sorted by signature.
func (e *Engine) Scans() []ScanStatus {
	m := e.scans
	m.mu.Lock()
	scans := make([]*SharedScan, 0, len(m.scans))
	refs := make([]int, 0, len(m.scans))
	for _, s := range m.scans {
		scans = append(scans, s)
		refs = append(refs, s.refs)
	}
	m.mu.Unlock()
	out := make([]ScanStatus, 0, len(scans))
	for i, s := range scans {
		ss := s.ds.Stats()
		st := ScanStatus{
			Signature:   s.sig,
			Source:      s.source,
			Queries:     refs[i],
			RowsIn:      s.rowsIn.Load(),
			Batches:     s.batchesIn.Load(),
			Restarts:    s.restarts.Load(),
			Subscribers: ss.Subscribers,
			Dropped:     ss.Dropped,
		}
		if s.info.Pushed {
			st.Pushed = true
			st.Filter = s.info.Chosen.String()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out
}

// attachShared counts a query's reference to the live shared scan with
// its plan's signature, opening it (and its pushdown decision) first if
// there is none.
func (e *Engine) attachShared(src catalog.Source, p *plan.Query) (*SharedScan, error) {
	m := e.scans
	m.mu.Lock()
	s := m.scans[p.Signature]
	if s != nil && s.ended.Load() {
		// The previous scan's stream ended (source closed); a new query
		// wants a fresh subscription, exactly as a private open would
		// make one.
		delete(m.scans, p.Signature)
		s = nil
	}
	if s == nil {
		var err error
		s, err = e.openScan(p, src)
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
		m.scans[p.Signature] = s
	}
	s.refs++
	m.mu.Unlock()
	return s, nil
}

// openScan opens the physical source subscription for a new shared
// scan and starts its supervisor. Called with mgr.mu held (scan
// opening is a control-plane event; queries start rarely relative to
// rows flowing). The first open is synchronous so a broken source
// fails query start, exactly as a private open would.
func (e *Engine) openScan(p *plan.Query, src catalog.Source) (*SharedScan, error) {
	sctx, cancel := context.WithCancel(context.Background())
	s := &SharedScan{sig: p.Signature, source: p.Source, mgr: e.scans, ctx: sctx, cancel: cancel}
	// No column pruning: the scan serves every query shape with this
	// signature, including ones registered later, so the source must
	// materialize full rows. Pruning is a private-scan optimization.
	req := e.openRequest(src, p, s.noteErr)
	s.reopen = func() (<-chan exec.Batch, context.CancelFunc, error) {
		cctx, ccancel := context.WithCancel(sctx)
		batches, info, err := src.Open(cctx, req)
		if err != nil {
			ccancel()
			return nil, nil, err
		}
		if s.info == nil {
			s.info = info
		}
		return batches, ccancel, nil
	}

	batches, childCancel, err := s.reopen()
	if err != nil {
		cancel()
		return nil, err
	}
	s.pushedKey = pushedKey(p, s.info)
	s.ds = catalog.NewDerivedStream("scan:"+p.Signature, s.info.Schema)
	go s.supervise(batches, childCancel, scanPolicyFrom(e.opts))
	return s, nil
}

// supervise pumps the physical source into the fan-out stream and, on
// mid-stream failure, restarts it with capped backoff — transient
// stream drops stay invisible to attached queries (modulo the gap in
// rows) instead of terminating all of them. A streak of pol.maxRestarts
// consecutive failures (runs shorter than pol.healthyAfter) exhausts
// the budget; then — and on clean end of stream — the fan-out stream
// closes so every query sees end-of-stream, with the recorded error
// (if any) copied into its stats.
func (s *SharedScan) supervise(batches <-chan exec.Batch, childCancel context.CancelFunc, pol scanPolicy) {
	defer func() {
		s.ended.Store(true)
		s.ds.CloseStream()
	}()
	streak := 0
	for {
		if batches != nil {
			start := pol.now()
			err := s.pumpOnce(batches, childCancel)
			if err == nil {
				return // clean end of stream
			}
			if pol.now().Sub(start) >= pol.healthyAfter {
				streak = 0
			}
		}
		if pol.maxRestarts <= 0 || streak >= pol.maxRestarts {
			return // supervision off or budget exhausted; scanErr fans out
		}
		streak++
		if !resilience.Sleep(s.ctx, pol.backoff.Delay(streak-1)) {
			return // last query detached
		}
		var err error
		batches, childCancel, err = s.reopen()
		if err != nil {
			// Reopen failure counts against the streak like a failed run.
			s.noteErr(err)
			batches, childCancel = nil, nil
			continue
		}
		s.restarts.Add(1)
	}
}

// pumpOnce moves batches from one physical subscription into the
// fan-out stream until it ends, returning nil on clean end of stream
// and the recorded source error otherwise. The scan.source.recv fault
// point simulates a dropped connection: it cancels the subscription
// and surfaces an injected transient error.
func (s *SharedScan) pumpOnce(batches <-chan exec.Batch, childCancel context.CancelFunc) error {
	s.scanErr.Store(nil)
	for b := range batches {
		if fault.Active() {
			if err := fault.Check(s.ctx, "scan.source.recv"); err != nil {
				s.noteErr(err)
				childCancel()
				for range batches {
					// Drain the cancelled subscription's tail.
				}
				return err
			}
		}
		s.rowsIn.Add(int64(len(b)))
		s.batchesIn.Add(1)
		// The source hands over each batch (catalog.Source) and the
		// scan never touches it again: the stream may keep it.
		s.ds.PublishBatch(b)
	}
	childCancel()
	return s.err()
}

// noteErr records a mid-scan source error; every query attached at
// end-of-stream copies it into its own stats (a silently truncated
// shared stream must not look complete to anyone).
func (s *SharedScan) noteErr(err error) {
	if err != nil {
		s.scanErr.Store(&err)
	}
}

// err returns the recorded source error, if any.
func (s *SharedScan) err() error {
	if p := s.scanErr.Load(); p != nil {
		return *p
	}
	return nil
}

// attach subscribes one query to the scan's fan-out and returns the
// query's read of the subscription, re-cut to Options.BatchSize, and
// the subscription's wake channel. The subscription queues up to
// Options.SourceBuffer rows with drop-oldest backpressure — the
// streaming API's best-effort contract for a slow consumer, and what
// guarantees one stalled query (or join side) can never block its
// siblings or the scan. It is the only buffer between the scan and the
// query, which reads it in its consumer's goroutine. The query's scan
// reference ends with ctx (Stop, a LIMIT cut, the end of its cursor, or
// the caller's context), read or not: then it detaches and, when it is
// the last, closes the physical scan.
func (s *SharedScan) attach(ctx context.Context, opts Options, stats *exec.Stats) (scanRead, <-chan struct{}) {
	buffer := opts.SourceBuffer
	if buffer <= 0 {
		buffer = 4096
	}
	size := max(opts.BatchSize, 1)
	sub := s.ds.Subscribe(catalog.SubOptions{Buffer: buffer, Policy: catalog.DropOldest})
	context.AfterFunc(ctx, func() {
		sub.Cancel()
		s.mgr.detach(s)
	})
	var rows exec.Batch
	return func(wait context.Context) (exec.Batch, bool) {
		if len(rows) == 0 {
			// A private copy, never Recv's rows: those are shared with
			// the sibling queries, and a query may write its input in
			// place (INTO a store table, or the async plan's filter).
			var err error
			if rows, err = sub.RecvInto(wait, nil); err != nil {
				if err != catalog.ErrStreamClosed {
					return nil, ctx.Err() == nil // wait ended first
				}
				if serr := s.err(); serr != nil && ctx.Err() == nil {
					stats.NoteError(serr)
				}
				return nil, false
			}
		}
		// The whole queue arrives in one fresh slice; its disjoint
		// sub-slices pass to the query as batches.
		n := min(size, len(rows))
		b := rows[:n:n]
		rows = rows[n:]
		return b, true
	}, sub.Ready()
}

// detach drops one query's reference; the last reference closes the
// physical source subscription and forgets the scan.
func (m *scanManager) detach(s *SharedScan) {
	m.mu.Lock()
	s.refs--
	last := s.refs == 0
	if last && m.scans[s.sig] == s {
		delete(m.scans, s.sig)
	}
	m.mu.Unlock()
	if last {
		s.cancel()
	}
}
