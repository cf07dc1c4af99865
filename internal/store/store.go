package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tweeql/internal/fault"
	"tweeql/internal/obs"
	"tweeql/internal/resilience"
	"tweeql/internal/value"
)

// Fsync is the durability policy of a table's appender.
type Fsync int

const (
	// FsyncOnSeal (the default) fsyncs a segment once, when it seals;
	// the active segment rides the OS page cache, and a crash loses at
	// most the unsynced tail (which recovery truncates cleanly).
	FsyncOnSeal Fsync = iota
	// FsyncNone never fsyncs; fastest, weakest.
	FsyncNone
	// FsyncOnFlush fsyncs after every flushed batch: an acknowledged
	// Flush is durable.
	FsyncOnFlush
)

// ParseFsync maps the user-facing policy names ("seal", "none",
// "flush") onto Fsync.
func ParseFsync(s string) (Fsync, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "seal":
		return FsyncOnSeal, nil
	case "none":
		return FsyncNone, nil
	case "flush", "always":
		return FsyncOnFlush, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want none, seal, or flush)", s)
}

// Options configure one table.
type Options struct {
	// Dir is the table's directory (created if missing).
	Dir string
	// SegmentMaxBytes seals the active segment once its data file
	// reaches this size. Default 64 MiB.
	SegmentMaxBytes int64
	// SegmentMaxAge seals the active segment this long after its first
	// append, so retention can reclaim quiet streams. 0 disables.
	SegmentMaxAge time.Duration
	// Fsync is the durability policy (see the constants).
	Fsync Fsync
	// FlushBytes bounds the appender's write buffer. Default 256 KiB.
	FlushBytes int
	// IndexEvery is the sparse-index granularity: one (offset,
	// timestamp) entry per this many rows. Default 512.
	IndexEvery int
	// RetainSegments keeps at most this many sealed segments, deleting
	// the oldest beyond it. 0 keeps everything.
	RetainSegments int
	// RetainMaxAge deletes sealed segments whose newest row is older
	// than this. 0 keeps everything.
	RetainMaxAge time.Duration
	// RetainMaxBytes caps the total data bytes across sealed segments,
	// deleting the oldest beyond the budget. The byte budget suits
	// always-on logged streams (the $sys.metrics history tables) where
	// what matters is disk, not count or age. 0 keeps everything.
	RetainMaxBytes int64
	// AppendRetries is how many times a failed data-file write or fsync
	// is retried (with a short capped backoff) before the table degrades
	// to read-only. Default 3; negative disables retries.
	AppendRetries int
	// NoLatencyHist disables the per-table append/scan latency
	// histograms (two clock reads per call). Benchmarks use it as the
	// uninstrumented baseline; production tables keep them on.
	NoLatencyHist bool
	// Columnar seals segments in the column-major compressed format
	// (v2) with per-block zone maps. The active segment always stays a
	// v1 row log — appends and recovery are unchanged — while its v2
	// blocks are built as rows arrive and committed when it seals; v1
	// sealed segments from before the option flipped remain readable
	// alongside v2 ones.
	Columnar bool
	// ColBlockRows is the v2 block granularity (rows per column block).
	// 0 = 4096. A columnar table stages one block of the active segment,
	// ColBlockRows × schema-width cells.
	ColBlockRows int

	// now overrides the clock in tests.
	now func() time.Time
}

func (o *Options) defaults() {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 64 << 20
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 256 << 10
	}
	if o.IndexEvery <= 0 {
		o.IndexEvery = 512
	}
	if o.AppendRetries == 0 {
		o.AppendRetries = 3
	}
	if o.AppendRetries < 0 {
		o.AppendRetries = 0
	}
	if o.ColBlockRows <= 0 {
		o.ColBlockRows = defaultColBlockRows
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// appendBackoff spaces write/fsync retries. It stays tiny because the
// retry loop runs under the table lock: the worst case (3 retries)
// blocks appenders ~14ms, while scans only briefly need the lock to
// snapshot state.
var appendBackoff = resilience.Backoff{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond}

// Table is one persistent, append-only, time-partitioned table. Safe
// for concurrent use: appends serialize on an internal lock; scans
// snapshot the segment list under it, then read files without it.
type Table struct {
	opts Options

	mu      sync.Mutex
	sealed  []*segMeta
	active  *segMeta
	f       *os.File // active segment data file
	written int64    // active data file size (bytes actually written)
	buf     []byte   // encoded records not yet written to f
	rec     []byte   // scratch: the record being encoded
	openAt  time.Time
	schema  *value.Schema // schema of the newest segment
	closed  bool
	// cb builds the active segment's v2 image when Options.Columnar;
	// see colBuilderLocked.
	cb *colBuilder

	scanned       atomic.Int64 // segments read by scans
	pruned        atomic.Int64 // segments skipped by time-range pruning
	blocksRead    atomic.Int64 // v2 column blocks decoded by scans
	blocksSkipped atomic.Int64 // v2 column blocks skipped on zone bounds
	chunksDecoded atomic.Int64 // v2 column chunks decoded by scans
	chunksSkipped atomic.Int64 // v2 column chunks framed past undecoded

	// projs caches the pruning projections, one per (segment schema
	// structure, kept column set); see projectionLocked. Guarded by mu.
	projs map[string]*projection

	// appendLat/scanLat time whole AppendBatch and Scan calls (nil when
	// Options.NoLatencyHist): the store's contribution to /metrics.
	appendLat *obs.Histogram
	scanLat   *obs.Histogram

	// readonly flips when a data-file write or fsync keeps failing after
	// retries: the table stops accepting appends (degradeErr says why)
	// but keeps serving scans — flushed segments and the pending buffer
	// stay readable. Guarded by mu.
	readonly   bool
	degradeErr error

	// writeHook overrides the active data-file write in tests (fault
	// injection for partial and failed writes); nil uses f.Write.
	writeHook func([]byte) (int, error)
	// scanHook runs in ScanColumns between taking the snapshot and
	// reading any file, in tests (a seal racing the scan); nil in
	// production.
	scanHook func()
}

// ErrClosed is returned by operations on a closed table.
var ErrClosed = errors.New("store: table is closed")

// ErrReadOnly is returned by appends after the table degraded to
// read-only (persistent write failure). Wrapped errors carry the cause.
var ErrReadOnly = errors.New("store: table is read-only")

// Open opens (creating or recovering as needed) the table at opts.Dir.
// Recovery reads sealed segments' sidecar indexes, re-scans any
// unsealed segment, and truncates a torn tail so subsequent appends
// land on a clean record boundary.
func Open(opts Options) (*Table, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	t := &Table{opts: opts}
	if !opts.NoLatencyHist {
		t.appendLat = obs.NewLatencyHistogram()
		t.scanLat = obs.NewLatencyHistogram()
	}

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crashed columnar conversion or index write left its temp
			// file behind; the rename never happened, so it carries no
			// committed data.
			os.Remove(filepath.Join(opts.Dir, name))
			continue
		}
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segSuffix))
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)

	canon := map[string]*value.Schema{} // one schema object per structure
	for i, seq := range seqs {
		m := &segMeta{seq: seq, path: segPath(opts.Dir, seq), ordered: true}
		isSealed := readIndex(m) == nil
		if err := readSegmentSchema(m, canon); err != nil {
			return nil, err
		}
		if isSealed && m.version == colFormatVersion && m.rows > 0 && len(m.blocks) == 0 {
			// A v2 data file with a v1 sidecar (or one missing its zone
			// map) cannot be block-scanned; rebuild it from the data.
			isSealed = false
		}
		if !isSealed {
			// Unsealed: the previous run's active segment, or a crash
			// before seal. Rebuild metadata by scanning, truncating a
			// torn tail at the last valid record boundary (v1) or block
			// boundary (v2).
			if err := recoverSegment(m, opts.IndexEvery); err != nil {
				return nil, err
			}
		}
		if i == len(seqs)-1 && !isSealed && m.version != colFormatVersion {
			// The newest unsealed segment stays active: reopen for
			// appending at the recovered end. (Never a v2 segment — the
			// appender writes row frames; a recovered v2 file seals.)
			f, err := os.OpenFile(m.path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			if _, err := f.Seek(m.dataEnd, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			t.active, t.f, t.written, t.openAt = m, f, m.dataEnd, opts.now()
		} else {
			if !isSealed {
				// A non-newest unsealed segment can only come from a
				// crash mid-rotation; seal it now.
				if err := writeIndex(m, opts.Fsync != FsyncNone); err != nil {
					return nil, err
				}
			}
			t.sealed = append(t.sealed, m)
		}
		t.schema = m.schema
	}
	t.applyRetentionLocked()
	return t, nil
}

// readSegmentSchema reads the schema from a segment's header and
// canonicalizes it: structurally equal schemas across segments share
// one *Schema, keeping the engine's compiled-expression fast path.
func readSegmentSchema(m *segMeta, canon map[string]*value.Schema) error {
	f, err := os.Open(m.path)
	if err != nil {
		return err
	}
	defer f.Close()
	schema, hdrLen, ver, err := readHeader(bufio.NewReaderSize(f, 64<<10))
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", m.path, err)
	}
	key := value.SchemaKey(schema)
	if c, ok := canon[key]; ok {
		schema = c
	} else {
		canon[key] = schema
	}
	m.schema, m.key, m.hdrLen, m.version = schema, key, hdrLen, ver
	return nil
}

// recoverSegment scans a segment without a sidecar index, rebuilding
// row count, bounds, order, and the sparse index, and truncating the
// file at the first record that does not decode — the torn tail of an
// interrupted write.
func recoverSegment(m *segMeta, indexEvery int) error {
	if m.version == colFormatVersion {
		return recoverColSegment(m)
	}
	f, err := os.Open(m.path)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return err
	}
	off := m.hdrLen
	for off < int64(len(data)) {
		rec, n, ok := decodeFrame(data[off:], m.schema)
		if !ok {
			break
		}
		m.note(off, tsNano(rec.TS), indexEvery)
		off += int64(n)
	}
	m.dataEnd = off
	if off < int64(len(data)) {
		if err := os.Truncate(m.path, off); err != nil {
			return err
		}
	}
	return nil
}

// decodeFrame decodes one length-prefixed record. ok is false when the
// frame is torn or corrupt.
func decodeFrame(buf []byte, schema *value.Schema) (value.Tuple, int, bool) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l == 0 || uint64(len(buf)-n) < l {
		return value.Tuple{}, 0, false
	}
	rec, used, err := value.DecodeTuple(buf[n:n+int(l)], schema)
	if err != nil || used != int(l) {
		return value.Tuple{}, 0, false
	}
	return rec, n + int(l), true
}

func tsNano(ts time.Time) int64 {
	if ts.IsZero() {
		return 0
	}
	return ts.UnixNano()
}

// AppendBatch appends rows. Records are buffered and written in
// batches; the active segment seals (and retention runs) when it
// crosses the size or age threshold. A row whose schema differs
// structurally from the active segment's starts a new segment. Every
// cell is copied before AppendBatch returns (encoded into the append
// buffer and, on a columnar table, staged in the active segment's
// column blocks), so neither the rows slice nor any row's Values is
// retained.
func (t *Table) AppendBatch(rows []value.Tuple) error {
	if len(rows) == 0 {
		return nil
	}
	if h := t.appendLat; h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start)) }()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.readonly {
		return t.readOnlyErrLocked()
	}
	for i := range rows {
		if err := t.appendLocked(rows[i]); err != nil {
			return err
		}
	}
	if len(t.buf) >= t.opts.FlushBytes {
		return t.flushLocked()
	}
	return nil
}

// readOnlyErrLocked wraps ErrReadOnly with the degradation cause.
func (t *Table) readOnlyErrLocked() error {
	return fmt.Errorf("%w: %v", ErrReadOnly, t.degradeErr)
}

// degradeLocked flips the table read-only after exhausted retries.
func (t *Table) degradeLocked(err error) {
	t.readonly = true
	t.degradeErr = err
}

// Healthy implements catalog.HealthReporter: nil while writable, the
// degradation reason once the table flipped read-only.
func (t *Table) Healthy() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.readonly {
		return t.readOnlyErrLocked()
	}
	return nil
}

// Append appends one row.
func (t *Table) Append(row value.Tuple) error {
	return t.AppendBatch([]value.Tuple{row})
}

func (t *Table) appendLocked(row value.Tuple) error {
	if row.Schema == nil {
		return errors.New("store: row without schema")
	}
	// Rotate on schema change (pointer check first — the common case is
	// every row carrying the same schema object).
	if t.active != nil && row.Schema != t.active.schema && value.SchemaKey(row.Schema) != t.active.key {
		if err := t.sealLocked(); err != nil {
			return err
		}
	}
	if t.active == nil {
		if err := t.newSegmentLocked(row.Schema); err != nil {
			return err
		}
	}
	m := t.active
	if t.opts.Columnar {
		// Before the row joins the log: a recovered segment's builder
		// replays the flushed row log first.
		t.colBuilderLocked().add(row)
	}
	off := t.written + int64(len(t.buf)) // this record's file offset
	t.rec = value.AppendTuple(t.rec[:0], row)
	t.buf = binary.AppendUvarint(t.buf, uint64(len(t.rec)))
	t.buf = append(t.buf, t.rec...)
	m.note(off, tsNano(row.TS), t.opts.IndexEvery)
	m.dataEnd = t.written + int64(len(t.buf))
	if m.dataEnd >= t.opts.SegmentMaxBytes ||
		(t.opts.SegmentMaxAge > 0 && t.opts.now().Sub(t.openAt) >= t.opts.SegmentMaxAge) {
		return t.sealLocked()
	}
	return nil
}

// colBuilderLocked returns the active segment's v2 builder, starting it
// on first use: empty for a segment this process created, replaying the
// flushed row log of one recovered at Open. Starting lazily keeps a
// reopen that only reads as cheap as on a row table.
func (t *Table) colBuilderLocked() *colBuilder {
	if t.cb == nil {
		t.cb = &colBuilder{blockRows: t.opts.ColBlockRows}
	}
	if t.cb.seg != t.active {
		t.cb.start(t.active)
		if t.active.rows > 0 {
			t.cb.replay(t.written)
		}
	}
	return t.cb
}

func (t *Table) newSegmentLocked(schema *value.Schema) error {
	seq := 0
	if n := len(t.sealed); n > 0 {
		seq = t.sealed[n-1].seq + 1
	}
	m := &segMeta{seq: seq, path: segPath(t.opts.Dir, seq), ordered: true}
	f, err := os.OpenFile(m.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdrLen, err := writeHeader(f, schema)
	if err != nil {
		f.Close()
		return err
	}
	if t.opts.Fsync != FsyncNone {
		syncDir(t.opts.Dir)
	}
	m.schema, m.key, m.hdrLen, m.dataEnd = schema, value.SchemaKey(schema), hdrLen, hdrLen
	t.active, t.f, t.written, t.openAt, t.schema = m, f, hdrLen, t.opts.now(), schema
	return nil
}

// flushLocked writes the buffered records to the active data file.
// Transient write failures retry with a short backoff; once retries
// are exhausted the table degrades to read-only (already-flushed
// segments and the pending buffer remain scannable).
func (t *Table) flushLocked() error {
	if t.f == nil || len(t.buf) == 0 {
		return nil
	}
	if t.readonly {
		return t.readOnlyErrLocked()
	}
	write := t.f.Write
	if t.writeHook != nil {
		write = t.writeHook
	}
	write = fault.WrapWrite("store.append.write", write)
	var err error
	for attempt := 0; attempt <= t.opts.AppendRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(appendBackoff.Delay(attempt - 1))
		}
		var n int
		n, err = write(t.buf)
		t.written += int64(n)
		// Drop what landed even on a short write: the file cursor has
		// moved past those bytes, so a retried flush that kept them would
		// write them twice and corrupt the record stream.
		t.buf = t.buf[:copy(t.buf, t.buf[n:])]
		if err == nil {
			break
		}
	}
	if err != nil {
		t.degradeLocked(err)
		return fmt.Errorf("store: flush: %w", err)
	}
	if t.opts.Fsync == FsyncOnFlush {
		return t.syncActiveLocked()
	}
	return nil
}

// syncActiveLocked fsyncs the active data file with the same retry/
// degrade discipline as flushLocked.
func (t *Table) syncActiveLocked() error {
	var err error
	for attempt := 0; attempt <= t.opts.AppendRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(appendBackoff.Delay(attempt - 1))
		}
		err = fault.Check(context.Background(), "store.append.fsync")
		if err == nil {
			err = t.f.Sync()
		}
		if err == nil {
			return nil
		}
	}
	t.degradeLocked(err)
	return fmt.Errorf("store: fsync: %w", err)
}

// Flush writes buffered records to the data file (and fsyncs under the
// "flush" policy).
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	return t.flushLocked()
}

// Sync flushes and fsyncs regardless of policy.
func (t *Table) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if err := t.flushLocked(); err != nil {
		return err
	}
	if t.f != nil {
		return t.f.Sync()
	}
	return nil
}

// sealLocked flushes, fsyncs (unless the policy is none), closes the
// active file, commits its v2 image on a columnar table, writes the
// sidecar index, and applies retention.
func (t *Table) sealLocked() error {
	if t.active == nil {
		return nil
	}
	if err := t.flushLocked(); err != nil {
		return err
	}
	if t.opts.Fsync != FsyncNone {
		if err := t.syncActiveLocked(); err != nil {
			return err
		}
	}
	if err := t.f.Close(); err != nil {
		return err
	}
	if t.opts.Columnar && t.active.rows > 0 {
		// The v1 file is already durable, and the commit replaces it
		// atomically, so a failure here just keeps the (perfectly valid)
		// v1 seal.
		t.colBuilderLocked().commit(t.opts.Fsync != FsyncNone)
	}
	if t.cb != nil {
		t.cb.stop()
	}
	if err := writeIndex(t.active, t.opts.Fsync != FsyncNone); err != nil {
		return err
	}
	t.sealed = append(t.sealed, t.active)
	t.active, t.f, t.written = nil, nil, 0
	t.applyRetentionLocked()
	return nil
}

// applyRetentionLocked deletes sealed segments beyond RetainSegments
// (oldest first), older than RetainMaxAge, or past the RetainMaxBytes
// byte budget. The active segment is never deleted.
func (t *Table) applyRetentionLocked() {
	drop := 0
	if n := t.opts.RetainSegments; n > 0 && len(t.sealed) > n {
		drop = len(t.sealed) - n
	}
	if age := t.opts.RetainMaxAge; age > 0 {
		cutoff := t.opts.now().Add(-age).UnixNano()
		for drop < len(t.sealed) {
			m := t.sealed[drop]
			if m.hasTS && m.maxTS < cutoff {
				drop++
				continue
			}
			break
		}
	}
	if budget := t.opts.RetainMaxBytes; budget > 0 {
		total := int64(0)
		for _, m := range t.sealed[drop:] {
			total += m.dataEnd
		}
		// Always keep the newest sealed segment, whatever its size:
		// retention must never empty the table entirely.
		for total > budget && drop < len(t.sealed)-1 {
			total -= t.sealed[drop].dataEnd
			drop++
		}
	}
	if drop == 0 {
		return
	}
	for _, m := range t.sealed[:drop] {
		os.Remove(m.path)
		os.Remove(idxPath(m.path))
	}
	t.sealed = append([]*segMeta{}, t.sealed[drop:]...)
	if t.opts.Fsync != FsyncNone {
		syncDir(t.opts.Dir)
	}
}

// Schema returns the schema of the newest segment, nil for an empty
// table.
func (t *Table) Schema() *value.Schema {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.schema
}

// Len reports the total row count across all segments (including rows
// still in the append buffer).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(0)
	for _, m := range t.sealed {
		n += m.rows
	}
	if t.active != nil {
		n += t.active.rows
	}
	return int(n)
}

// Segments reports (sealed, active) segment counts, for tests and
// introspection.
func (t *Table) Segments() (sealed, active int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active != nil {
		active = 1
	}
	return len(t.sealed), active
}

// Counters is a snapshot of the table's cumulative scan counters: how
// many whole segments scans read vs pruned on segment time bounds, how
// many v2 column blocks they decoded vs skipped on zone-map bounds, and
// inside the blocks read, how many schema-column chunks they decoded vs
// framed past because the query did not reference the column.
type Counters struct {
	SegmentsScanned int64
	SegmentsPruned  int64
	BlocksRead      int64
	BlocksSkipped   int64
	ChunksDecoded   int64
	ChunksSkipped   int64
}

// ScanCounters reports cumulative scan counters across all scans, the
// observability hook for time-range pruning and zone-map skipping.
func (t *Table) ScanCounters() Counters {
	return Counters{
		SegmentsScanned: t.scanned.Load(),
		SegmentsPruned:  t.pruned.Load(),
		BlocksRead:      t.blocksRead.Load(),
		BlocksSkipped:   t.blocksSkipped.Load(),
		ChunksDecoded:   t.chunksDecoded.Load(),
		ChunksSkipped:   t.chunksSkipped.Load(),
	}
}

// LatencySnapshots reports the table's append and scan latency
// histograms (zero snapshots when Options.NoLatencyHist disabled
// them) — the store families exported on /metrics.
func (t *Table) LatencySnapshots() (appendLat, scanLat obs.HistSnapshot) {
	return t.appendLat.Snapshot(), t.scanLat.Snapshot()
}

// projection is the column subset one scan reads from segments of one
// schema structure; every column, when the scan prunes nothing.
type projection struct {
	schema *value.Schema // what delivered rows carry; the segment schema itself when nothing is pruned
	idx    []int         // the segment-schema column behind each field, ascending
	width  int           // columns in the segment schema
}

// newProjection projects cols (nil = all) onto a segment schema by
// value.Schema.Prune's rule.
func newProjection(schema *value.Schema, cols []string) *projection {
	pruned, idx := schema.Prune(cols)
	return &projection{schema: pruned, idx: idx, width: schema.Len()}
}

// narrow cuts a freshly decoded full-width row down to the projection
// in place: idx ascends, so each kept value moves left or stays.
func (p *projection) narrow(rec *value.Tuple) {
	for j, c := range p.idx {
		rec.Values[j] = rec.Values[c]
	}
	k := len(p.idx)
	rec.Values = rec.Values[:k:k]
	rec.Schema = p.schema
}

// projectionLocked is newProjection with pruned schemas cached, so that
// every scan asking for the same columns of the same schema structure
// delivers rows carrying one *Schema — the one PrunedSchema reported.
func (t *Table) projectionLocked(schema *value.Schema, key string, cols []string) *projection {
	p := newProjection(schema, cols)
	if p.schema == schema {
		return p // nothing pruned: rows keep the segment's own schema
	}
	// Key on the kept positions, not the requested names: the cache is
	// bounded by the subsets of a schema, whatever statements ask.
	ck := binary.AppendUvarint(nil, uint64(len(p.idx)))
	for _, c := range p.idx {
		ck = binary.AppendUvarint(ck, uint64(c))
	}
	ck = append(ck, key...)
	if cached, ok := t.projs[string(ck)]; ok {
		return cached
	}
	if t.projs == nil {
		t.projs = make(map[string]*projection)
	}
	t.projs[string(ck)] = p
	return p
}

// PrunedSchema reports the schema object ScanColumns(…, cols, …) rows
// carry when read from segments of the newest schema; nil for an empty
// table.
func (t *Table) PrunedSchema(cols []string) *value.Schema {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.schema == nil {
		return nil
	}
	return t.projectionLocked(t.schema, value.SchemaKey(t.schema), cols).schema
}

// Scan is ScanColumns reading every column.
func (t *Table) Scan(from, to time.Time, batchHint int, fn func([]value.Tuple) error) error {
	return t.ScanColumns(from, to, batchHint, nil, fn)
}

// ScanColumns streams every row whose event timestamp falls in [from,
// to] (zero bounds are open; rows without an event time always match)
// to fn in freshly allocated batches of at most batchHint rows, in
// append order. Segments whose timestamp range cannot overlap the
// query's are pruned without being read; ordered segments additionally
// seek via their sparse index and stop early past the upper bound. fn
// owns each batch; an error from fn stops the scan and is returned.
//
// cols, when non-nil, names the only columns the caller reads: rows
// carry the segment schema pruned to them (value.Schema.Prune), and
// sealed v2 blocks skip the other columns' chunks without decoding
// them — after the block's whole-frame checksum verified, so corruption
// in an unread chunk still surfaces as ErrCorrupt.
func (t *Table) ScanColumns(from, to time.Time, batchHint int, cols []string, fn func([]value.Tuple) error) error {
	if batchHint < 1 {
		batchHint = 256
	}
	if h := t.scanLat; h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start)) }()
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	segs := make([]*segMeta, 0, len(t.sealed)+1)
	segs = append(segs, t.sealed...)
	var activeCopy *segMeta
	var activeFile *os.File
	var pending []byte
	var flushedEnd int64
	if t.active != nil {
		c := *t.active // snapshot of bounds and offsets
		activeCopy = &c
		pending = append([]byte(nil), t.buf...)
		flushedEnd = t.written
		segs = append(segs, activeCopy)
		if flushedEnd > c.hdrLen && c.overlaps(from, to) {
			// Open the row log now: once the lock is released a seal may
			// rename the segment's v2 image over this path, and the
			// snapshot's offsets describe the v1 bytes this descriptor
			// keeps.
			f, err := os.Open(c.path)
			if err != nil {
				t.mu.Unlock()
				return err
			}
			activeFile = f
			defer activeFile.Close()
		}
	}
	projs := make(map[*value.Schema]*projection) // one per distinct segment schema
	for _, m := range segs {
		if _, ok := projs[m.schema]; !ok {
			projs[m.schema] = t.projectionLocked(m.schema, m.key, cols)
		}
	}
	hook := t.scanHook
	t.mu.Unlock()
	if hook != nil {
		hook()
	}

	s := &scanState{batchHint: batchHint, fn: fn}
	defer func() {
		if s.dec != nil {
			s.dec.release()
		}
		t.blocksRead.Add(s.blocksRead)
		t.blocksSkipped.Add(s.blocksSkipped)
		t.chunksDecoded.Add(s.chunksDecoded)
		t.chunksSkipped.Add(s.chunksSkipped)
	}()
	for _, m := range segs {
		if !m.overlaps(from, to) {
			t.pruned.Add(1)
			continue
		}
		t.scanned.Add(1)
		s.proj = projs[m.schema]
		end, f := m.dataEnd, (*os.File)(nil)
		if m == activeCopy {
			end, f = flushedEnd, activeFile
		}
		if err := scanFile(m, f, end, from, to, s); err != nil {
			if os.IsNotExist(err) {
				// Retention removed the segment between snapshot and
				// open; its rows are gone by policy.
				continue
			}
			return err
		}
		if m == activeCopy {
			// Records still in the append buffer at snapshot time.
			if err := scanBytes(pending, m.schema, from, to, s); err != nil {
				return err
			}
		}
	}
	return s.flush()
}

type scanState struct {
	batchHint int
	batch     []value.Tuple
	fn        func([]value.Tuple) error
	// proj is the current segment's projection.
	proj *projection
	// dec is the v2 block decoder's scratch, shared by the scan's
	// blocks; taken from decoders at the first block.
	dec *colDecoder
	// Per-scan zone-map and chunk accounting, folded into the table's
	// cumulative counters when the scan finishes.
	blocksRead    int64
	blocksSkipped int64
	chunksDecoded int64
	chunksSkipped int64
}

func (s *scanState) push(row value.Tuple) error {
	if s.batch == nil {
		s.batch = make([]value.Tuple, 0, s.batchHint)
	}
	s.batch = append(s.batch, row)
	if len(s.batch) >= s.batchHint {
		return s.flush()
	}
	return nil
}

func (s *scanState) flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	b := s.batch
	s.batch = nil
	return s.fn(b)
}

func inRange(ts time.Time, from, to time.Time) bool {
	if ts.IsZero() {
		return true
	}
	if !from.IsZero() && ts.Before(from) {
		return false
	}
	if !to.IsZero() && ts.After(to) {
		return false
	}
	return true
}

// errStopScan ends a segment scan early (ordered segment past the
// upper bound) without aborting the whole Scan.
var errStopScan = errors.New("store: stop scan")

// scanFile streams one segment's records in [seek, end) through the
// row-level time filter, reading f when it is non-nil (the active
// segment, opened under the table lock) and m.path otherwise. v2
// segments go block-at-a-time through the zone map instead.
func scanFile(m *segMeta, f *os.File, end int64, from, to time.Time, s *scanState) error {
	if m.version == colFormatVersion {
		return scanColFile(m, from, to, s)
	}
	start := m.seekOffset(from)
	if start >= end {
		return nil
	}
	if f == nil {
		var err error
		if f, err = os.Open(m.path); err != nil {
			return err
		}
		defer f.Close()
	}
	br := bufio.NewReaderSize(io.NewSectionReader(f, start, end-start), 256<<10)
	for {
		l, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return nil
		}
		// Validate the on-disk length BEFORE allocating from it: a
		// corrupt varint can claim up to MaxUint64 bytes, and no valid
		// record can be longer than the scanned section itself.
		if err != nil || l == 0 || l > uint64(end-start) {
			return fmt.Errorf("%w: segment %s: bad record length", ErrCorrupt, m.path)
		}
		payload := make([]byte, l)
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("%w: segment %s: truncated record: %v", ErrCorrupt, m.path, err)
		}
		rec, used, err := value.DecodeTuple(payload, m.schema)
		if err != nil || used != int(l) {
			return fmt.Errorf("%w: segment %s: corrupt record", ErrCorrupt, m.path)
		}
		if err := filterPush(rec, m.ordered, from, to, s); err != nil {
			if err == errStopScan {
				return nil
			}
			return err
		}
	}
}

// scanBytes scans the in-memory pending buffer (always whole records:
// the buffer holds only complete encodings).
func scanBytes(data []byte, schema *value.Schema, from, to time.Time, s *scanState) error {
	off := 0
	for off < len(data) {
		rec, n, ok := decodeFrame(data[off:], schema)
		if !ok {
			return fmt.Errorf("%w: corrupt append buffer", ErrCorrupt)
		}
		off += n
		if err := filterPush(rec, false, from, to, s); err != nil {
			return err
		}
	}
	return nil
}

// filterPush applies the row-level time filter (and the ordered
// early-stop) before handing the record to the batcher. v1 records
// arrive full-width and are narrowed to the scan's projection here; v2
// rows were decoded already pruned.
func filterPush(rec value.Tuple, ordered bool, from, to time.Time, s *scanState) error {
	if ordered && !to.IsZero() && !rec.TS.IsZero() && rec.TS.After(to) {
		return errStopScan
	}
	if !inRange(rec.TS, from, to) {
		return nil
	}
	if rec.Schema != s.proj.schema {
		s.proj.narrow(&rec)
	}
	return s.push(rec)
}

// Close flushes, fsyncs (unless the policy is none), and closes the
// table. The active segment is left unsealed — reopening recovers it
// and appends continue in place.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if t.cb != nil {
		t.cb.stop() // the active segment's temp image is not committed state
	}
	if err := t.flushLocked(); err != nil {
		return err
	}
	if t.f != nil {
		var err error
		if t.opts.Fsync != FsyncNone {
			err = t.syncActiveLocked()
		}
		if cerr := t.f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return nil
}
