// Column-major sealed segments (format v2). A v2 segment starts with
// the same magic + schema header as v1 (version byte 2), followed by
// length-framed blocks of ColBlockRows rows each. Inside a block the
// rows are transposed: one chunk for the event timestamps, then one
// chunk per schema column, each chunk choosing the lightest encoding
// its values admit — delta varints for int and time columns, a
// dictionary for low-cardinality strings, IEEE bits for floats, a
// bitmap for bools, and self-describing row encoding (AppendValue) as
// the raw fallback for mixed or exotic columns. The sidecar index
// gains a per-block zone map (row count + timestamp bounds) so a
// time-ranged scan skips whole blocks without reading them.
//
// v2 segments are only ever committed by sealing: the active segment
// stays a v1 row log (cheap single-row appends, torn-tail recovery),
// while a colBuilder (colbuild.go) encodes its blocks as rows arrive
// into a temp file that sealLocked renames over the row log. Corrupt or
// truncated v2 bytes must surface as ErrCorrupt (or a clean recovery
// truncation at a block boundary), never as a panic — the same
// discipline the v1 decoders follow, fuzz-pinned by FuzzDecodeColBlock
// and FuzzReadZoneMap.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync"
	"time"

	"tweeql/internal/value"
)

// colFormatVersion is the version byte of column-major segments.
const colFormatVersion = 2

// defaultColBlockRows is the block granularity when Options.ColBlockRows
// is unset: large enough to amortize chunk headers and give the zone
// map real skip leverage, small enough that one block decode stays
// cache-friendly.
const defaultColBlockRows = 4096

// Chunk encodings. Every chunk is tag byte + uvarint payload length +
// payload; the tag says how the payload maps back to one value per row.
const (
	// chunkRaw: concatenated AppendValue encodings — the fallback that
	// can carry any column (mixed kinds, NULLs, lists).
	chunkRaw = 0
	// chunkDict: uvarint entry count, the entries (uvarint length +
	// bytes) in first-appearance order, then one uvarint entry index per
	// row. Chosen over raw only when it is actually smaller.
	chunkDict = 1
	// chunkInts: one varint per row, delta-coded from the previous row
	// (the first delta is from zero).
	chunkInts = 2
	// chunkTimes: a presence bitmap (bit set = not the zero time), then one
	// delta-of-delta varint per present row over UnixNano — steady
	// arrival cadence makes second differences near zero. Zero times
	// have no defined UnixNano, so they live only in the bitmap.
	chunkTimes = 3
	// chunkFloats: 8 little-endian IEEE bytes per row.
	chunkFloats = 4
	// chunkBools: a bitmap, bit set = true.
	chunkBools = 5
)

// blockZone is one block's zone-map entry: where it starts, how many
// rows it holds, and its event-time bounds. minTS/maxTS cover the
// non-zero timestamps; allTS reports that every row has one — only
// then may a time-ranged scan skip the block, because rows without an
// event time match every range.
type blockZone struct {
	off          int64
	rows         int64
	minTS, maxTS int64
	hasTS        bool
	allTS        bool
}

// zoneOf computes a block's zone entry from its rows.
func zoneOf(off int64, rows []value.Tuple) blockZone {
	bz := blockZone{off: off, rows: int64(len(rows)), allTS: true}
	for i := range rows {
		ts := tsNano(rows[i].TS)
		if ts == 0 {
			bz.allTS = false
			continue
		}
		if !bz.hasTS {
			bz.minTS, bz.maxTS, bz.hasTS = ts, ts, true
			continue
		}
		if ts < bz.minTS {
			bz.minTS = ts
		}
		if ts > bz.maxTS {
			bz.maxTS = ts
		}
	}
	return bz
}

// skippable reports whether a time-ranged scan may drop the block on
// zone bounds alone.
func (bz *blockZone) skippable(from, to time.Time) bool {
	if !bz.allTS || !bz.hasTS {
		return false
	}
	if !from.IsZero() && bz.maxTS < from.UnixNano() {
		return true
	}
	if !to.IsZero() && bz.minTS > to.UnixNano() {
		return true
	}
	return false
}

// colCRC is the block checksum polynomial (Castagnoli, hardware-
// accelerated on the common platforms).
var colCRC = crc32.MakeTable(crc32.Castagnoli)

// colEncoder is the block encoder's scratch, reused block after block
// so that encoding allocates nothing once warm: the block body, one
// chunk payload at a time, and the string dictionary of the column
// being coded.
type colEncoder struct {
	body    []byte
	payload []byte
	dict    map[string]int
	order   []string
	ids     []int
}

// appendColBlock appends one framed column block for rows: uvarint
// body length, 4-byte little-endian CRC32-C of the body, body. The
// checksum is what a compressed format owes its readers — a bit flip
// inside dictionary bytes or a delta stream can decode into plausible
// wrong values, so structural validation alone cannot catch it.
func (e *colEncoder) appendColBlock(buf []byte, rows []value.Tuple, schema *value.Schema) []byte {
	body := binary.AppendUvarint(e.body[:0], uint64(len(rows)))
	body = e.appendTimeChunk(body, rows)
	for c := 0; c < schema.Len(); c++ {
		body = e.appendColChunk(body, rows, c)
	}
	e.body = body
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, colCRC))
	return append(buf, body...)
}

// splitColFrame splits one framed block off the front of p, verifying
// its checksum. rest is nil (with ok=false) when the frame is torn or
// corrupt.
func splitColFrame(p []byte) (body, rest []byte, ok bool) {
	l, w := binary.Uvarint(p)
	if w <= 0 || l == 0 || uint64(len(p)-w) < 4 || uint64(len(p)-w-4) < l {
		return nil, nil, false
	}
	crc := binary.LittleEndian.Uint32(p[w:])
	body = p[w+4 : w+4+int(l)]
	if crc32.Checksum(body, colCRC) != crc {
		return nil, nil, false
	}
	return body, p[w+4+int(l):], true
}

// appendChunk frames one encoded chunk payload.
func appendChunk(dst []byte, tag byte, payload []byte) []byte {
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// zeroed returns buf resized to n zero bytes (a presence bitmap to
// fill), growing it only when it is too small.
func zeroed(buf []byte, n int) []byte {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// uvarintLen is len(binary.AppendUvarint(nil, x)).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// appendTimeChunk encodes the event-timestamp column: presence bitmap
// plus delta-of-delta varints over the non-zero UnixNanos. Tweet
// streams carry near-monotonic created_at at a near-constant cadence,
// so the second differences hover around zero and fit one byte.
func (e *colEncoder) appendTimeChunk(dst []byte, rows []value.Tuple) []byte {
	payload := zeroed(e.payload, (len(rows)+7)/8)
	var prev, prevDelta int64
	for i := range rows {
		// Presence is the zero time's absence: 1970-01-01 is a present
		// time whose UnixNano happens to be 0.
		if rows[i].TS.IsZero() {
			continue
		}
		ns := rows[i].TS.UnixNano()
		payload[i/8] |= 1 << uint(i%8)
		d := ns - prev
		payload = binary.AppendVarint(payload, d-prevDelta)
		prev, prevDelta = ns, d
	}
	e.payload = payload
	return appendChunk(dst, chunkTimes, payload)
}

// appendColChunk encodes one schema column of the block, picking the
// encoding the column's kinds admit.
func (e *colEncoder) appendColChunk(dst []byte, rows []value.Tuple, col int) []byte {
	homog := true
	kind := rows[0].Values[col].KindRef()
	for i := 1; i < len(rows); i++ {
		if rows[i].Values[col].KindRef() != kind {
			homog = false
			break
		}
	}
	if homog {
		switch kind {
		case value.KindInt:
			return e.appendIntChunk(dst, rows, col)
		case value.KindFloat:
			return e.appendFloatChunk(dst, rows, col)
		case value.KindBool:
			return e.appendBoolChunk(dst, rows, col)
		case value.KindString:
			return e.appendStrChunk(dst, rows, col)
		case value.KindTime:
			return e.appendTimeColChunk(dst, rows, col)
		}
	}
	e.payload = appendRawPayload(e.payload[:0], rows, col)
	return appendChunk(dst, chunkRaw, e.payload)
}

// appendRawPayload concatenates the self-describing row encodings.
func appendRawPayload(payload []byte, rows []value.Tuple, col int) []byte {
	for i := range rows {
		payload = value.AppendValue(payload, rows[i].Values[col])
	}
	return payload
}

func (e *colEncoder) appendIntChunk(dst []byte, rows []value.Tuple, col int) []byte {
	payload := e.payload[:0]
	var prev int64
	for i := range rows {
		v := &rows[i].Values[col]
		// kernel: kind pre-proven
		n := v.IntRef()
		payload = binary.AppendVarint(payload, n-prev)
		prev = n
	}
	e.payload = payload
	return appendChunk(dst, chunkInts, payload)
}

func (e *colEncoder) appendFloatChunk(dst []byte, rows []value.Tuple, col int) []byte {
	payload := e.payload[:0]
	for i := range rows {
		v := &rows[i].Values[col]
		// kernel: kind pre-proven
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v.NumRef()))
	}
	e.payload = payload
	return appendChunk(dst, chunkFloats, payload)
}

func (e *colEncoder) appendBoolChunk(dst []byte, rows []value.Tuple, col int) []byte {
	payload := zeroed(e.payload, (len(rows)+7)/8)
	for i := range rows {
		if rows[i].Values[col].Truthy() {
			payload[i/8] |= 1 << uint(i%8)
		}
	}
	e.payload = payload
	return appendChunk(dst, chunkBools, payload)
}

// appendTimeColChunk reuses the timestamp encoding for a KindTime data
// column (created_at stored as a value, not just the tuple TS).
func (e *colEncoder) appendTimeColChunk(dst []byte, rows []value.Tuple, col int) []byte {
	payload := zeroed(e.payload, (len(rows)+7)/8)
	var prev, prevDelta int64
	for i := range rows {
		v := &rows[i].Values[col]
		// kernel: kind pre-proven
		ts := v.TimeRef()
		if ts.IsZero() {
			continue
		}
		ns := ts.UnixNano()
		payload[i/8] |= 1 << uint(i%8)
		d := ns - prev
		payload = binary.AppendVarint(payload, d-prevDelta)
		prev, prevDelta = ns, d
	}
	e.payload = payload
	return appendChunk(dst, chunkTimes, payload)
}

// appendStrChunk dictionary-codes a string column when that is smaller
// than the raw encoding (low-cardinality usernames, languages, repeated
// retweet texts), raw otherwise; a tie goes to raw. Both sizes are
// counted while interning, so only the winning payload is ever built.
func (e *colEncoder) appendStrChunk(dst []byte, rows []value.Tuple, col int) []byte {
	if e.dict == nil {
		e.dict = make(map[string]int)
	}
	clear(e.dict)
	order, ids := e.order[:0], e.ids[:0]
	rawLen, dictLen := 0, 0
	for i := range rows {
		v := &rows[i].Values[col]
		// kernel: kind pre-proven
		s := v.StrRef()
		rawLen += 1 + uvarintLen(uint64(len(s))) + len(s)
		id, ok := e.dict[s]
		if !ok {
			id = len(order)
			e.dict[s] = id
			order = append(order, s)
			dictLen += uvarintLen(uint64(len(s))) + len(s)
		}
		ids = append(ids, id)
		dictLen += uvarintLen(uint64(id))
	}
	dictLen += uvarintLen(uint64(len(order)))
	e.order, e.ids = order, ids
	if dictLen >= rawLen {
		e.payload = appendRawPayload(e.payload[:0], rows, col)
		return appendChunk(dst, chunkRaw, e.payload)
	}
	payload := binary.AppendUvarint(e.payload[:0], uint64(len(order)))
	for _, s := range order {
		payload = binary.AppendUvarint(payload, uint64(len(s)))
		payload = append(payload, s...)
	}
	for _, id := range ids {
		payload = binary.AppendUvarint(payload, uint64(id))
	}
	e.payload = payload
	return appendChunk(dst, chunkDict, payload)
}

// errColCorrupt builds the block decoders' uniform corruption error.
func errColCorrupt(what string) error {
	return fmt.Errorf("%w: column block: %s", ErrCorrupt, what)
}

// nextChunk splits one framed chunk off the front of p.
func nextChunk(p []byte) (tag byte, payload, rest []byte, err error) {
	if len(p) < 1 {
		return 0, nil, nil, errColCorrupt("missing chunk tag")
	}
	tag = p[0]
	l, w := binary.Uvarint(p[1:])
	if w <= 0 || uint64(len(p)-1-w) < l {
		return 0, nil, nil, errColCorrupt("bad chunk length")
	}
	body := p[1+w:]
	return tag, body[:l], body[l:], nil
}

// colDecoder is block-decoding scratch, reused block after block and
// scan after scan: the framed block bytes, the timestamp column, the row
// headers handed to the time filter (which copies the ones it keeps
// into the delivered batches), and the string dictionary of the chunk
// being decoded. Only the value arena is allocated per block, sized to
// the rows the scan's time range can keep, because the delivered rows
// keep pointing into it.
type colDecoder struct {
	frame []byte
	times []time.Time
	rows  []value.Tuple
	dict  []string
	cols  []byte // the open block's column chunks
}

// decoders recycles block-decoding scratch across scans, so that a
// scan's first block does not grow it all over again.
var decoders = sync.Pool{New: func() any { return new(colDecoder) }}

// release hands d back to decoders, first dropping its references to
// the last block's values and strings.
func (d *colDecoder) release() {
	clear(d.rows[:cap(d.rows)])
	clear(d.dict[:cap(d.dict)])
	d.cols = nil
	decoders.Put(d)
}

// readFrame reads the n bytes at off of f into the reused frame buffer.
func (d *colDecoder) readFrame(f *os.File, off, n int64) ([]byte, error) {
	d.frame = slices.Grow(d.frame[:0], int(n))[:n]
	_, err := f.ReadAt(d.frame, off)
	return d.frame, err
}

// decodeColBlock decodes one block body (the bytes inside the length
// frame) into rows of proj.schema, valid until the decoder's next call.
func (d *colDecoder) decodeColBlock(body []byte, proj *projection) ([]value.Tuple, error) {
	times, err := d.openBlock(body)
	if err != nil {
		return nil, err
	}
	return d.decodeRows(proj, 0, len(times))
}

// openBlock decodes a block body's row count and event-time chunk into
// d.times, which it returns, and keeps the column chunks for
// decodeRows. Every malformed shape met here or in decodeRows returns
// ErrCorrupt; no input may panic or over-allocate past the input size.
func (d *colDecoder) openBlock(body []byte) ([]time.Time, error) {
	d.cols = nil
	n64, w := binary.Uvarint(body)
	if w <= 0 || n64 == 0 {
		return nil, errColCorrupt("bad row count")
	}
	// The timestamp chunk comes first, and its presence bitmap needs
	// (n+7)/8 real bytes — that bounds the claimed row count against
	// actual input before anything allocates proportionally to it.
	tag, payload, rest, err := nextChunk(body[w:])
	if err != nil {
		return nil, err
	}
	if tag != chunkTimes || n64 > uint64(len(payload))*8 {
		return nil, errColCorrupt("bad timestamp chunk")
	}
	n := int(n64)
	d.times = slices.Grow(d.times[:0], n)[:n]
	if err := decodeTimeChunk(payload, d.times); err != nil {
		return nil, err
	}
	d.cols = rest
	return d.times, nil
}

// decodeRows decodes rows [lo, hi) of the block openBlock opened, a
// non-empty window its event times picked. Only the projection's
// columns are decoded, straight into the rows' shared value arena, which
// holds the window's rows alone; the other columns' chunks are framed
// and stepped over, their payloads never inspected. The decoded columns
// are parsed whole, so their structure is checked outside the window
// too.
func (d *colDecoder) decodeRows(proj *projection, lo, hi int) ([]value.Tuple, error) {
	k := len(proj.idx)
	d.rows = slices.Grow(d.rows[:0], hi-lo)[:hi-lo]
	rows := d.rows
	arena := make([]value.Value, (hi-lo)*k)
	for i := range rows {
		rows[i] = value.Tuple{
			Schema: proj.schema,
			Values: arena[i*k : (i+1)*k : (i+1)*k],
			TS:     d.times[lo+i],
		}
	}
	p := d.cols
	for c, j := 0, 0; c < proj.width; c++ {
		tag, payload, rest, err := nextChunk(p)
		if err != nil {
			return nil, err
		}
		p = rest
		if j == k || proj.idx[j] != c {
			continue
		}
		// Column j of the output: arena cells j, j+k, j+2k, …
		if err := d.decodeChunk(tag, payload, arena[j:], k, lo, hi); err != nil {
			return nil, err
		}
		j++
	}
	if len(p) != 0 {
		return nil, errColCorrupt("trailing bytes")
	}
	return rows, nil
}

// decodeChunk decodes one column chunk of len(d.times) values, storing
// rows [lo, hi) into dst[0], dst[stride], dst[2*stride], …. The block's
// event times are already in the rows, so d.times serves a time-coded
// column as scratch.
func (d *colDecoder) decodeChunk(tag byte, payload []byte, dst []value.Value, stride, lo, hi int) error {
	scratch := d.times
	n := len(scratch)
	switch tag {
	case chunkRaw:
		if n > len(payload) { // every encoded value is at least one byte
			return errColCorrupt("short raw chunk")
		}
		off := 0
		for i := 0; i < n; i++ {
			v, w, err := value.DecodeValue(payload[off:])
			if err != nil {
				return errColCorrupt("bad raw value")
			}
			if i >= lo && i < hi {
				dst[(i-lo)*stride] = v
			}
			off += w
		}
		if off != len(payload) {
			return errColCorrupt("raw chunk length mismatch")
		}
	case chunkDict:
		cnt, w := binary.Uvarint(payload)
		if w <= 0 || cnt > uint64(len(payload)) {
			return errColCorrupt("bad dictionary size")
		}
		p := payload[w:]
		dict := slices.Grow(d.dict[:0], int(cnt))[:cnt]
		d.dict = dict
		for i := range dict {
			l, w := binary.Uvarint(p)
			if w <= 0 || uint64(len(p)-w) < l {
				return errColCorrupt("bad dictionary entry")
			}
			dict[i] = string(p[w : w+int(l)])
			p = p[w+int(l):]
		}
		for i := 0; i < n; i++ {
			id, w := binary.Uvarint(p)
			if w <= 0 || id >= cnt {
				return errColCorrupt("bad dictionary index")
			}
			if i >= lo && i < hi {
				dst[(i-lo)*stride] = value.String(dict[id])
			}
			p = p[w:]
		}
		if len(p) != 0 {
			return errColCorrupt("dictionary chunk length mismatch")
		}
	case chunkInts:
		var prev int64
		for i := 0; i < n; i++ {
			d, w := binary.Varint(payload)
			if w <= 0 {
				return errColCorrupt("bad int delta")
			}
			prev += d
			if i >= lo && i < hi {
				dst[(i-lo)*stride] = value.Int(prev)
			}
			payload = payload[w:]
		}
		if len(payload) != 0 {
			return errColCorrupt("int chunk length mismatch")
		}
	case chunkTimes:
		if err := decodeTimeChunk(payload, scratch); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			dst[(i-lo)*stride] = value.Time(scratch[i])
		}
	case chunkFloats:
		if len(payload) != n*8 {
			return errColCorrupt("bad float chunk size")
		}
		for i := lo; i < hi; i++ {
			dst[(i-lo)*stride] = value.Float(math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:])))
		}
	case chunkBools:
		if len(payload) != (n+7)/8 {
			return errColCorrupt("bad bool chunk size")
		}
		for i := lo; i < hi; i++ {
			dst[(i-lo)*stride] = value.Bool(payload[i/8]&(1<<uint(i%8)) != 0)
		}
	default:
		return errColCorrupt(fmt.Sprintf("unknown chunk tag %d", tag))
	}
	return nil
}

// decodeTimeChunk decodes a presence-bitmap + delta-of-delta varint
// time chunk into out, one time per row (the zero time where absent).
func decodeTimeChunk(payload []byte, out []time.Time) error {
	n := len(out)
	bm := (n + 7) / 8
	if len(payload) < bm {
		return errColCorrupt("short time bitmap")
	}
	p := payload[bm:]
	var prev, prevDelta int64
	for i := 0; i < n; i++ {
		if payload[i/8]&(1<<uint(i%8)) == 0 {
			out[i] = time.Time{}
			continue
		}
		dd, w := binary.Varint(p)
		if w <= 0 {
			return errColCorrupt("bad time delta")
		}
		prevDelta += dd
		prev += prevDelta
		out[i] = time.Unix(0, prev).UTC()
		p = p[w:]
	}
	if len(p) != 0 {
		return errColCorrupt("time chunk length mismatch")
	}
	return nil
}

// recoverColSegment rebuilds a v2 segment's metadata by walking its
// blocks (the sidecar was missing or corrupt — a crash between the
// data rename and the index write). Decoding stops at the first block
// that does not parse and the file is truncated there: whole blocks
// are the recovery unit, exactly as whole records are for v1.
func recoverColSegment(m *segMeta) error {
	data, err := os.ReadFile(m.path)
	if err != nil {
		return err
	}
	off := m.hdrLen
	m.rows, m.hasTS, m.ordered, m.lastTS = 0, false, true, 0
	m.blocks = nil
	var d colDecoder
	proj := newProjection(m.schema, nil)
	for off < int64(len(data)) {
		body, rest, ok := splitColFrame(data[off:])
		if !ok {
			break
		}
		rows, err := d.decodeColBlock(body, proj)
		if err != nil {
			break
		}
		m.blocks = append(m.blocks, zoneOf(off, rows))
		for i := range rows {
			m.note(0, tsNano(rows[i].TS), 0)
		}
		off = int64(len(data) - len(rest))
	}
	m.dataEnd = off
	if off < int64(len(data)) {
		if err := os.Truncate(m.path, off); err != nil {
			return err
		}
	}
	return nil
}

// scanColFile streams one v2 segment's blocks through the row-level
// time filter, skipping blocks whose zone bounds miss the range.
func scanColFile(m *segMeta, from, to time.Time, s *scanState) error {
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for bi := range m.blocks {
		bz := &m.blocks[bi]
		if bz.skippable(from, to) {
			if m.ordered && !to.IsZero() && bz.hasTS && bz.minTS > to.UnixNano() {
				// Ordered segment already past the upper bound: every
				// later block is too.
				s.blocksSkipped += int64(len(m.blocks) - bi)
				return nil
			}
			s.blocksSkipped++
			continue
		}
		s.blocksRead++
		if f == nil {
			var err error
			if f, err = os.Open(m.path); err != nil {
				return err
			}
		}
		end := m.dataEnd
		if bi+1 < len(m.blocks) {
			end = m.blocks[bi+1].off
		}
		if end <= bz.off {
			return fmt.Errorf("%w: segment %s: bad block offsets", ErrCorrupt, m.path)
		}
		if s.dec == nil {
			s.dec = decoders.Get().(*colDecoder)
		}
		frame, err := s.dec.readFrame(f, bz.off, end-bz.off)
		if err != nil {
			return fmt.Errorf("%w: segment %s: truncated block: %v", ErrCorrupt, m.path, err)
		}
		body, _, ok := splitColFrame(frame)
		if !ok {
			return fmt.Errorf("%w: segment %s: corrupt block frame", ErrCorrupt, m.path)
		}
		times, err := s.dec.openBlock(body)
		if err != nil {
			return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, m.path, err)
		}
		lo, hi, stop := blockWindow(times, m.ordered, from, to)
		var rows []value.Tuple
		if lo < hi {
			if rows, err = s.dec.decodeRows(s.proj, lo, hi); err != nil {
				return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, m.path, err)
			}
			s.chunksDecoded += int64(len(s.proj.idx))
			s.chunksSkipped += int64(s.proj.width - len(s.proj.idx))
		} else {
			s.chunksSkipped += int64(s.proj.width) // no row in range: no column decoded
		}
		for i := range rows {
			if !inRange(rows[i].TS, from, to) {
				continue
			}
			if err := s.push(rows[i]); err != nil {
				return err
			}
		}
		if stop {
			// The ordered scan crossed the upper bound mid-block; the
			// remaining blocks were avoided, so count them with the
			// zone-map skips.
			s.blocksSkipped += int64(len(m.blocks) - bi - 1)
			return nil
		}
	}
	return nil
}

// blockWindow narrows a block to the rows [lo, hi) that filterPush's
// rules could keep, from the block's event times: every row outside is
// out of range, so only the window is decoded. On an ordered segment
// the window also ends at the first row past the upper bound, where
// the segment's scan stops; stop reports that.
func blockWindow(times []time.Time, ordered bool, from, to time.Time) (lo, hi int, stop bool) {
	hi = len(times)
	if ordered && !to.IsZero() {
		for i, ts := range times {
			if !ts.IsZero() && ts.After(to) {
				hi, stop = i, true
				break
			}
		}
	}
	for lo < hi && !inRange(times[lo], from, to) {
		lo++
	}
	for hi > lo && !inRange(times[hi-1], from, to) {
		hi--
	}
	return lo, hi, stop
}
