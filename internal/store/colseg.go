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
// v2 segments are only ever produced by sealing: the active segment
// stays a v1 row log (cheap single-row appends, torn-tail recovery),
// and sealLocked transposes it once the contents are final. Corrupt or
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
	"os"
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
	// chunkTimes: a presence bitmap (bit set = non-zero time), then one
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

// appendColBlock appends one framed column block for rows: uvarint
// body length, 4-byte little-endian CRC32-C of the body, body. The
// checksum is what a compressed format owes its readers — a bit flip
// inside dictionary bytes or a delta stream can decode into plausible
// wrong values, so structural validation alone cannot catch it.
func appendColBlock(buf []byte, rows []value.Tuple, schema *value.Schema) []byte {
	body := binary.AppendUvarint(nil, uint64(len(rows)))
	body = appendTimeChunk(body, rows)
	for c := 0; c < schema.Len(); c++ {
		body = appendColChunk(body, rows, c)
	}
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

// appendTimeChunk encodes the event-timestamp column: presence bitmap
// plus delta-of-delta varints over the non-zero UnixNanos. Tweet
// streams carry near-monotonic created_at at a near-constant cadence,
// so the second differences hover around zero and fit one byte.
func appendTimeChunk(dst []byte, rows []value.Tuple) []byte {
	n := len(rows)
	payload := make([]byte, (n+7)/8, (n+7)/8+n)
	var prev, prevDelta int64
	for i := range rows {
		ns := tsNano(rows[i].TS)
		if ns == 0 {
			continue
		}
		payload[i/8] |= 1 << uint(i%8)
		d := ns - prev
		payload = binary.AppendVarint(payload, d-prevDelta)
		prev, prevDelta = ns, d
	}
	return appendChunk(dst, chunkTimes, payload)
}

// appendColChunk encodes one schema column of the block, picking the
// encoding the column's kinds admit.
func appendColChunk(dst []byte, rows []value.Tuple, col int) []byte {
	homog := true
	kind := rows[0].Values[col].Kind()
	for i := 1; i < len(rows); i++ {
		if rows[i].Values[col].Kind() != kind {
			homog = false
			break
		}
	}
	if homog {
		switch kind {
		case value.KindInt:
			return appendIntChunk(dst, rows, col)
		case value.KindFloat:
			return appendFloatChunk(dst, rows, col)
		case value.KindBool:
			return appendBoolChunk(dst, rows, col)
		case value.KindString:
			return appendStrChunk(dst, rows, col)
		case value.KindTime:
			return appendTimeColChunk(dst, rows, col)
		}
	}
	return appendChunk(dst, chunkRaw, appendRawPayload(nil, rows, col))
}

// appendRawPayload concatenates the self-describing row encodings.
func appendRawPayload(payload []byte, rows []value.Tuple, col int) []byte {
	for i := range rows {
		payload = value.AppendValue(payload, rows[i].Values[col])
	}
	return payload
}

func appendIntChunk(dst []byte, rows []value.Tuple, col int) []byte {
	payload := make([]byte, 0, len(rows)*2)
	var prev int64
	for i := range rows {
		v := rows[i].Values[col]
		// kernel: kind pre-proven
		n := v.IntRaw()
		payload = binary.AppendVarint(payload, n-prev)
		prev = n
	}
	return appendChunk(dst, chunkInts, payload)
}

func appendFloatChunk(dst []byte, rows []value.Tuple, col int) []byte {
	payload := make([]byte, 0, len(rows)*8)
	for i := range rows {
		v := rows[i].Values[col]
		// kernel: kind pre-proven
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v.Num()))
	}
	return appendChunk(dst, chunkFloats, payload)
}

func appendBoolChunk(dst []byte, rows []value.Tuple, col int) []byte {
	payload := make([]byte, (len(rows)+7)/8)
	for i := range rows {
		if rows[i].Values[col].Truthy() {
			payload[i/8] |= 1 << uint(i%8)
		}
	}
	return appendChunk(dst, chunkBools, payload)
}

// appendTimeColChunk reuses the timestamp encoding for a KindTime data
// column (created_at stored as a value, not just the tuple TS).
func appendTimeColChunk(dst []byte, rows []value.Tuple, col int) []byte {
	n := len(rows)
	payload := make([]byte, (n+7)/8, (n+7)/8+n)
	var prev, prevDelta int64
	for i := range rows {
		v := rows[i].Values[col]
		// kernel: kind pre-proven
		tm := v.TimeRaw()
		ns := tsNano(tm)
		if ns == 0 {
			continue
		}
		payload[i/8] |= 1 << uint(i%8)
		d := ns - prev
		payload = binary.AppendVarint(payload, d-prevDelta)
		prev, prevDelta = ns, d
	}
	return appendChunk(dst, chunkTimes, payload)
}

// appendStrChunk dictionary-codes a string column when that is smaller
// than the raw encoding (low-cardinality usernames, languages, repeated
// retweet texts), raw otherwise.
func appendStrChunk(dst []byte, rows []value.Tuple, col int) []byte {
	idx := make(map[string]int)
	var order []string
	ids := make([]int, len(rows))
	for i := range rows {
		v := rows[i].Values[col]
		// kernel: kind pre-proven
		s := v.Str()
		id, ok := idx[s]
		if !ok {
			id = len(order)
			idx[s] = id
			order = append(order, s)
		}
		ids[i] = id
	}
	dict := binary.AppendUvarint(nil, uint64(len(order)))
	for _, s := range order {
		dict = binary.AppendUvarint(dict, uint64(len(s)))
		dict = append(dict, s...)
	}
	for _, id := range ids {
		dict = binary.AppendUvarint(dict, uint64(id))
	}
	raw := appendRawPayload(nil, rows, col)
	if len(dict) < len(raw) {
		return appendChunk(dst, chunkDict, dict)
	}
	return appendChunk(dst, chunkRaw, raw)
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

// decodeColBlock decodes one block body (the bytes inside the length
// frame) into rows of proj.schema. Only the projection's columns are
// decoded, straight into the rows' shared value arena; the other
// columns' chunks are framed and stepped over, their payloads never
// inspected. Every malformed shape met on the way returns ErrCorrupt;
// no input may panic or over-allocate past the input size.
func decodeColBlock(body []byte, proj *projection) ([]value.Tuple, error) {
	n64, w := binary.Uvarint(body)
	if w <= 0 || n64 == 0 {
		return nil, errColCorrupt("bad row count")
	}
	p := body[w:]
	// The timestamp chunk comes first, and its presence bitmap needs
	// (n+7)/8 real bytes — that bounds the claimed row count against
	// actual input before anything allocates proportionally to it.
	tag, payload, rest, err := nextChunk(p)
	if err != nil {
		return nil, err
	}
	if tag != chunkTimes || n64 > uint64(len(payload))*8 {
		return nil, errColCorrupt("bad timestamp chunk")
	}
	n := int(n64)
	// One time buffer serves the event timestamps and then, as scratch,
	// every time-coded data column.
	times := make([]time.Time, n)
	if err := decodeTimeChunk(payload, times); err != nil {
		return nil, err
	}
	k := len(proj.idx)
	rows := make([]value.Tuple, n)
	arena := make([]value.Value, n*k)
	for i := range rows {
		rows[i] = value.Tuple{
			Schema: proj.schema,
			Values: arena[i*k : (i+1)*k : (i+1)*k],
			TS:     times[i],
		}
	}
	p = rest
	for c, j := 0, 0; c < proj.width; c++ {
		tag, payload, rest, err = nextChunk(p)
		if err != nil {
			return nil, err
		}
		p = rest
		if j == k || proj.idx[j] != c {
			continue
		}
		// Column j of the output: arena cells j, j+k, j+2k, …
		if err := decodeChunk(tag, payload, arena[j:], k, times); err != nil {
			return nil, err
		}
		j++
	}
	if len(p) != 0 {
		return nil, errColCorrupt("trailing bytes")
	}
	return rows, nil
}

// decodeChunk decodes one column chunk into dst[0], dst[stride],
// dst[2*stride], … — one value per row, len(scratch) of them.
func decodeChunk(tag byte, payload []byte, dst []value.Value, stride int, scratch []time.Time) error {
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
			dst[i*stride] = v
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
		dict := make([]value.Value, cnt)
		for i := range dict {
			l, w := binary.Uvarint(p)
			if w <= 0 || uint64(len(p)-w) < l {
				return errColCorrupt("bad dictionary entry")
			}
			dict[i] = value.String(string(p[w : w+int(l)]))
			p = p[w+int(l):]
		}
		for i := 0; i < n; i++ {
			id, w := binary.Uvarint(p)
			if w <= 0 || id >= cnt {
				return errColCorrupt("bad dictionary index")
			}
			dst[i*stride] = dict[id]
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
			dst[i*stride] = value.Int(prev)
			payload = payload[w:]
		}
		if len(payload) != 0 {
			return errColCorrupt("int chunk length mismatch")
		}
	case chunkTimes:
		if err := decodeTimeChunk(payload, scratch); err != nil {
			return err
		}
		for i, ts := range scratch {
			dst[i*stride] = value.Time(ts)
		}
	case chunkFloats:
		if len(payload) != n*8 {
			return errColCorrupt("bad float chunk size")
		}
		for i := 0; i < n; i++ {
			dst[i*stride] = value.Float(math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:])))
		}
	case chunkBools:
		if len(payload) != (n+7)/8 {
			return errColCorrupt("bad bool chunk size")
		}
		for i := 0; i < n; i++ {
			dst[i*stride] = value.Bool(payload[i/8]&(1<<uint(i%8)) != 0)
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

// convertToColumnar rewrites a flushed, fsynced, closed v1 segment as a
// v2 column-major file: decode the row log, transpose into blocks,
// write a temp file alongside, fsync, and rename over the .seg — the
// same atomic-replace discipline the sidecar index uses. On success m
// describes the v2 file (version, header length, data end, zones); on
// any error m is untouched and the caller keeps the v1 seal.
func convertToColumnar(m *segMeta, blockRows int, fsync bool) error {
	data, err := os.ReadFile(m.path)
	if err != nil {
		return err
	}
	buf := append([]byte(segMagic), colFormatVersion)
	buf = value.AppendSchema(buf, m.schema)
	hdrLen := int64(len(buf))
	var blocks []blockZone
	var block []value.Tuple
	flush := func() {
		if len(block) == 0 {
			return
		}
		blocks = append(blocks, zoneOf(int64(len(buf)), block))
		buf = appendColBlock(buf, block, m.schema)
		block = block[:0]
	}
	off := m.hdrLen
	for off < int64(len(data)) {
		rec, n, ok := decodeFrame(data[off:], m.schema)
		if !ok {
			// A sealed v1 segment decodes end to end; a frame that does
			// not is corruption the caller should not paper over.
			return fmt.Errorf("%w: segment %s: bad frame during conversion", ErrCorrupt, m.path)
		}
		block = append(block, rec)
		off += int64(n)
		if len(block) >= blockRows {
			flush()
		}
	}
	flush()

	tmp := m.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, m.path); err != nil {
		os.Remove(tmp)
		return err
	}
	m.version = colFormatVersion
	m.hdrLen = hdrLen
	m.dataEnd = int64(len(buf))
	m.blocks = blocks
	m.index = nil
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
	for off < int64(len(data)) {
		body, rest, ok := splitColFrame(data[off:])
		if !ok {
			break
		}
		rows, err := decodeColBlock(body, newProjection(m.schema, nil))
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
		frame := make([]byte, end-bz.off)
		if _, err := f.ReadAt(frame, bz.off); err != nil {
			return fmt.Errorf("%w: segment %s: truncated block: %v", ErrCorrupt, m.path, err)
		}
		body, _, ok := splitColFrame(frame)
		if !ok {
			return fmt.Errorf("%w: segment %s: corrupt block frame", ErrCorrupt, m.path)
		}
		rows, err := decodeColBlock(body, s.proj)
		if err != nil {
			return fmt.Errorf("%w: segment %s: %v", ErrCorrupt, m.path, err)
		}
		s.chunksDecoded += int64(len(s.proj.idx))
		s.chunksSkipped += int64(s.proj.width - len(s.proj.idx))
		for i := range rows {
			if err := filterPush(rows[i], m.ordered, from, to, s); err != nil {
				if err == errStopScan {
					// The ordered scan crossed the upper bound mid-block;
					// the remaining blocks were avoided, so count them
					// with the zone-map skips.
					s.blocksSkipped += int64(len(m.blocks) - bi - 1)
					return nil
				}
				return err
			}
		}
	}
	return nil
}
