package store

import (
	"context"
	"os"

	"tweeql/internal/fault"
	"tweeql/internal/value"
)

// colBuilder builds the active segment's v2 image while rows arrive, so
// that sealing a columnar table commits a file it already wrote instead
// of re-reading, re-decoding and transposing the row log it just wrote.
//
// Every appended row still goes to the v1 row log exactly as on a row
// table (torn-tail recovery is unchanged); the builder copies its cells
// into a staging area of one block, blockRows × width cells. When the
// block fills it is encoded (appendColBlock, zoneOf) and its frame is
// streamed into <seg>.tmp beside the row log, so memory stays at one
// block. commit encodes the partial last block, fsyncs, and renames the
// temp file over the row log: the atomic replace the sidecar index
// uses, producing the same bytes a transposition of the row log would.
//
// Anything that would make the image differ from the row log — a row
// whose arity is not the schema's, a failed temp-file write, a replay
// that does not decode — fails the builder: the temp file goes, later
// rows are not staged, and the segment keeps its valid v1 seal. A temp
// file is never committed state: Open removes one a crash left behind,
// and Close removes the active segment's.
type colBuilder struct {
	seg       *segMeta // the segment being built; nil when idle
	tmp       string   // seg.path + ".tmp"
	blockRows int
	width     int
	cells     []value.Value // staging, blockRows × width cells
	rows      []value.Tuple // staging rows; Values are windows onto cells
	n         int           // rows staged in the current block
	total     int64         // rows taken since start
	enc       colEncoder
	frame     []byte // scratch: the frame (and, first, the header) being written

	f      *os.File // the temp file; nil until the first block is written
	hdrLen int64
	size   int64 // bytes written to f
	blocks []blockZone
	failed bool
}

// start points an idle builder at a segment with no rows staged,
// reusing the staging area when it is wide enough.
func (b *colBuilder) start(m *segMeta) {
	b.seg, b.tmp = m, m.path+".tmp"
	b.width = m.schema.Len()
	if need := b.blockRows * b.width; cap(b.cells) < need || len(b.rows) != b.blockRows {
		b.cells = make([]value.Value, need)
		b.rows = make([]value.Tuple, b.blockRows)
	}
	w := b.width
	for i := range b.rows {
		b.rows[i].Values = b.cells[i*w : (i+1)*w : (i+1)*w]
	}
}

// add stages one row, encoding and writing the block once it is full.
func (b *colBuilder) add(row value.Tuple) {
	if b.failed {
		return
	}
	if len(row.Values) != b.width {
		// The row log holds it, but it does not decode against the
		// segment schema: the transposition would fail, so must this.
		b.fail()
		return
	}
	r := &b.rows[b.n]
	copy(r.Values, row.Values)
	r.TS = row.TS
	b.n++
	b.total++
	if b.n == b.blockRows {
		b.writeBlock()
	}
}

// replay stages the rows of a recovered segment's flushed row log, the
// bytes in [hdrLen, end) of its data file.
func (b *colBuilder) replay(end int64) {
	m := b.seg
	data, err := os.ReadFile(m.path)
	if err != nil || int64(len(data)) < end {
		b.fail()
		return
	}
	for off := m.hdrLen; off < end && !b.failed; {
		rec, n, ok := decodeFrame(data[off:end], m.schema)
		if !ok {
			b.fail()
			return
		}
		b.add(rec)
		off += int64(n)
	}
}

// writeBlock encodes the staged rows as one block and appends its
// frame to the temp file, creating the file (header first) for the
// segment's first block.
func (b *colBuilder) writeBlock() {
	if b.n == 0 || b.failed {
		return
	}
	rows := b.rows[:b.n]
	b.n = 0
	buf := b.frame[:0]
	if b.f == nil {
		f, err := os.OpenFile(b.tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			b.fail()
			return
		}
		b.f = f
		buf = append(buf, segMagic...)
		buf = append(buf, colFormatVersion)
		buf = value.AppendSchema(buf, b.seg.schema)
		b.hdrLen = int64(len(buf))
	}
	b.blocks = append(b.blocks, zoneOf(b.size+int64(len(buf)), rows))
	buf = b.enc.appendColBlock(buf, rows, b.seg.schema)
	b.frame = buf
	n, err := fault.WrapWrite("store.seal.write", b.f.Write)(buf)
	b.size += int64(n)
	if err != nil {
		b.fail()
	}
}

// commit turns the segment into its v2 image: the partial last block is
// written, the temp file fsynced (when fsync) and renamed over the row
// log, and m takes the v2 layout (version, header length, data end,
// zones). On any failure, now or earlier, m is untouched and the temp
// file is gone: the segment keeps its v1 seal.
func (b *colBuilder) commit(fsync bool) {
	m := b.seg
	b.writeBlock()
	if !b.failed && (b.f == nil || b.total != m.rows) {
		b.fail() // cannot happen: every noted row was staged
	}
	if b.failed {
		return
	}
	f := b.f
	b.f = nil
	var err error
	if fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fault.Check(context.Background(), "store.seal.write")
	}
	if err == nil {
		err = os.Rename(b.tmp, m.path)
	}
	if err != nil {
		os.Remove(b.tmp)
		b.failed = true
		return
	}
	m.version, m.hdrLen, m.dataEnd = colFormatVersion, b.hdrLen, b.size
	m.blocks, b.blocks = b.blocks, nil
	m.index = nil
}

// fail abandons the image: the segment will keep its v1 seal.
func (b *colBuilder) fail() {
	b.failed = true
	if b.f != nil {
		b.f.Close()
		b.f = nil
		os.Remove(b.tmp)
	}
}

// stop returns the builder to idle after a seal or at Close, removing an
// uncommitted temp file and dropping the staged rows' references. The
// staging area and encoder scratch stay for the next segment.
func (b *colBuilder) stop() {
	b.fail()
	clear(b.cells)
	b.seg, b.n, b.total, b.hdrLen, b.size, b.blocks, b.failed = nil, 0, 0, 0, 0, nil, false
}
