package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tweeql/internal/value"
)

// tweetSchema mirrors the engine's logged firehose tables: the shape
// the columnar format is tuned for.
var tweetSchema = value.NewSchema(
	value.Field{Name: "text", Kind: value.KindString},
	value.Field{Name: "username", Kind: value.KindString},
	value.Field{Name: "followers", Kind: value.KindInt},
	value.Field{Name: "created_at", Kind: value.KindTime},
)

// tweetRow synthesizes a canned firehose row: texts repeat (retweets
// and bot chatter), usernames draw from a modest pool, follower counts
// are small ints, and created_at advances a few hundred ms per tweet —
// the distributions dictionary and delta coding exist for.
func tweetRow(i int) value.Tuple {
	ts := time.Unix(1307880000+int64(i)/4, int64(i%4)*250_000_000).UTC()
	return value.NewTuple(tweetSchema, []value.Value{
		value.String(fmt.Sprintf("soccer update %d: goal for team %d, what a match", i%97, i%13)),
		value.String(fmt.Sprintf("user%04d", i%211)),
		value.Int(int64((i * 37) % 100000)),
		value.Time(ts),
	}, ts)
}

func tweetRows(lo, hi int) []value.Tuple {
	out := make([]value.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, tweetRow(i))
	}
	return out
}

// sealNow forces the active segment to seal (white-box: the tests need
// sealed segments at exact row boundaries).
func sealNow(t *testing.T, tab *Table) {
	t.Helper()
	tab.mu.Lock()
	err := tab.sealLocked()
	tab.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// sealedBytes sums the sealed segments' data-file sizes.
func sealedBytes(t *testing.T, tab *Table) int64 {
	t.Helper()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	var total int64
	for _, m := range tab.sealed {
		info, err := os.Stat(m.path)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestColumnarRoundTrip pins byte-identical reads: the same appends
// through a v1 table and a columnar table must scan identically, full
// range and time-ranged, including across a close/reopen.
func TestColumnarRoundTrip(t *testing.T) {
	v1 := mustOpen(t, Options{Dir: t.TempDir()})
	v2 := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 128})
	rows := tweetRows(0, 3000)
	for _, tab := range []*Table{v1, v2} {
		if err := tab.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		sealNow(t, tab)
	}
	v2.mu.Lock()
	ver := v2.sealed[0].version
	nblocks := len(v2.sealed[0].blocks)
	v2.mu.Unlock()
	if ver != colFormatVersion {
		t.Fatalf("columnar seal produced version %d", ver)
	}
	if want := (3000 + 127) / 128; nblocks != want {
		t.Fatalf("blocks = %d, want %d", nblocks, want)
	}
	ranges := []struct{ from, to time.Time }{
		{time.Time{}, time.Time{}},
		{tweetRow(1000).TS, tweetRow(1999).TS},
		{tweetRow(2995).TS, time.Time{}},
	}
	for ri, r := range ranges {
		want := collect(t, v1, r.from, r.to)
		got := collect(t, v2, r.from, r.to)
		if len(want) != len(got) {
			t.Fatalf("range %d: v1=%d rows, v2=%d rows", ri, len(want), len(got))
		}
		for i := range want {
			if want[i].String() != got[i].String() || !want[i].TS.Equal(got[i].TS) {
				t.Fatalf("range %d row %d:\n v1 %s\n v2 %s", ri, i, want[i], got[i])
			}
		}
	}
	// Reopen and re-verify: the sidecar zone map round-trips.
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: v2.opts.Dir, Columnar: true, ColBlockRows: 128})
	got := collect(t, re, time.Time{}, time.Time{})
	if len(got) != 3000 || got[1234].String() != tweetRow(1234).String() {
		t.Fatalf("reopened columnar scan: %d rows", len(got))
	}
}

// TestColumnarRoundTripOddKinds runs the encodings the firehose shape
// does not exercise: NULL-interleaved (mixed) columns, bools, floats,
// lists, and rows without an event time.
func TestColumnarRoundTripOddKinds(t *testing.T) {
	schema := value.NewSchema(
		value.Field{Name: "dyn", Kind: value.KindNull},
		value.Field{Name: "ok", Kind: value.KindBool},
		value.Field{Name: "score", Kind: value.KindFloat},
		value.Field{Name: "tags", Kind: value.KindList},
	)
	mk := func(i int) value.Tuple {
		dyn := value.Null()
		if i%3 == 0 {
			dyn = value.Int(int64(i))
		} else if i%3 == 1 {
			dyn = value.String("mixed")
		}
		var ts time.Time // every third row has no event time
		if i%3 != 2 {
			ts = time.Unix(2000+int64(i), 0).UTC()
		}
		return value.NewTuple(schema, []value.Value{
			dyn,
			value.Bool(i%2 == 0),
			value.Float(float64(i) / 3),
			value.List([]value.Value{value.String("a"), value.Int(int64(i))}),
		}, ts)
	}
	var rows []value.Tuple
	for i := 0; i < 500; i++ {
		rows = append(rows, mk(i))
	}
	tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 64})
	if err := tab.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	sealNow(t, tab)
	got := collect(t, tab, time.Time{}, time.Time{})
	if len(got) != len(rows) {
		t.Fatalf("rows = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if rows[i].String() != got[i].String() || !rows[i].TS.Equal(got[i].TS) {
			t.Fatalf("row %d:\n want %s\n got  %s", i, rows[i], got[i])
		}
	}
}

// TestColumnarRoundTripEpochTimes: a time at 1970-01-01T00:00:00Z has
// UnixNano 0 but is a time, not the zero time, in the event time and in
// a time column alike; both formats read each back as written.
func TestColumnarRoundTripEpochTimes(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "at", Kind: value.KindTime})
	epoch := time.Unix(0, 0).UTC()
	times := []time.Time{epoch, {}, epoch.Add(-5), time.Unix(1307890800, 0).UTC(), epoch, {}, epoch.Add(3 * time.Second)}
	var rows []value.Tuple
	for i := 0; i < 200; i++ {
		rows = append(rows, value.NewTuple(schema, []value.Value{value.Time(times[(i+3)%len(times)])}, times[i%len(times)]))
	}
	for _, columnar := range []bool{false, true} {
		tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: columnar, ColBlockRows: 64})
		if err := tab.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		sealNow(t, tab)
		got := collect(t, tab, time.Time{}, time.Time{})
		if len(got) != len(rows) {
			t.Fatalf("columnar=%v: rows = %d, want %d", columnar, len(got), len(rows))
		}
		for i := range rows {
			wantAt, _ := rows[i].Values[0].TimeVal()
			gotAt, err := got[i].Values[0].TimeVal()
			if err != nil || !gotAt.Equal(wantAt) || gotAt.IsZero() != wantAt.IsZero() {
				t.Fatalf("columnar=%v row %d: at = %v, want %v", columnar, i, got[i].Values[0], rows[i].Values[0])
			}
			if !got[i].TS.Equal(rows[i].TS) || got[i].TS.IsZero() != rows[i].TS.IsZero() {
				t.Fatalf("columnar=%v row %d: event time %v, want %v", columnar, i, got[i].TS, rows[i].TS)
			}
		}
	}
}

// TestColumnarDensity is the compression acceptance gate: the canned
// firehose table must take at least 3x fewer on-disk bytes in v2
// column blocks than in v1 row segments.
func TestColumnarDensity(t *testing.T) {
	const n = 20000
	v1 := mustOpen(t, Options{Dir: t.TempDir()})
	v2 := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true})
	for _, tab := range []*Table{v1, v2} {
		if err := tab.AppendBatch(tweetRows(0, n)); err != nil {
			t.Fatal(err)
		}
		sealNow(t, tab)
	}
	rowBytes, colBytes := sealedBytes(t, v1), sealedBytes(t, v2)
	if colBytes == 0 || rowBytes == 0 {
		t.Fatalf("sealed bytes: v1=%d v2=%d", rowBytes, colBytes)
	}
	ratio := float64(rowBytes) / float64(colBytes)
	t.Logf("density: v1=%d bytes, v2=%d bytes, ratio=%.2fx", rowBytes, colBytes, ratio)
	if ratio < 3 {
		t.Errorf("columnar density %.2fx, want >= 3x (v1=%d v2=%d bytes)", ratio, rowBytes, colBytes)
	}
}

// TestColumnarBlockSkip pins the zone map's effect: a time-ranged scan
// over a sealed v2 segment must skip the blocks whose bounds miss the
// range, visibly in ScanCounters, while returning exactly the v1 rows.
func TestColumnarBlockSkip(t *testing.T) {
	tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 64})
	if err := tab.AppendBatch(tweetRows(0, 2048)); err != nil {
		t.Fatal(err)
	}
	sealNow(t, tab)
	c0 := tab.ScanCounters()
	from, to := tweetRow(512).TS, tweetRow(700).TS
	got := collect(t, tab, from, to)
	c1 := tab.ScanCounters()
	want := 0
	for i := 0; i < 2048; i++ {
		if r := tweetRow(i); !r.TS.Before(from) && !r.TS.After(to) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("ranged rows = %d, want %d", len(got), want)
	}
	read, skipped := c1.BlocksRead-c0.BlocksRead, c1.BlocksSkipped-c0.BlocksSkipped
	if skipped == 0 {
		t.Errorf("ranged scan skipped no blocks (read %d)", read)
	}
	if read+skipped != 2048/64 {
		t.Errorf("blocks read %d + skipped %d != total %d", read, skipped, 2048/64)
	}
	if read >= skipped {
		t.Errorf("read %d blocks vs %d skipped for a narrow range — zone map not biting", read, skipped)
	}
	// The full scan reads every block and skips none.
	c2 := tab.ScanCounters()
	if full := collect(t, tab, time.Time{}, time.Time{}); len(full) != 2048 {
		t.Fatalf("full scan rows = %d", len(full))
	}
	c3 := tab.ScanCounters()
	if c3.BlocksSkipped != c2.BlocksSkipped {
		t.Errorf("full scan skipped %d blocks", c3.BlocksSkipped-c2.BlocksSkipped)
	}
	if c3.BlocksRead-c2.BlocksRead != 2048/64 {
		t.Errorf("full scan read %d blocks, want %d", c3.BlocksRead-c2.BlocksRead, 2048/64)
	}
}

// TestColumnarRangeMatchesRowLog pins the windowed block decode: a v2
// table answers every time range and projection with exactly the rows
// the v1 row log does — ordered segments that stop mid-block, messy
// ones whose zero, epoch and out-of-order event times defeat the zone
// map and widen the window, bounds on and between rows, open bounds.
func TestColumnarRangeMatchesRowLog(t *testing.T) {
	scan := func(tab *Table, from, to time.Time, cols []string) []value.Tuple {
		var out []value.Tuple
		if err := tab.ScanColumns(from, to, 7, cols, func(b []value.Tuple) error {
			out = append(out, b...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// messy: every 13th row has no event time and every 17th arrived an
	// hour late, so the segment is unordered and those blocks unskippable.
	messy := tweetRows(0, 1000)
	for i := range messy {
		switch {
		case i%13 == 0:
			messy[i].TS = time.Time{}
		case i%17 == 0:
			messy[i].TS = messy[i].TS.Add(-time.Hour)
		}
	}
	for _, tc := range []struct {
		name string
		rows []value.Tuple
		cols [][]string
	}{
		{"ordered", tweetRows(0, 1000), [][]string{nil, {"followers"}, {"text", "created_at"}, {}}},
		{"messy", messy, [][]string{nil, {"username"}, {"created_at", "followers"}, {}}},
	} {
		for _, blockRows := range []int{1, 64} {
			v1 := mustOpen(t, Options{Dir: t.TempDir()})
			v2 := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: blockRows})
			for _, tab := range []*Table{v1, v2} {
				if err := tab.AppendBatch(tc.rows); err != nil {
					t.Fatal(err)
				}
				sealNow(t, tab)
			}
			bounds := []time.Time{{}}
			for _, i := range []int{0, 63, 64, 500, 999} {
				ts := tc.rows[i].TS
				bounds = append(bounds, ts, ts.Add(time.Millisecond), ts.Add(-time.Millisecond))
			}
			for fi, from := range bounds {
				for ti, to := range bounds {
					for _, cols := range tc.cols {
						want, got := scan(v1, from, to, cols), scan(v2, from, to, cols)
						if len(got) != len(want) {
							t.Fatalf("%s/%d [%d,%d] %v: v2 %d rows, v1 %d", tc.name, blockRows, fi, ti, cols, len(got), len(want))
						}
						for i := range want {
							if got[i].String() != want[i].String() || !got[i].TS.Equal(want[i].TS) {
								t.Fatalf("%s/%d [%d,%d] %v row %d:\n v2 %s\n v1 %s", tc.name, blockRows, fi, ti, cols, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestScanColumnsPrunedSchemaAndCounters pins the pruned scan's two
// promises to the engine: every row — decoded from a v2 block, from the
// v1 active segment, or from the append buffer — carries exactly the
// schema object PrunedSchema reported (so compiled column indices
// apply), and the chunk counters account for every column of every
// block read.
func TestScanColumnsPrunedSchemaAndCounters(t *testing.T) {
	tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 64})
	if err := tab.AppendBatch(tweetRows(0, 256)); err != nil {
		t.Fatal(err)
	}
	sealNow(t, tab) // rows 0..255: four v2 blocks
	if err := tab.AppendBatch(tweetRows(256, 300)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil { // rows 256..299: v1 on disk
		t.Fatal(err)
	}
	if err := tab.AppendBatch(tweetRows(300, 320)); err != nil { // buffered
		t.Fatal(err)
	}

	cols := []string{"followers", "USERNAME"}
	want := tab.PrunedSchema(cols)
	if want.String() != "(username string, followers int)" {
		t.Fatalf("PrunedSchema = %v", want)
	}
	c0 := tab.ScanCounters()
	n := 0
	err := tab.ScanColumns(time.Time{}, time.Time{}, 50, cols, func(batch []value.Tuple) error {
		for _, row := range batch {
			full := tweetRow(n)
			if row.Schema != want {
				t.Fatalf("row %d carries schema %p %v, PrunedSchema reported %p", n, row.Schema, row.Schema, want)
			}
			if len(row.Values) != 2 || row.Values[0].String() != full.Get("username").String() ||
				row.Values[1].String() != full.Get("followers").String() || !row.TS.Equal(full.TS) {
				t.Fatalf("row %d = %v @%v, want the projection of %v", n, row, row.TS, full)
			}
			n++
		}
		return nil
	})
	if err != nil || n != 320 {
		t.Fatalf("pruned scan: %d rows, err %v", n, err)
	}
	c1 := tab.ScanCounters()
	if dec, skip := c1.ChunksDecoded-c0.ChunksDecoded, c1.ChunksSkipped-c0.ChunksSkipped; dec != 4*2 || skip != 4*2 {
		t.Errorf("chunks decoded=%d skipped=%d over 4 blocks of 4 columns, want 8 and 8", dec, skip)
	}
	if again := tab.PrunedSchema([]string{"username", "followers", "absent"}); again != want {
		t.Error("the same kept columns must map to the same cached schema object")
	}
	if tab.PrunedSchema(nil) != tab.Schema() {
		t.Error("PrunedSchema(nil) must be the table schema itself")
	}
}

// TestColumnarUpgradeKeepsV1Readable pins the migration story: a table
// full of v1 segments reopened with Columnar=true keeps reading them,
// new seals come out v2, and the mixed table scans as one stream.
func TestColumnarUpgradeKeepsV1Readable(t *testing.T) {
	dir := t.TempDir()
	v1 := mustOpen(t, Options{Dir: dir})
	if err := v1.AppendBatch(tweetRows(0, 1000)); err != nil {
		t.Fatal(err)
	}
	sealNow(t, v1)
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}

	up := mustOpen(t, Options{Dir: dir, Columnar: true, ColBlockRows: 128})
	if got := collect(t, up, time.Time{}, time.Time{}); len(got) != 1000 {
		t.Fatalf("v1 rows after upgrade = %d", len(got))
	}
	if err := up.AppendBatch(tweetRows(1000, 2000)); err != nil {
		t.Fatal(err)
	}
	sealNow(t, up)
	up.mu.Lock()
	versions := make([]byte, 0, len(up.sealed))
	for _, m := range up.sealed {
		versions = append(versions, m.version)
	}
	up.mu.Unlock()
	if len(versions) != 2 || versions[0] != formatVersion || versions[1] != colFormatVersion {
		t.Fatalf("sealed versions = %v, want [v1 v2]", versions)
	}
	got := collect(t, up, time.Time{}, time.Time{})
	if len(got) != 2000 {
		t.Fatalf("mixed-table rows = %d", len(got))
	}
	for _, i := range []int{0, 999, 1000, 1999} {
		if got[i].String() != tweetRow(i).String() {
			t.Fatalf("mixed-table row %d:\n want %s\n got  %s", i, tweetRow(i), got[i])
		}
	}
}

// TestColumnarRecovery covers the two v2 crash shapes: a sealed v2
// segment that lost its sidecar (crash between data rename and index
// write) recovers by re-walking blocks; a torn block truncates at the
// previous block boundary, exactly as v1 truncates at a record.
func TestColumnarRecovery(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir, Columnar: true, ColBlockRows: 64})
	if err := tab.AppendBatch(tweetRows(0, 640)); err != nil {
		t.Fatal(err)
	}
	sealNow(t, tab)
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	idxs, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if err != nil || len(idxs) != 1 {
		t.Fatalf("idx files: %v %v", idxs, err)
	}
	if err := os.Remove(idxs[0]); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: dir, Columnar: true, ColBlockRows: 64})
	got := collect(t, re, time.Time{}, time.Time{})
	if len(got) != 640 || got[639].String() != tweetRow(639).String() {
		t.Fatalf("recovered scan rows = %d", len(got))
	}
	re.mu.Lock()
	nblocks := len(re.sealed[0].blocks)
	re.mu.Unlock()
	if nblocks != 10 {
		t.Fatalf("recovered zone map has %d blocks, want 10", nblocks)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: chop into the last block (and drop the sidecar again).
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segs: %v", segs)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-10); err != nil {
		t.Fatal(err)
	}
	idxs, _ = filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	for _, p := range idxs {
		os.Remove(p)
	}
	re2 := mustOpen(t, Options{Dir: dir, Columnar: true, ColBlockRows: 64})
	got = collect(t, re2, time.Time{}, time.Time{})
	if len(got) != 640-64 {
		t.Fatalf("rows after torn block = %d, want %d (whole blocks only)", len(got), 640-64)
	}
}

// TestColumnarCorruptBlockSurfaces pins the checksum: flipping bytes
// inside a sealed v2 block must fail the scan with ErrCorrupt, not
// decode into plausible wrong values.
func TestColumnarCorruptBlockSurfaces(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir, Columnar: true, ColBlockRows: 64})
	if err := tab.AppendBatch(tweetRows(0, 512)); err != nil {
		t.Fatal(err)
	}
	sealNow(t, tab)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = tab.Scan(time.Time{}, time.Time{}, 64, func([]value.Tuple) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("scan over flipped block = %v, want ErrCorrupt", err)
	}
}

// convertToColumnar is the seal path before the column-block builder,
// kept as the differential oracle for it (TestSealMatchesConversion,
// FuzzSealMatchesConversion): it rewrites a flushed, fsynced, closed v1
// segment as a v2 column-major file — decode the row log, transpose
// into blocks, write a temp file alongside, fsync, and rename over the
// .seg. On success m describes the v2 file (version, header length,
// data end, zones); on any error m is untouched and the caller keeps
// the v1 seal.
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

// appendColBlock encodes one block with a fresh encoder, so the oracle
// shares no scratch with the builder's reused one.
func appendColBlock(buf []byte, rows []value.Tuple, schema *value.Schema) []byte {
	var e colEncoder
	return e.appendColBlock(buf, rows, schema)
}

// oracleStrChunk is appendStrChunk before the encoder kept scratch and
// counted both sizes instead of building both payloads.
func oracleStrChunk(dst []byte, rows []value.Tuple, col int) []byte {
	dict, raw := oracleStrPayloads(rows, col)
	if len(dict) < len(raw) {
		return appendChunk(dst, chunkDict, dict)
	}
	return appendChunk(dst, chunkRaw, raw)
}

// oracleStrPayloads builds both candidate payloads of a string column,
// as appendStrChunk used to on every block.
func oracleStrPayloads(rows []value.Tuple, col int) (dict, raw []byte) {
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
	dict = binary.AppendUvarint(nil, uint64(len(order)))
	for _, s := range order {
		dict = binary.AppendUvarint(dict, uint64(len(s)))
		dict = append(dict, s...)
	}
	for _, id := range ids {
		dict = binary.AppendUvarint(dict, uint64(id))
	}
	return dict, appendRawPayload(nil, rows, col)
}
