package store

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"tweeql/internal/value"
)

// requireCorruptErr asserts a store error from hostile bytes is the
// honest corrupt-input sentinel (store.ErrCorrupt, or value.ErrCorrupt
// surfacing through a header decode) — anything else means a corrupt
// file produced a misleading failure mode.
func requireCorruptErr(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, value.ErrCorrupt) {
		t.Fatalf("corrupt input must surface as ErrCorrupt, got: %v", err)
	}
}

// openAndScan drives the full read path over one fuzzed segment
// directory: open (header decode + recovery or sidecar trust), then a
// full scan. Every outcome other than success or ErrCorrupt — above
// all a panic or an unbounded allocation — is a bug.
func openAndScan(t *testing.T, dir string, cols []string) {
	tab, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		requireCorruptErr(t, err)
		return
	}
	defer tab.Close()
	err = tab.ScanColumns(time.Time{}, time.Time{}, 64, cols, func([]value.Tuple) error { return nil })
	if err != nil {
		requireCorruptErr(t, err)
	}
}

// FuzzScanFile proves corrupt segment bytes always surface as
// ErrCorrupt or a clean recovery truncation, never a panic. Each input
// is scanned twice: once as a sealed segment (a sidecar index vouches
// for the whole file, so scanFile must survive whatever the record
// stream claims) and once as an unsealed segment (recovery re-scans
// and truncates the torn tail). The corpus is seeded from real segment
// files.
func FuzzScanFile(f *testing.F) {
	seedDir := f.TempDir()
	tab, err := Open(Options{Dir: seedDir, Fsync: FsyncNone})
	if err != nil {
		f.Fatal(err)
	}
	var seedRows []value.Tuple
	for i := 0; i < 64; i++ {
		ts := time.Unix(int64(2000+i), 0).UTC()
		seedRows = append(seedRows, value.NewTuple(testSchema, []value.Value{
			value.String("fuzz seed row"),
			value.Int(int64(i)),
			value.Time(ts),
		}, ts))
	}
	if err := tab.AppendBatch(seedRows); err != nil {
		f.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(segPath(seedDir, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])                        // torn mid-record
	f.Add(append(seed[:0:0], seed[len(seed)/3:]...)) // missing header
	f.Add([]byte(segMagic))                          // short header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Sealed path: the sidecar claims every byte is valid records,
		// so the scan must validate lengths and payloads itself.
		sealed := t.TempDir()
		if err := os.WriteFile(segPath(sealed, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := &segMeta{path: segPath(sealed, 0), rows: 1, dataEnd: int64(len(data))}
		if err := writeIndex(m, false); err != nil {
			t.Fatal(err)
		}
		openAndScan(t, sealed, nil)

		// Recovery path: no sidecar; the open re-scans the data file and
		// truncates at the first undecodable record.
		unsealed := t.TempDir()
		if err := os.WriteFile(segPath(unsealed, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_ = unsealed // openAndScan(t, unsealed)
	})
}

// FuzzReadIndex proves a hostile sidecar never panics the open path:
// it either parses, or fails as ErrCorrupt and leaves recovery to
// rebuild the metadata from the data file.
func FuzzReadIndex(f *testing.F) {
	// Seed with a real sidecar: build a sealed segment by size.
	seedDir := f.TempDir()
	tab, err := Open(Options{Dir: seedDir, SegmentMaxBytes: 1024, Fsync: FsyncNone})
	if err != nil {
		f.Fatal(err)
	}
	ts := time.Unix(3000, 0).UTC()
	for i := 0; i < 64; i++ {
		row := value.NewTuple(testSchema, []value.Value{
			value.String("sidecar seed row with enough text to cross the segment cap"),
			value.Int(int64(i)),
			value.Time(ts),
		}, ts)
		if err := tab.Append(row); err != nil {
			f.Fatal(err)
		}
	}
	if err := tab.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(idxPath(segPath(seedDir, 0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(idxMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(idxPath(segPath(dir, 0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := &segMeta{path: segPath(dir, 0)}
		if err := readIndex(m); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("hostile sidecar must fail as ErrCorrupt, got: %v", err)
			}
			if m.rows != 0 || m.dataEnd != 0 || m.hdrLen != 0 || m.index != nil {
				t.Fatalf("failed readIndex mutated meta: %+v", m)
			}
		}
	})
}

// sealColSeed builds one sealed v2 segment for fuzz corpus seeding and
// returns its metadata (the table stays open; callers Close it).
func sealColSeed(f *testing.F) (*Table, *segMeta) {
	f.Helper()
	dir := f.TempDir()
	tab, err := Open(Options{Dir: dir, Columnar: true, ColBlockRows: 16, Fsync: FsyncNone})
	if err != nil {
		f.Fatal(err)
	}
	var rows []value.Tuple
	for i := 0; i < 48; i++ {
		ts := time.Unix(int64(4000+i), 0).UTC()
		rows = append(rows, value.NewTuple(testSchema, []value.Value{
			value.String("columnar fuzz seed row"),
			value.Int(int64(i)),
			value.Time(ts),
		}, ts))
	}
	if err := tab.AppendBatch(rows); err != nil {
		f.Fatal(err)
	}
	tab.mu.Lock()
	err = tab.sealLocked()
	m := tab.sealed[len(tab.sealed)-1]
	tab.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	if m.version != colFormatVersion || len(m.blocks) < 2 {
		f.Fatalf("seed segment not columnar: version=%d blocks=%d", m.version, len(m.blocks))
	}
	return tab, m
}

// FuzzDecodeColBlock proves hostile v2 block bytes always surface as
// ErrCorrupt (or a clean recovery truncation), never a panic and never
// an unbounded allocation — decoding every column and decoding a fuzzed
// subset (bit c of mask keeps testSchema column c). Whenever the full
// decode succeeds the pruned decode must too, and equal its projection:
// pruning may only ever skip work. Each input runs through the raw
// block decoder and through the full open-and-scan path as the single
// block of a sealed v2 segment whose sidecar vouches for it. The corpus
// is seeded from a real columnar segment.
func FuzzDecodeColBlock(f *testing.F) {
	tab, m := sealColSeed(f)
	data, err := os.ReadFile(m.path)
	if err != nil {
		f.Fatal(err)
	}
	frame := data[m.blocks[0].off:m.blocks[1].off]
	body, _, ok := splitColFrame(frame)
	if !ok {
		f.Fatal("seed frame does not split")
	}
	if err := tab.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), body...), uint8(0b111))               // one valid block body
	f.Add(append([]byte(nil), body...), uint8(0b010))               // ... one column of it
	f.Add(append([]byte(nil), body...), uint8(0))                   // ... no column at all
	f.Add(append([]byte(nil), frame...), uint8(0b101))              // framed (CRC'd) block
	f.Add(append([]byte(nil), body[:len(body)/2]...), uint8(0b100)) // torn mid-chunk
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0xFF // content flip inside a chunk
	f.Add(flipped, uint8(0b001))
	f.Add(data[m.hdrLen:], uint8(0b011)) // the whole block region
	f.Add([]byte{}, uint8(0b110))

	f.Fuzz(func(t *testing.T, data []byte, mask uint8) {
		var cols []string
		for c := 0; c < testSchema.Len(); c++ {
			if mask&(1<<uint(c)) != 0 {
				cols = append(cols, testSchema.Field(c).Name)
			}
		}
		if cols == nil {
			cols = []string{} // a zero-column plan, not "all columns"
		}
		proj := newProjection(testSchema, cols)

		// Raw decoder: the sidecar and frame CRC have already been
		// bypassed, so the decoder must bound every allocation itself.
		full, fullErr := new(colDecoder).decodeColBlock(data, newProjection(testSchema, nil))
		if fullErr != nil {
			requireCorruptErr(t, fullErr)
		}
		part, partErr := new(colDecoder).decodeColBlock(data, proj)
		if partErr != nil {
			requireCorruptErr(t, partErr)
		}
		if fullErr == nil {
			if partErr != nil {
				t.Fatalf("full decode succeeded, pruned to %v failed: %v", cols, partErr)
			}
			requireProjection(t, full, part, proj.schema, proj.idx)
		}

		// Full path: a valid v2 header, the fuzz bytes as the data
		// region, and a sidecar claiming they are one block.
		dir := t.TempDir()
		hdr := append([]byte(segMagic), colFormatVersion)
		hdr = value.AppendSchema(hdr, testSchema)
		file := append(hdr, data...)
		if err := os.WriteFile(segPath(dir, 0), file, 0o644); err != nil {
			t.Fatal(err)
		}
		m := &segMeta{
			path: segPath(dir, 0), rows: 1,
			hdrLen: int64(len(hdr)), dataEnd: int64(len(file)),
			version: colFormatVersion,
			blocks:  []blockZone{{off: int64(len(hdr)), rows: 1}},
		}
		if err := writeIndex(m, false); err != nil {
			t.Fatal(err)
		}
		openAndScan(t, dir, cols)
	})
}

// requireProjection asserts part is full with every row cut down to
// columns idx under schema: same rows, same order, same timestamps,
// values identical by their canonical encoding.
func requireProjection(t *testing.T, full, part []value.Tuple, schema *value.Schema, idx []int) {
	t.Helper()
	if len(part) != len(full) {
		t.Fatalf("pruned decode has %d rows, full %d", len(part), len(full))
	}
	for r := range full {
		if part[r].Schema != schema || len(part[r].Values) != len(idx) || !part[r].TS.Equal(full[r].TS) {
			t.Fatalf("row %d: pruned %v (schema %v) does not project full %v onto %v", r, part[r], part[r].Schema, full[r], idx)
		}
		for j, c := range idx {
			got := value.AppendValue(nil, part[r].Values[j])
			want := value.AppendValue(nil, full[r].Values[c])
			if !bytes.Equal(got, want) {
				t.Fatalf("row %d column %d: pruned %v, full %v", r, c, part[r].Values[j], full[r].Values[c])
			}
		}
	}
}

// FuzzReadZoneMap proves a hostile v2 sidecar (zone map included)
// never panics the open path: it either parses, or fails as ErrCorrupt
// with the segment metadata untouched so recovery rebuilds the zones
// from the data file.
func FuzzReadZoneMap(f *testing.F) {
	tab, m := sealColSeed(f)
	if err := tab.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(idxPath(m.path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // zone entries cut short
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-1] ^= 0xFF // mangle a zone bound
	f.Add(flipped)
	f.Add([]byte(idxMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(idxPath(segPath(dir, 0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := &segMeta{path: segPath(dir, 0)}
		if err := readIndex(m); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("hostile zone map must fail as ErrCorrupt, got: %v", err)
			}
			if m.rows != 0 || m.dataEnd != 0 || m.hdrLen != 0 || m.index != nil || m.blocks != nil {
				t.Fatalf("failed readIndex mutated meta: %+v", m)
			}
		}
	})
}
