package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tweeql/internal/value"
)

var testSchema = value.NewSchema(
	value.Field{Name: "text", Kind: value.KindString},
	value.Field{Name: "n", Kind: value.KindInt},
	value.Field{Name: "created_at", Kind: value.KindTime},
)

// row builds a deterministic test row whose event time advances one
// second per index.
func row(i int) value.Tuple {
	ts := time.Unix(int64(1000+i), 0).UTC()
	return value.NewTuple(testSchema, []value.Value{
		value.String(fmt.Sprintf("tweet number %d with some padding text", i)),
		value.Int(int64(i)),
		value.Time(ts),
	}, ts)
}

func rows(lo, hi int) []value.Tuple {
	out := make([]value.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, row(i))
	}
	return out
}

func collect(t *testing.T, tab *Table, from, to time.Time) []value.Tuple {
	t.Helper()
	var out []value.Tuple
	if err := tab.Scan(from, to, 7, func(b []value.Tuple) error {
		out = append(out, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustOpen(t *testing.T, opts Options) *Table {
	t.Helper()
	tab, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	return tab
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir})
	if err := tab.AppendBatch(rows(0, 100)); err != nil {
		t.Fatal(err)
	}
	got := collect(t, tab, time.Time{}, time.Time{})
	if len(got) != 100 {
		t.Fatalf("scan before close: %d rows", len(got))
	}
	for i, r := range got {
		if r.String() != row(i).String() {
			t.Fatalf("row %d: %s != %s", i, r, row(i))
		}
		if !r.TS.Equal(row(i).TS) {
			t.Fatalf("row %d TS: %v != %v", i, r.TS, row(i).TS)
		}
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir})
	if re.Len() != 100 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	if re.Schema() == nil || re.Schema().String() != testSchema.String() {
		t.Fatalf("reopened schema = %v", re.Schema())
	}
	got = collect(t, re, time.Time{}, time.Time{})
	if len(got) != 100 || got[42].String() != row(42).String() {
		t.Fatalf("reopened scan: %d rows", len(got))
	}
	// Appends continue on the recovered active segment.
	if err := re.AppendBatch(rows(100, 110)); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, re, time.Time{}, time.Time{}); len(got) != 110 {
		t.Fatalf("after reopen+append: %d rows", len(got))
	}
	if sealed, active := re.Segments(); sealed != 0 || active != 1 {
		t.Fatalf("segments = %d sealed, %d active", sealed, active)
	}
}

func TestSegmentSealAndTimeRange(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir, SegmentMaxBytes: 2 << 10, IndexEvery: 8})
	if err := tab.AppendBatch(rows(0, 500)); err != nil {
		t.Fatal(err)
	}
	sealed, _ := tab.Segments()
	if sealed < 3 {
		t.Fatalf("sealed segments = %d, want several at a 2KiB cap", sealed)
	}
	// Full scan sees everything in order across segment boundaries.
	got := collect(t, tab, time.Time{}, time.Time{})
	if len(got) != 500 {
		t.Fatalf("rows = %d", len(got))
	}
	// Time-bounded scan returns exactly [from, to] and prunes segments.
	c0 := tab.ScanCounters()
	from, to := row(100).TS, row(199).TS
	got = collect(t, tab, from, to)
	if len(got) != 100 {
		t.Fatalf("ranged rows = %d", len(got))
	}
	for i, r := range got {
		if v, _ := r.Get("n").IntVal(); v != int64(100+i) {
			t.Fatalf("ranged row %d = n%d", i, v)
		}
	}
	c1 := tab.ScanCounters()
	if c1.SegmentsPruned-c0.SegmentsPruned == 0 {
		t.Errorf("ranged scan pruned no segments (scanned %d)", c1.SegmentsScanned-c0.SegmentsScanned)
	}
	if c1.SegmentsScanned-c0.SegmentsScanned >= c0.SegmentsScanned {
		t.Errorf("ranged scan read %d segments, full scan read %d — no pruning win", c1.SegmentsScanned-c0.SegmentsScanned, c0.SegmentsScanned)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir})
	if err := tab.AppendBatch(rows(0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, 0)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload.
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir})
	got := collect(t, re, time.Time{}, time.Time{})
	if len(got) != 49 {
		t.Fatalf("after torn tail: %d rows, want 49", len(got))
	}
	if re.Len() != 49 {
		t.Fatalf("Len after torn tail = %d", re.Len())
	}
	// The tail is gone from disk, and subsequent appends succeed and
	// survive another reopen.
	if err := re.AppendBatch(rows(50, 60)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, Options{Dir: dir})
	got = collect(t, re2, time.Time{}, time.Time{})
	if len(got) != 59 {
		t.Fatalf("after recover+append+reopen: %d rows, want 59", len(got))
	}
	if v, _ := got[49].Get("n").IntVal(); v != 50 {
		t.Fatalf("first post-recovery row n = %d", v)
	}
}

func TestGarbageTailRecovery(t *testing.T) {
	// A tail of garbage bytes (a huge bogus length prefix) must also
	// truncate cleanly, not just a short record.
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir})
	if err := tab.AppendBatch(rows(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, 0)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := mustOpen(t, Options{Dir: dir})
	if got := collect(t, re, time.Time{}, time.Time{}); len(got) != 10 {
		t.Fatalf("after garbage tail: %d rows", len(got))
	}
}

func TestRetentionBySegmentCount(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir, SegmentMaxBytes: 2 << 10, RetainSegments: 2})
	if err := tab.AppendBatch(rows(0, 500)); err != nil {
		t.Fatal(err)
	}
	sealed, _ := tab.Segments()
	if sealed != 2 {
		t.Fatalf("sealed segments = %d, want 2 retained", sealed)
	}
	got := collect(t, tab, time.Time{}, time.Time{})
	if len(got) == 0 || len(got) >= 500 {
		t.Fatalf("retained rows = %d", len(got))
	}
	// The survivors are the newest rows, ending at 499.
	if v, _ := got[len(got)-1].Get("n").IntVal(); v != 499 {
		t.Fatalf("last retained n = %d", v)
	}
	// Deleted segment files are gone from disk.
	entries, _ := os.ReadDir(dir)
	segFiles := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == segSuffix {
			segFiles++
		}
	}
	if want := sealed + 1; segFiles > want {
		t.Errorf("segment files on disk = %d, want <= %d", segFiles, want)
	}
}

func TestRetentionByAge(t *testing.T) {
	dir := t.TempDir()
	// Start the clock just past the newest row, so the 1h window keeps
	// everything until the jump below.
	clock := time.Unix(1300, 0)
	opts := Options{Dir: dir, SegmentMaxBytes: 2 << 10, RetainMaxAge: time.Hour,
		now: func() time.Time { return clock }}
	tab := mustOpen(t, opts)
	if err := tab.AppendBatch(rows(0, 300)); err != nil {
		t.Fatal(err)
	}
	before, _ := tab.Segments()
	if before < 2 {
		t.Fatalf("sealed = %d, need several", before)
	}
	// Jump the clock far past every row's timestamp and trigger a seal.
	clock = time.Unix(1000+300, 0).Add(48 * time.Hour)
	if err := tab.AppendBatch(rows(300, 600)); err != nil {
		t.Fatal(err)
	}
	after, _ := tab.Segments()
	if after >= before {
		// All pre-jump segments hold rows older than the cutoff; the
		// count must have dropped despite the new appends sealing more.
		t.Errorf("sealed segments %d -> %d; age retention deleted nothing", before, after)
	}
}

func TestRetentionByBytes(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir, SegmentMaxBytes: 2 << 10, RetainMaxBytes: 5 << 10})
	if err := tab.AppendBatch(rows(0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: dir, SegmentMaxBytes: 2 << 10, RetainMaxBytes: 5 << 10})
	sealed, _ := re.Segments()
	// ~2KiB segments under a 5KiB budget: at most 3 sealed survive (the
	// budget check runs at seal time, before the next segment opens).
	if sealed < 1 || sealed > 3 {
		t.Fatalf("sealed segments = %d, want 1..3 under byte budget", sealed)
	}
	got := collect(t, re, time.Time{}, time.Time{})
	if len(got) == 0 || len(got) >= 1000 {
		t.Fatalf("retained rows = %d, want a strict newest suffix", len(got))
	}
	if v, _ := got[len(got)-1].Get("n").IntVal(); v != 999 {
		t.Fatalf("last retained n = %d, want 999", v)
	}
}

func TestRetentionByBytesKeepsNewestSegment(t *testing.T) {
	// A budget smaller than any single segment must still keep the
	// newest sealed segment rather than emptying the table.
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir, SegmentMaxBytes: 2 << 10, RetainMaxBytes: 1})
	if err := tab.AppendBatch(rows(0, 500)); err != nil {
		t.Fatal(err)
	}
	sealed, _ := tab.Segments()
	if sealed != 1 {
		t.Fatalf("sealed segments = %d, want exactly the newest kept", sealed)
	}
	if got := collect(t, tab, time.Time{}, time.Time{}); len(got) == 0 {
		t.Fatal("byte retention deleted every row")
	}
}

func TestOutOfOrderTimestamps(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir, IndexEvery: 4})
	// Reverse order: the segment must mark itself unordered and serve
	// exact ranged scans via the full-scan path.
	var rs []value.Tuple
	for i := 99; i >= 0; i-- {
		rs = append(rs, row(i))
	}
	if err := tab.AppendBatch(rs); err != nil {
		t.Fatal(err)
	}
	got := collect(t, tab, row(10).TS, row(19).TS)
	if len(got) != 10 {
		t.Fatalf("ranged rows on unordered segment = %d", len(got))
	}
	// Zero-timestamp rows match every range.
	zero := value.NewTuple(testSchema, []value.Value{value.String("no ts"), value.Int(-1), value.Null()}, time.Time{})
	if err := tab.Append(zero); err != nil {
		t.Fatal(err)
	}
	got = collect(t, tab, row(90).TS, time.Time{})
	found := false
	for _, r := range got {
		if v, _ := r.Get("n").IntVal(); v == -1 {
			found = true
		}
	}
	if !found {
		t.Error("zero-timestamp row missing from ranged scan")
	}
}

func TestSchemaChangeRotatesSegment(t *testing.T) {
	dir := t.TempDir()
	tab := mustOpen(t, Options{Dir: dir})
	if err := tab.AppendBatch(rows(0, 5)); err != nil {
		t.Fatal(err)
	}
	other := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
	r2 := value.NewTuple(other, []value.Value{value.Int(7)}, time.Unix(2000, 0))
	if err := tab.Append(r2); err != nil {
		t.Fatal(err)
	}
	sealed, active := tab.Segments()
	if sealed != 1 || active != 1 {
		t.Fatalf("segments after schema change = %d sealed, %d active", sealed, active)
	}
	if tab.Schema().String() != other.String() {
		t.Errorf("table schema = %s", tab.Schema())
	}
	got := collect(t, tab, time.Time{}, time.Time{})
	if len(got) != 6 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[5].Schema.String() != other.String() || got[0].Schema.String() != testSchema.String() {
		t.Error("per-segment schemas lost")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for name, policy := range map[string]Fsync{"none": FsyncNone, "seal": FsyncOnSeal, "flush": FsyncOnFlush} {
		t.Run(name, func(t *testing.T) {
			tab := mustOpen(t, Options{Dir: t.TempDir(), Fsync: policy, SegmentMaxBytes: 2 << 10})
			if err := tab.AppendBatch(rows(0, 200)); err != nil {
				t.Fatal(err)
			}
			if err := tab.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, tab, time.Time{}, time.Time{}); len(got) != 200 {
				t.Fatalf("rows = %d", len(got))
			}
		})
	}
	if _, err := ParseFsync("bogus"); err == nil {
		t.Error("ParseFsync accepted garbage")
	}
	if p, err := ParseFsync(""); err != nil || p != FsyncOnSeal {
		t.Error("empty policy should default to seal")
	}
}

// TestConcurrentAppendScan drives appends and scans from many
// goroutines; run under -race this is the synchronization gate for the
// lock-free scan path. The columnar variant is the production
// configuration: small blocks and segments make appends write blocks
// and seal (renaming v2 images over row logs) while scans run.
func TestConcurrentAppendScan(t *testing.T) {
	t.Run("rows", func(t *testing.T) {
		concurrentAppendScan(t, Options{Dir: t.TempDir(), SegmentMaxBytes: 8 << 10, IndexEvery: 16})
	})
	t.Run("columnar", func(t *testing.T) {
		concurrentAppendScan(t, Options{Dir: t.TempDir(), SegmentMaxBytes: 8 << 10, IndexEvery: 16, Columnar: true, ColBlockRows: 16})
	})
}

func concurrentAppendScan(t *testing.T, opts Options) {
	tab := mustOpen(t, opts)
	const writers, perWriter, scanners = 4, 250, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i += 10 {
				lo := w*perWriter + i
				if err := tab.AppendBatch(rows(lo, lo+10)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < scanners; s++ {
		// Half the scanners read a time range, whose blocks decode a
		// window of their rows.
		var from, to time.Time
		if s%2 == 1 {
			from, to = row(100).TS, row(600).TS
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 0
				err := tab.Scan(from, to, 64, func(b []value.Tuple) error {
					n += len(b)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := collect(t, tab, time.Time{}, time.Time{}); len(got) != writers*perWriter {
		t.Fatalf("final rows = %d, want %d", len(got), writers*perWriter)
	}
}

func TestClosedTableErrors(t *testing.T) {
	tab := mustOpen(t, Options{Dir: t.TempDir()})
	if err := tab.AppendBatch(rows(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := tab.Append(row(1)); err != ErrClosed {
		t.Errorf("append after close: %v", err)
	}
	if err := tab.Scan(time.Time{}, time.Time{}, 1, func([]value.Tuple) error { return nil }); err != ErrClosed {
		t.Errorf("scan after close: %v", err)
	}
}

// TestAppendBatchDoesNotAlias pins the contract the engine's INTO TABLE
// path relies on when it hands the store rows whose cells it shares
// with the scan that produced them: once AppendBatch returns, the
// caller may overwrite the rows slice and every row's cells, and the
// table still reads back the original rows — from a sealed segment, the
// active segment and the unflushed append buffer alike, and after the
// segment the rows were staged in seals.
func TestAppendBatchDoesNotAlias(t *testing.T) {
	for _, columnar := range []bool{true, false} {
		t.Run(fmt.Sprintf("columnar=%v", columnar), func(t *testing.T) {
			tab := mustOpen(t, Options{Dir: t.TempDir(), SegmentMaxBytes: 2 << 10, ColBlockRows: 8, Columnar: columnar})
			clobber := func(batch []value.Tuple) {
				for i := range batch {
					for j := range batch[i].Values {
						batch[i].Values[j] = value.String("clobbered")
					}
					batch[i] = value.Tuple{}
				}
			}
			// The first batch spans several sealed segments and leaves
			// its tail in the active one, which Flush writes out; the
			// second stays in the append buffer.
			first := rows(0, 100)
			if err := tab.AppendBatch(first); err != nil {
				t.Fatal(err)
			}
			clobber(first)
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
			second := rows(100, 103)
			if err := tab.AppendBatch(second); err != nil {
				t.Fatal(err)
			}
			clobber(second)
			if sealed, active := tab.Segments(); sealed == 0 || active != 1 {
				t.Fatalf("segments = %d sealed, %d active; want both kinds", sealed, active)
			}
			check := func(n int) {
				t.Helper()
				got := collect(t, tab, time.Time{}, time.Time{})
				if len(got) != n {
					t.Fatalf("rows = %d, want %d", len(got), n)
				}
				for i, r := range got {
					if r.String() != row(i).String() {
						t.Fatalf("row %d = %s, want %s", i, r, row(i))
					}
				}
			}
			check(103)
			// Sealing the segment those rows were staged in encodes its
			// last, partial block only now.
			third := rows(103, 200)
			if err := tab.AppendBatch(third); err != nil {
				t.Fatal(err)
			}
			clobber(third)
			check(200)
		})
	}
}
