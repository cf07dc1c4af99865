package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tweeql/internal/fault"
	"tweeql/internal/value"
)

// sealSchema carries one column per chunk encoding plus a dynamic and a
// list column, so the differential meets every encoder.
var sealSchema = value.NewSchema(
	value.Field{Name: "text", Kind: value.KindString},
	value.Field{Name: "user", Kind: value.KindString},
	value.Field{Name: "n", Kind: value.KindInt},
	value.Field{Name: "score", Kind: value.KindFloat},
	value.Field{Name: "ok", Kind: value.KindBool},
	value.Field{Name: "at", Kind: value.KindTime},
	value.Field{Name: "dyn", Kind: value.KindNull},
	value.Field{Name: "tags", Kind: value.KindList},
)

var (
	epoch  = time.Unix(0, 0)
	berlin = time.FixedZone("CEST", 2*3600)
)

// sealRow is a messy row: kind drift inside blocks (NULL ints, a
// dynamic column cycling every kind, NULL lists), zero, epoch and
// non-UTC times both as cells and as the event time, NaN floats,
// empty and repeated strings.
func sealRow(i int) value.Tuple {
	ts := time.Unix(1307880000+int64(i), int64(i%7)*1e8).UTC()
	switch {
	case i%13 == 0:
		ts = time.Time{}
	case i%17 == 0:
		ts = epoch
	case i%19 == 0:
		ts = ts.In(berlin)
	}
	n := value.Int(int64(i*7 - 300))
	if i%29 == 7 {
		n = value.Null()
	}
	score := value.Float(float64(i) / 3)
	if i%41 == 0 {
		score = value.Float(math.NaN())
	}
	var at time.Time
	switch i % 5 {
	case 0:
	case 1:
		at = epoch
	case 2:
		at = time.Unix(1307880000+int64(i), 0).In(berlin)
	default:
		at = time.Unix(1307880000+int64(i), 0).UTC()
	}
	var dyn value.Value
	switch i % 7 {
	case 1:
		dyn = value.Int(int64(i))
	case 2:
		dyn = value.String("dyn")
	case 3:
		dyn = value.Float(-0.5)
	case 4:
		dyn = value.Bool(true)
	case 5:
		dyn = value.Time(at)
	case 6:
		dyn = value.List([]value.Value{value.Time(at), value.Null()})
	}
	tags := value.List([]value.Value{value.String("#goal"), value.Int(int64(i % 3))})
	if i%11 == 0 {
		tags = value.Null()
	}
	text := fmt.Sprintf("row %d says goal", i)
	if i%9 == 0 {
		text = ""
	}
	return value.NewTuple(sealSchema, []value.Value{
		value.String(text),
		value.String(fmt.Sprintf("u%d", i%5)),
		n, score,
		value.Bool(i%3 == 0),
		value.Time(at), dyn, tags,
	}, ts)
}

func sealRows(lo, hi int) []value.Tuple {
	out := make([]value.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, sealRow(i))
	}
	return out
}

// sealDriver runs one script step by step on a table it may reopen.
type sealDriver struct {
	t    testing.TB
	opts Options
	tab  *Table
}

func (d *sealDriver) append(rows ...value.Tuple) {
	d.t.Helper()
	for _, r := range rows {
		if err := d.tab.Append(r); err != nil {
			d.t.Fatal(err)
		}
	}
}

func (d *sealDriver) seal() {
	d.t.Helper()
	d.tab.mu.Lock()
	err := d.tab.sealLocked()
	d.tab.mu.Unlock()
	if err != nil {
		d.t.Fatal(err)
	}
}

func (d *sealDriver) reopen() {
	d.t.Helper()
	if err := d.tab.Close(); err != nil {
		d.t.Fatal(err)
	}
	tab, err := Open(d.opts)
	if err != nil {
		d.t.Fatal(err)
	}
	d.tab = tab
}

// sealDifferential runs script on a columnar table (the builder) and on
// a row table whose v1 seals are then passed through convertToColumnar
// (the oracle, keeping the v1 seal wherever it fails, as sealLocked did).
// After both close, the two directories must hold the same files with
// the same bytes, and the sealed segments the same zone entries. It
// returns how many sealed segments are v2.
func sealDifferential(t testing.TB, opts Options, script func(d *sealDriver)) int {
	t.Helper()
	run := func(columnar bool) *Table {
		o := opts
		o.Dir, o.Columnar = t.TempDir(), columnar
		tab, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		d := &sealDriver{t: t, opts: o, tab: tab}
		script(d)
		if err := d.tab.Close(); err != nil {
			t.Fatal(err)
		}
		return d.tab
	}
	built, oracle := run(true), run(false)
	for _, m := range oracle.sealed {
		if m.rows > 0 && convertToColumnar(m, oracle.opts.ColBlockRows, false) == nil {
			if err := writeIndex(m, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(built.sealed) != len(oracle.sealed) {
		t.Fatalf("sealed segments: builder %d, oracle %d", len(built.sealed), len(oracle.sealed))
	}
	v2 := 0
	for i, m := range built.sealed {
		o := oracle.sealed[i]
		if m.version != o.version || !reflect.DeepEqual(m.blocks, o.blocks) {
			t.Fatalf("segment %d: builder v%d zones %+v\noracle v%d zones %+v", m.seq, m.version, m.blocks, o.version, o.blocks)
		}
		if m.version == colFormatVersion {
			v2++
		}
	}
	requireSameFiles(t, built.opts.Dir, oracle.opts.Dir)
	return v2
}

// requireSameFiles asserts two directories hold the same file names
// with identical contents.
func requireSameFiles(t testing.TB, a, b string) {
	t.Helper()
	names := func(dir string) []string {
		es, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range es {
			out = append(out, e.Name())
		}
		return out
	}
	na, nb := names(a), names(b)
	if !slices.Equal(na, nb) {
		t.Fatalf("files differ:\n builder %v\n oracle  %v", na, nb)
	}
	for _, n := range na {
		ba, err := os.ReadFile(filepath.Join(a, n))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("%s differs: builder %d bytes, oracle %d bytes", n, len(ba), len(bb))
		}
	}
}

// TestSealMatchesConversion holds the builder to the conversion it
// replaced, byte for byte on every .seg and .idx file.
func TestSealMatchesConversion(t *testing.T) {
	for _, br := range []int{1, 63, 64, 65} {
		t.Run(fmt.Sprintf("block%d", br), func(t *testing.T) {
			opts := Options{ColBlockRows: br, Fsync: FsyncNone, IndexEvery: 32, SegmentMaxBytes: 24 << 10}
			v2 := sealDifferential(t, opts, func(d *sealDriver) {
				d.append(sealRows(0, 400)...) // several size seals, a v1 tail
				d.seal()
			})
			if v2 < 2 {
				t.Fatalf("%d v2 segments, want several", v2)
			}
		})
	}
	t.Run("tweets", func(t *testing.T) {
		sealDifferential(t, Options{Fsync: FsyncOnSeal}, func(d *sealDriver) {
			d.append(tweetRows(0, 9000)...) // two default-size blocks and a partial one
			d.seal()
		})
	})
	t.Run("schema_rotation", func(t *testing.T) {
		other := value.NewSchema(value.Field{Name: "x", Kind: value.KindInt})
		v2 := sealDifferential(t, Options{ColBlockRows: 16, Fsync: FsyncNone}, func(d *sealDriver) {
			d.append(sealRows(0, 40)...)
			d.append(value.NewTuple(other, []value.Value{value.Int(1)}, epoch))
			d.append(sealRows(40, 90)...)
			d.append(tweetRows(0, 20)...)
			d.seal()
		})
		if v2 != 4 {
			t.Fatalf("%d v2 segments, want 4", v2)
		}
	})
	t.Run("max_age_mid_block", func(t *testing.T) {
		clock := time.Unix(5000, 0)
		opts := Options{ColBlockRows: 64, Fsync: FsyncNone, SegmentMaxAge: time.Minute,
			now: func() time.Time { return clock }}
		v2 := sealDifferential(t, opts, func(d *sealDriver) {
			clock = time.Unix(5000, 0)
			d.append(sealRows(0, 100)...)
			clock = clock.Add(2 * time.Minute)
			d.append(sealRow(100)) // seals rows 0..100: one block and a partial
			d.append(sealRows(101, 150)...)
			clock = clock.Add(2 * time.Minute)
			d.append(sealRow(150))
		})
		if v2 != 2 {
			t.Fatalf("%d v2 segments, want 2", v2)
		}
	})
	t.Run("reopen_append_seal", func(t *testing.T) {
		sealDifferential(t, Options{ColBlockRows: 64, Fsync: FsyncNone}, func(d *sealDriver) {
			d.append(sealRows(0, 150)...) // two blocks already in the temp file
			d.reopen()
			d.append(sealRows(150, 250)...)
			d.seal()
			d.append(sealRows(250, 260)...)
			d.reopen() // a tail that stays v1
		})
	})
	t.Run("reopen_seal", func(t *testing.T) {
		v2 := sealDifferential(t, Options{ColBlockRows: 64, Fsync: FsyncNone}, func(d *sealDriver) {
			d.append(sealRows(0, 150)...)
			d.reopen()
			d.seal()
		})
		if v2 != 1 {
			t.Fatalf("%d v2 segments, want 1", v2)
		}
	})
	t.Run("arity_mismatch", func(t *testing.T) {
		short := sealRow(3)
		short.Values = short.Values[:3]
		long := sealRow(4)
		long.Values = append(slices.Clip(long.Values), value.Int(9))
		v2 := sealDifferential(t, Options{ColBlockRows: 16, Fsync: FsyncNone}, func(d *sealDriver) {
			d.append(sealRows(0, 40)...)
			d.append(short)
			d.append(sealRows(40, 60)...)
			d.seal() // v1 kept: the row log does not decode against the schema
			d.append(sealRows(60, 70)...)
			d.append(long)
			d.seal()
			d.append(sealRows(70, 90)...)
			d.seal() // the builder recovers for the next segment
		})
		if v2 != 1 {
			t.Fatalf("%d v2 segments, want only the last", v2)
		}
	})
}

// fuzzReader hands out a byte program one byte at a time, zero past
// the end.
type fuzzReader struct{ p []byte }

func (r *fuzzReader) next() byte {
	if len(r.p) == 0 {
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *fuzzReader) more() bool { return len(r.p) > 0 }

func (r *fuzzReader) time() time.Time {
	switch b := r.next(); b % 6 {
	case 0:
		return time.Time{}
	case 1:
		return epoch
	case 2:
		return time.Unix(1307880000+int64(b), int64(r.next())*1e6).In(berlin)
	case 3:
		// 1970-01-01T00:00:00Z and its nanosecond neighbours on both
		// sides: present times whose UnixNano is 0 or near it.
		return time.Unix(0, int64(int8(r.next()))).UTC()
	default:
		return time.Unix(1307880000+int64(b)*int64(r.next()), 0).UTC()
	}
}

func (r *fuzzReader) cell(depth int) value.Value {
	b := r.next()
	switch b % 8 {
	case 0:
		return value.Null()
	case 1:
		return value.Bool(b&8 != 0)
	case 2:
		return value.Int(int64(int8(r.next())) << (r.next() % 40))
	case 3:
		switch x := r.next(); x {
		case 0:
			return value.Float(math.NaN())
		case 1:
			return value.Float(math.Inf(-1))
		default:
			return value.Float(float64(int8(x)) / 4)
		}
	case 4, 7:
		pool := []string{"", "goal", "GOAL!", "u1", strings.Repeat("x", 200)}
		x := r.next()
		if int(x) < 4*len(pool) {
			return value.String(pool[int(x)%len(pool)])
		}
		return value.String(fmt.Sprintf("s%d", x))
	case 5:
		return value.Time(r.time())
	default:
		if depth > 1 {
			return value.Null()
		}
		return value.List([]value.Value{r.cell(depth + 1), r.cell(depth + 1)})
	}
}

// FuzzSealMatchesConversion is TestSealMatchesConversion over byte
// programs: the first byte picks the block size, then each op seals,
// reopens, rotates the schema, appends a row of the wrong arity, or
// appends a row whose cells and event time the following bytes spell.
func FuzzSealMatchesConversion(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 5, 2, 9, 4, 1, 7, 200, 0, 6, 5, 5, 5, 4, 4, 4, 0, 5, 3, 1})
	f.Add(append([]byte{63}, bytes.Repeat([]byte{4, 12, 1, 4, 2, 3, 17, 9}, 40)...))
	f.Add(append([]byte{1}, bytes.Repeat([]byte{7, 4, 7, 9, 1, 0, 16, 2, 18}, 30)...))
	f.Add([]byte{2, 8, 4, 4, 4, 4, 3, 8, 4, 4, 1, 2, 8, 6, 6, 0, 8, 4, 1})
	f.Fuzz(runFuzzProgram)
}

// fuzzSchemas are the schemas a fuzz program rotates between.
var fuzzSchemas = []*value.Schema{sealSchema, testSchema, value.NewSchema(value.Field{Name: "d", Kind: value.KindNull})}

// runFuzzProgram is one FuzzSealMatchesConversion input.
func runFuzzProgram(t *testing.T, prog []byte) {
	if len(prog) > 4096 {
		prog = prog[:4096]
	}
	r := &fuzzReader{p: prog}
	opts := Options{ColBlockRows: 1 + int(r.next())%70, Fsync: FsyncNone, IndexEvery: 8, SegmentMaxBytes: 4 << 10}
	body := r.p
	sealDifferential(t, opts, func(d *sealDriver) {
		r := &fuzzReader{p: body}
		schema, reopens := fuzzSchemas[0], 0
		for r.more() {
			switch op := r.next(); {
			case op < 8:
				d.seal()
			case op < 12:
				if reopens < 3 {
					reopens++
					d.reopen()
				}
			case op < 16:
				schema = fuzzSchemas[int(op)%len(fuzzSchemas)]
			case op == 16:
				vals := make([]value.Value, int(r.next())%(schema.Len()+2))
				d.append(value.Tuple{Schema: schema, Values: vals, TS: r.time()})
			default:
				vals := make([]value.Value, schema.Len())
				for i := range vals {
					vals[i] = r.cell(0)
				}
				d.append(value.NewTuple(schema, vals, r.time()))
			}
		}
	})
}

// TestStrChunkMatchesOracle holds the counted dictionary-vs-raw choice
// to the one that built both payloads, over random cardinalities and
// string lengths, with one encoder reused throughout (scratch from an
// earlier block must not leak into a later one), including the
// len(dict) == len(raw) tie, which picks raw.
func TestStrChunkMatchesOracle(t *testing.T) {
	schema := value.NewSchema(value.Field{Name: "s", Kind: value.KindString})
	var enc colEncoder
	check := func(strs []string) (tag byte, tie bool) {
		t.Helper()
		rows := make([]value.Tuple, len(strs))
		for i, s := range strs {
			rows[i] = value.NewTuple(schema, []value.Value{value.String(s)}, time.Time{})
		}
		prefix := []byte("dst")
		got := enc.appendStrChunk(slices.Clone(prefix), rows, 0)
		want := oracleStrChunk(slices.Clone(prefix), rows, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("strings %q:\n got  %x\n want %x", strs, got, want)
		}
		dict, raw := oracleStrPayloads(rows, 0)
		return got[len(prefix)], len(dict) == len(raw)
	}
	if tag, tie := check([]string{"", ""}); !tie || tag != chunkRaw {
		t.Fatalf("tie case (dict 4 bytes, raw 4 bytes): tie=%v, tag %d, want raw", tie, tag)
	}
	rng := rand.New(rand.NewSource(1))
	ties, dicts, raws := 0, 0, 0
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(300)
		if iter%3 == 0 {
			n = 1 + rng.Intn(4)
		}
		card := 1 + rng.Intn(n)
		pool := make([]string, card)
		for i := range pool {
			pool[i] = strings.Repeat(string(rune('a'+i%26)), rng.Intn(3)*rng.Intn(70)) + fmt.Sprint(i)[:rng.Intn(2)]
		}
		strs := make([]string, n)
		for i := range strs {
			strs[i] = pool[rng.Intn(card)]
		}
		tag, tie := check(strs)
		if tag == chunkDict {
			dicts++
		} else {
			raws++
		}
		if tie {
			ties++
		}
	}
	if ties == 0 || dicts == 0 || raws == 0 {
		t.Fatalf("random cases covered %d ties, %d dictionary and %d raw chunks; want all three", ties, dicts, raws)
	}
}

// TestScanRacingSealReadsRowLog pins the scan snapshot: a seal that
// renames the v2 image over the active segment's path between the
// snapshot and the file read must not make the scan decode v2 bytes at
// the snapshot's v1 offsets.
func TestScanRacingSealReadsRowLog(t *testing.T) {
	tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 16})
	if err := tab.AppendBatch(tweetRows(0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	tab.mu.Lock()
	tab.scanHook = func() {
		tab.mu.Lock()
		defer tab.mu.Unlock()
		tab.scanHook = nil
		if err := tab.sealLocked(); err != nil {
			t.Error(err)
		}
	}
	tab.mu.Unlock()
	got := collect(t, tab, time.Time{}, time.Time{})
	if len(got) != 100 {
		t.Fatalf("scan racing a seal: %d rows, want 100", len(got))
	}
	for i := range got {
		if got[i].String() != tweetRow(i).String() {
			t.Fatalf("row %d:\n got  %s\n want %s", i, got[i], tweetRow(i))
		}
	}
	tab.mu.Lock()
	sealed := len(tab.sealed) == 1 && tab.sealed[0].version == colFormatVersion
	tab.mu.Unlock()
	if !sealed {
		t.Fatal("the hook did not seal the segment into v2")
	}
}

// TestSealFsyncRetriesAndDegrades pins the seal-time and Close fsyncs
// under the default policy to syncActiveLocked's rules: the
// store.append.fsync fault point fires, a transient failure is retried,
// and a persistent one flips the table read-only with its rows readable.
func TestSealFsyncRetriesAndDegrades(t *testing.T) {
	defer fault.Reset()
	t.Run("transient", func(t *testing.T) {
		defer fault.Reset()
		tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 16})
		if err := tab.AppendBatch(rows(0, 40)); err != nil {
			t.Fatal(err)
		}
		fault.Arm("store.append.fsync", fault.Spec{Mode: fault.ModeError, Times: 1})
		sealNow(t, tab)
		if n := fault.Fired("store.append.fsync"); n != 1 {
			t.Fatalf("seal-time fsync fault fired %d times, want 1", n)
		}
		if err := tab.Healthy(); err != nil {
			t.Fatalf("retried seal fsync left the table unhealthy: %v", err)
		}
	})
	t.Run("seal", func(t *testing.T) {
		defer fault.Reset()
		tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 16, AppendRetries: 1})
		if err := tab.AppendBatch(rows(0, 40)); err != nil {
			t.Fatal(err)
		}
		fault.Arm("store.append.fsync", fault.Spec{Mode: fault.ModeError})
		tab.mu.Lock()
		err := tab.sealLocked()
		tab.mu.Unlock()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("seal under failing fsync = %v, want injected", err)
		}
		if n := fault.Fired("store.append.fsync"); n != 2 {
			t.Fatalf("fault fired %d times, want 2 (one retry)", n)
		}
		if err := tab.Healthy(); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Healthy = %v, want ErrReadOnly", err)
		}
		if err := tab.AppendBatch(rows(40, 41)); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("append after failed seal fsync = %v, want ErrReadOnly", err)
		}
		if got := collect(t, tab, time.Time{}, time.Time{}); len(got) != 40 {
			t.Fatalf("rows after degrade = %d, want 40", len(got))
		}
	})
	t.Run("close", func(t *testing.T) {
		defer fault.Reset()
		tab := mustOpen(t, Options{Dir: t.TempDir(), Columnar: true, ColBlockRows: 16, AppendRetries: -1})
		if err := tab.AppendBatch(rows(0, 40)); err != nil {
			t.Fatal(err)
		}
		fault.Arm("store.append.fsync", fault.Spec{Mode: fault.ModeError})
		if err := tab.Close(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Close under failing fsync = %v, want injected", err)
		}
		if n := fault.Fired("store.append.fsync"); n != 1 {
			t.Fatalf("fault fired %d times, want 1", n)
		}
	})
}

// TestSealWriteFaultKeepsRowSeal arms store.seal.write at each of its
// calls in one seal — the two full-block writes, the partial-block
// write at seal, the rename — in both error and short-write modes:
// the segment keeps its v1 seal, the table stays healthy with identical
// rows, no temp file is left, and the next segment seals v2 again.
func TestSealWriteFaultKeepsRowSeal(t *testing.T) {
	defer fault.Reset()
	for _, mode := range []fault.Mode{fault.ModeError, fault.ModeShortWrite} {
		for skip := 0; skip < 4; skip++ {
			t.Run(fmt.Sprintf("%v_skip%d", mode, skip), func(t *testing.T) {
				defer fault.Reset()
				dir := t.TempDir()
				opts := Options{Dir: dir, Columnar: true, ColBlockRows: 16}
				tab := mustOpen(t, opts)
				fault.Arm("store.seal.write", fault.Spec{Mode: mode, Skip: skip, Times: 1})
				if err := tab.AppendBatch(tweetRows(0, 40)); err != nil {
					t.Fatal(err)
				}
				sealNow(t, tab)
				if n := fault.Fired("store.seal.write"); n != 1 {
					t.Fatalf("fault fired %d times, want 1", n)
				}
				if err := tab.AppendBatch(tweetRows(40, 60)); err != nil {
					t.Fatal(err)
				}
				sealNow(t, tab)
				tab.mu.Lock()
				versions := []byte{tab.sealed[0].version, tab.sealed[1].version}
				tab.mu.Unlock()
				if versions[0] == colFormatVersion || versions[1] != colFormatVersion {
					t.Fatalf("sealed versions %v, want [v1 v2]", versions)
				}
				if err := tab.Healthy(); err != nil {
					t.Fatalf("table unhealthy after a failed v2 write: %v", err)
				}
				if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
					t.Fatalf("temp files left behind: %v", tmps)
				}
				requireRows(t, collect(t, tab, time.Time{}, time.Time{}), tweetRows(0, 60))
				if err := tab.Close(); err != nil {
					t.Fatal(err)
				}
				requireRows(t, collect(t, mustOpen(t, opts), time.Time{}, time.Time{}), tweetRows(0, 60))
			})
		}
	}
}

// requireRows asserts got equals want row by row, event times included.
func requireRows(t *testing.T, got, want []value.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() || !got[i].TS.Equal(want[i].TS) {
			t.Fatalf("row %d:\n got  %s @%v\n want %s @%v", i, got[i], got[i].TS, want[i], want[i].TS)
		}
	}
}
