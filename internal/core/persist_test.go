package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/geocode"
	"tweeql/internal/store"
	"tweeql/internal/twitterapi"
	"tweeql/internal/value"
)

// persistEngine wires a full engine over a synthetic stream with the
// given extra option tweaks (testEngine with configurable Options).
func persistEngine(t *testing.T, cfg firehose.Config, tweak func(*Options)) (*Engine, func()) {
	t.Helper()
	return ablatedPersistEngine(t, cfg, Ablation{}, tweak)
}

// ablatedPersistEngine is persistEngine with abl's mechanisms off.
func ablatedPersistEngine(t *testing.T, cfg firehose.Config, abl Ablation, tweak func(*Options)) (*Engine, func()) {
	t.Helper()
	tweets := firehose.Tweets(firehose.New(cfg).Generate())
	hub := twitterapi.NewHub()
	cat := catalog.New()
	sampleN := min(len(tweets)/10, 2000)
	cat.RegisterSource("twitter", catalog.NewTwitterSource(hub, tweets[:sampleN]))
	svc := geocode.NewService(geocode.ServiceConfig{Sleep: func(time.Duration) {}})
	if err := RegisterStandardUDFs(cat, Deps{Geocoder: geocode.NewCachedClient(svc, 10000, 0)}); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SourceBuffer = len(tweets) + 16
	if tweak != nil {
		tweak(&opts)
	}
	eng := NewAblatedEngine(cat, opts, abl)
	t.Cleanup(func() { hub.Close(); eng.Close() })
	return eng, func() { twitterapi.Replay(hub, tweets) }
}

// queryStrings runs sql to completion and returns each row's rendering.
func queryStrings(t *testing.T, eng *Engine, sql string) []string {
	t.Helper()
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for row := range cur.Rows() {
		out = append(out, row.String())
	}
	if err := cur.Stats().Err(); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return out
}

// logStream runs the INTO TABLE query and waits for routing to finish.
func logStream(t *testing.T, eng *Engine, replay func(), sql string) {
	t.Helper()
	cur, err := eng.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	replay()
	select {
	case <-cur.Drained():
	case <-time.After(30 * time.Second):
		t.Fatal("INTO TABLE routing did not drain")
	}
	if err := cur.Stats().Err(); err != nil {
		t.Fatal(err)
	}
}

// The firehose clock starts 2011-06-12 12:00 UTC (the SIGMOD'11 week);
// midpoints below sit inside the generated streams.
const persistScenarioMid = "2011-06-12 14:00:00"

// TestPersistentTableDifferential is the acceptance gate for the
// store: the same stream logged INTO TABLE through the persistent
// backend (with a restart in between) and through the in-memory
// backend must answer a time-predicated SELECT identically — with v2
// column segments (the default) and with v1 row segments.
func TestPersistentTableDifferential(t *testing.T) {
	for _, columnar := range []bool{true, false} {
		name := "columnar"
		if !columnar {
			name = "row"
		}
		abl := Ablation{RowSegments: !columnar}
		t.Run(name, func(t *testing.T) {
			cfg := firehose.Config{Seed: 21, Duration: 4 * time.Hour, BaseRate: 8}
			logSQL := `SELECT text, username, followers, created_at FROM twitter INTO TABLE logged`
			readSQL := `SELECT text, followers FROM logged WHERE created_at >= '` + persistScenarioMid + `' AND followers > 50`

			dir := t.TempDir()
			// Engine A: log through the persistent backend, then shut
			// down. Small segments so several seal — in the columnar arm
			// that is what produces v2 column blocks to read back.
			engA, replayA := ablatedPersistEngine(t, cfg, abl, func(o *Options) {
				o.DataDir = dir
				o.SegmentMaxBytes = 64 << 10
			})
			logStream(t, engA, replayA, logSQL)
			if err := engA.Close(); err != nil {
				t.Fatal(err)
			}

			// Engine B: a fresh process image over the same data dir; the table
			// resolves in FROM straight from disk.
			engB, _ := ablatedPersistEngine(t, cfg, abl, func(o *Options) { o.DataDir = dir })
			gotPersist := queryStrings(t, engB, readSQL)

			// Engine C: same stream, in-memory backend, same queries.
			engC, replayC := ablatedPersistEngine(t, cfg, abl, nil)
			logStream(t, engC, replayC, logSQL)
			gotMem := queryStrings(t, engC, readSQL)

			if len(gotPersist) == 0 {
				t.Fatal("persistent read returned nothing")
			}
			if len(gotPersist) != len(gotMem) {
				t.Fatalf("persistent rows %d != in-memory rows %d", len(gotPersist), len(gotMem))
			}
			for i := range gotPersist {
				if gotPersist[i] != gotMem[i] {
					t.Fatalf("row %d differs:\n  persist: %s\n  memory:  %s", i, gotPersist[i], gotMem[i])
				}
			}
			// The predicate actually bit: some rows are before the midpoint.
			all := queryStrings(t, engB, `SELECT text FROM logged`)
			if len(all) <= len(gotPersist) {
				t.Errorf("time predicate filtered nothing: %d vs %d", len(all), len(gotPersist))
			}
		})
	}
}

// TestPersistentTimePruning checks the planner's created_at range
// reaches the store and skips whole segments.
func TestPersistentTimePruning(t *testing.T) {
	dir := t.TempDir()
	eng, replay := persistEngine(t, firehose.Config{Seed: 5, Duration: 6 * time.Hour, BaseRate: 8},
		func(o *Options) {
			o.DataDir = dir
			o.SegmentMaxBytes = 32 << 10 // many small segments
		})
	logStream(t, eng, replay, `SELECT text, created_at FROM twitter INTO TABLE seg`)

	st, ok := eng.Catalog().Table("seg").Backend().(*store.Table)
	if !ok {
		t.Fatalf("backend is %T, want *store.Table", eng.Catalog().Table("seg").Backend())
	}
	if sealed, _ := st.Segments(); sealed < 2 {
		t.Fatalf("sealed segments = %d; need several to observe pruning", sealed)
	}
	c0 := st.ScanCounters()
	rows := queryStrings(t, eng, `SELECT text FROM seg WHERE created_at >= '2011-06-12 17:00:00'`)
	c1 := st.ScanCounters()
	if len(rows) == 0 {
		t.Fatal("ranged query returned nothing (check the scenario clock)")
	}
	if c1.SegmentsPruned-c0.SegmentsPruned == 0 {
		t.Errorf("no segments pruned (scanned %d)", c1.SegmentsScanned-c0.SegmentsScanned)
	}
	// And EXPLAIN surfaces the extracted range.
	out, err := eng.Explain(`SELECT text FROM seg WHERE created_at >= '2011-06-12 17:00:00'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "time range:") {
		t.Errorf("explain missing time range:\n%s", out)
	}
}

// TestPersistentTornTailAtEngineLevel simulates a crash mid-write:
// after logging, the newest segment file loses its last few bytes; a
// fresh engine must open the table, drop only the torn row, and keep
// serving queries and appends.
func TestPersistentTornTailAtEngineLevel(t *testing.T) {
	dir := t.TempDir()
	cfg := firehose.Config{Seed: 9, Duration: time.Hour, BaseRate: 10}
	engA, replayA := persistEngine(t, cfg, func(o *Options) { o.DataDir = dir })
	logStream(t, engA, replayA, `SELECT text, created_at FROM twitter INTO TABLE crashlog`)
	total := engA.Catalog().Table("crashlog").Len()
	if total < 10 {
		t.Fatalf("logged rows = %d", total)
	}
	if err := engA.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the newest segment's tail.
	segs, err := filepath.Glob(filepath.Join(dir, "crashlog", "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	sort.Strings(segs)
	newest := segs[len(segs)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-4); err != nil {
		t.Fatal(err)
	}

	engB, _ := persistEngine(t, cfg, func(o *Options) { o.DataDir = dir })
	rows := queryStrings(t, engB, `SELECT text FROM crashlog`)
	if len(rows) != total-1 {
		t.Fatalf("rows after torn tail = %d, want %d", len(rows), total-1)
	}
	// The recovered table accepts new appends on a clean boundary.
	tab, err := engB.Catalog().OpenTable("crashlog")
	if err != nil {
		t.Fatal(err)
	}
	extra := value.NewTuple(engB.Catalog().Table("crashlog").Schema(),
		[]value.Value{value.String("post-recovery"), value.Time(time.Unix(1, 0))}, time.Unix(1, 0))
	if err := tab.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := queryStrings(t, engB, `SELECT text FROM crashlog`); len(got) != total {
		t.Fatalf("rows after recovery append = %d, want %d", len(got), total)
	}
}

// TestAliasedCreatedAtIsNotPruned pins the pushdown soundness gate: a
// table whose created_at column is NOT the event timestamp (a plain
// alias of a string column) must answer range predicates purely via
// the residual filter — the source-level timestamp filter would drop
// rows the string comparison matches.
func TestAliasedCreatedAtIsNotPruned(t *testing.T) {
	eng, replay := persistEngine(t, firehose.Config{Seed: 2, Duration: 30 * time.Minute, BaseRate: 10}, nil)
	// created_at here is tweet TEXT; the rows' event TS stays 2011-06.
	logStream(t, eng, replay, `SELECT text AS created_at FROM twitter INTO TABLE aliased`)
	all := queryStrings(t, eng, `SELECT created_at FROM aliased`)
	if len(all) == 0 {
		t.Fatal("nothing logged")
	}
	// String comparison: texts sorting at or before "zzz" — all of them.
	got := queryStrings(t, eng, `SELECT created_at FROM aliased WHERE created_at <= 'zzz'`)
	if len(got) != len(all) {
		t.Fatalf("aliased range query returned %d of %d rows — TS filtering leaked into a string predicate", len(got), len(all))
	}
	// And a bound below every text drops them all, via the predicate.
	got = queryStrings(t, eng, `SELECT created_at FROM aliased WHERE created_at <= '!'`)
	if len(got) != 0 {
		t.Fatalf("aliased lower-bound query returned %d rows", len(got))
	}
}

// TestCorruptSegmentSurfacesError pins mid-scan failure reporting: a
// corrupt sealed segment must not let a FROM-table query complete as
// if the truncated result were the whole table — also when the damage
// sits in a column the query never decodes, which only the block
// checksum over the whole frame can catch.
func TestCorruptSegmentSurfacesError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, seg []byte, firstText string) int // offset to damage
		readSQL string
	}{
		{"mid-file", func(_ *testing.T, seg []byte, _ string) int { return len(seg) / 2 },
			`SELECT text FROM c`},
		{"inside an unread column", func(t *testing.T, seg []byte, firstText string) int {
			// The first logged tweet's text sits verbatim in the text
			// chunk (raw or as a dictionary entry) of the first block.
			at := bytes.Index(seg, []byte(firstText))
			if at < 0 {
				t.Fatalf("text %q not found in the sealed segment", firstText)
			}
			return at + len(firstText)/2
		}, `SELECT created_at FROM c`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := firehose.Config{Seed: 3, Duration: time.Hour, BaseRate: 10}
			engA, replayA := persistEngine(t, cfg, func(o *Options) {
				o.DataDir = dir
				o.SegmentMaxBytes = 32 << 10 // force sealed segments
			})
			logStream(t, engA, replayA, `SELECT text, created_at FROM twitter INTO TABLE c`)
			firstText, err := engA.Catalog().Table("c").Rows()[0].Get("text").StringVal()
			if err != nil || len(firstText) < 8 {
				t.Fatalf("first logged text = %q, %v", firstText, err)
			}
			if err := engA.Close(); err != nil {
				t.Fatal(err)
			}
			// Corrupt the interior of a SEALED segment: its sidecar index
			// attests the data length, so reopen trusts it (only unsealed
			// segments are re-scanned and tail-truncated) and the damage must
			// surface as a mid-scan error, not a silent truncation.
			segs, _ := filepath.Glob(filepath.Join(dir, "c", "seg-*.seg"))
			if len(segs) < 2 {
				t.Fatalf("segments = %d, need a sealed one", len(segs))
			}
			sort.Strings(segs)
			if _, err := os.Stat(strings.TrimSuffix(segs[0], ".seg") + ".idx"); err != nil {
				t.Fatalf("first segment not sealed: %v", err)
			}
			seg, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			at := tc.corrupt(t, seg, firstText)
			for i := 0; i < 4; i++ {
				seg[at+i] ^= 0xFF
			}
			if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
				t.Fatal(err)
			}

			engB, _ := persistEngine(t, cfg, func(o *Options) { o.DataDir = dir })
			cur, err := engB.Query(context.Background(), tc.readSQL)
			if err != nil {
				t.Fatal(err)
			}
			for range cur.Rows() {
			}
			if err := cur.Stats().Err(); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("corrupt segment scan reported err = %v, want a corrupt-record error", err)
			}
		})
	}
}

// TestPrunedTableScan drives the column-pruned store scan through the
// engine over every byte source one scan can meet — sealed v2 segments
// of two schemas (a column added mid-log), the active v1 segment's
// flushed part, and the unflushed append buffer — against an oracle
// computed from the unpruned full-width rows.
func TestPrunedTableScan(t *testing.T) {
	dir := t.TempDir()
	eng, replay := persistEngine(t, firehose.Config{Seed: 11, Duration: 2 * time.Hour, BaseRate: 8},
		func(o *Options) {
			o.DataDir = dir
			o.SegmentMaxBytes = 32 << 10 // several sealed (v2) segments
		})
	logStream(t, eng, replay, `SELECT text, username, followers, created_at FROM twitter INTO TABLE evolve`)
	tab := eng.Catalog().Table("evolve")
	logged := tab.Len()

	// A fifth column appears mid-log: the schema change seals the
	// 4-column active segment and starts a 5-column one. The first batch
	// is flushed to the new active segment; the second stays buffered.
	wide := tab.Schema().Extend(value.Field{Name: "lang", Kind: value.KindString})
	ts := time.Date(2011, 6, 12, 14, 30, 0, 0, time.UTC)
	wideRow := func(i int, lang string) value.Tuple {
		at := ts.Add(time.Duration(i) * time.Second)
		return value.NewTuple(wide, []value.Value{
			value.String("late goal"), value.String("user"), value.Int(int64(1000 * i)), value.Time(at), value.String(lang),
		}, at)
	}
	if err := tab.AppendBatch([]value.Tuple{wideRow(0, "en"), wideRow(1, "fr")}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendBatch([]value.Tuple{wideRow(2, "en"), wideRow(3, "es")}); err != nil {
		t.Fatal(err)
	}
	st := tab.Backend().(*store.Table)
	if sealed, active := st.Segments(); sealed < 2 || active != 1 {
		t.Fatalf("segments sealed=%d active=%d; need several sealed and an active tail", sealed, active)
	}

	full := tab.Rows() // unpruned: every column of every row
	if len(full) != logged+4 {
		t.Fatalf("full scan read %d rows, want %d", len(full), logged+4)
	}
	oracle := func(keep func(value.Tuple) bool, cols ...string) []string {
		var out []string
		for _, row := range full {
			if !keep(row) {
				continue
			}
			parts := make([]string, len(cols))
			for i, c := range cols {
				parts[i] = c + "=" + row.Get(c).String()
			}
			out = append(out, strings.Join(parts, ", "))
		}
		return out
	}
	same := func(sql string, want []string) {
		t.Helper()
		got := queryStrings(t, eng, sql)
		if len(want) == 0 {
			t.Fatalf("%s: oracle is empty, the case proves nothing", sql)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: %d rows, oracle %d rows; first got %q", sql, len(got), len(want), got[:min(1, len(got))])
		}
	}

	c0 := st.ScanCounters()
	same(`SELECT username, followers FROM evolve WHERE followers > 500`,
		oracle(func(r value.Tuple) bool { n, _ := r.Get("followers").IntVal(); return n > 500 }, "username", "followers"))
	c1 := st.ScanCounters()
	// 2 of 4 (or 5) columns decoded in every v2 block read.
	if dec, skip := c1.ChunksDecoded-c0.ChunksDecoded, c1.ChunksSkipped-c0.ChunksSkipped; dec == 0 || skip < dec {
		t.Errorf("chunks decoded=%d skipped=%d for a 2-column query over 4- and 5-column blocks", dec, skip)
	}
	// The added column: NULL (so never equal) in rows logged before it.
	same(`SELECT lang, text FROM evolve WHERE lang = 'en'`,
		oracle(func(r value.Tuple) bool { return r.Get("lang").String() == "en" }, "lang", "text"))
	// A plan that references no column at all still counts every row.
	total := 0
	for _, row := range queryStrings(t, eng, `SELECT COUNT(*) AS n FROM evolve WINDOW 1 HOUR`) {
		var n int
		if _, err := fmt.Sscanf(row[strings.Index(row, "n="):], "n=%d", &n); err != nil {
			t.Fatalf("window row %q: %v", row, err)
		}
		total += n
	}
	if total != len(full) {
		t.Errorf("COUNT(*) over a zero-column scan summed to %d, want %d", total, len(full))
	}

	out, err := eng.Explain(`SELECT username, followers FROM evolve WHERE followers > 500`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "source: evolve columns=2/5\n") {
		t.Errorf("explain does not report the pruned scan width:\n%s", out)
	}
	out, err = eng.ExplainAnalyze(context.Background(), `SELECT * FROM evolve`, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "source: evolve columns=5/5\n") {
		t.Errorf("explain analyze does not report the scan width:\n%s", out)
	}
}

// TestTableDirNameCollision pins the data-dir mapping: distinct table
// names must never share a segment directory, even when sanitization
// replaces their distinguishing characters.
func TestTableDirNameCollision(t *testing.T) {
	a, b := tableDirName("#log"), tableDirName("@log")
	if a == b {
		t.Fatalf("distinct names map to one dir %q", a)
	}
	for _, d := range []string{a, b} {
		if strings.ContainsAny(d, "/\\.") {
			t.Fatalf("unsafe dir name %q", d)
		}
	}
	if tableDirName("Results") != "results" {
		t.Errorf("clean names should stay readable: %q", tableDirName("Results"))
	}
}

// TestMemTableRingCap pins the in-memory bound: INTO TABLE without a
// data dir keeps only the newest TableMemRows rows.
func TestMemTableRingCap(t *testing.T) {
	eng, replay := persistEngine(t, firehose.Config{Seed: 4, Duration: time.Hour, BaseRate: 10},
		func(o *Options) { o.TableMemRows = 25 })
	logStream(t, eng, replay, `SELECT text, created_at FROM twitter INTO TABLE ring`)
	tab := eng.Catalog().Table("ring")
	if tab.Len() != 25 {
		t.Fatalf("ring length = %d, want the 25-row cap", tab.Len())
	}
	// The survivors are the newest rows: timestamps are non-decreasing
	// and the last one is the stream's last matching tweet.
	rows := tab.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i].TS.Before(rows[i-1].TS) {
			t.Fatalf("ring out of order at %d", i)
		}
	}
}

// TestIntoTableOpenError pins query-time surfacing of backend errors:
// an unusable data dir fails the INTO TABLE query at Query() rather
// than silently dropping rows later.
func TestIntoTableOpenError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, _ := persistEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 5},
		func(o *Options) { o.DataDir = file })
	if _, err := eng.Query(context.Background(), `SELECT text FROM twitter INTO TABLE boom`); err == nil {
		t.Fatal("INTO TABLE under an unusable data dir should fail at query start")
	}
	// A bad fsync policy fails the same way.
	eng2, _ := persistEngine(t, firehose.Config{Seed: 1, Duration: time.Minute, BaseRate: 5},
		func(o *Options) { o.DataDir = t.TempDir(); o.FsyncPolicy = "bogus" })
	if _, err := eng2.Query(context.Background(), `SELECT text FROM twitter INTO TABLE boom`); err == nil {
		t.Fatal("bad fsync policy should fail at query start")
	}
}
