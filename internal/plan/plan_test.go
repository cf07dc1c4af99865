package plan

import (
	"context"
	"strings"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/value"
)

func analyze(t *testing.T, sql string) *Query {
	t.Helper()
	stmt, err := lang.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Analyze(stmt, catalog.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestAnalyzePushdownAndResidual(t *testing.T) {
	q := analyze(t, "SELECT text FROM twitter WHERE text CONTAINS 'goal' AND followers > 10")
	if q.Source != "twitter" {
		t.Fatalf("source = %q", q.Source)
	}
	if len(q.Conjuncts) != 2 {
		t.Fatalf("conjuncts = %d", len(q.Conjuncts))
	}
	if len(q.Candidates) != 1 {
		t.Fatalf("candidates = %+v, want the CONTAINS track filter", q.Candidates)
	}
	if got := q.Candidates[0].Filter.Track; len(got) != 1 || got[0] != "goal" {
		t.Fatalf("track = %v", got)
	}

	// Residual by the pushed conjunct's key drops exactly that conjunct.
	key := q.CandidateKey(0)
	res := q.Residual(key)
	if len(res) != 1 {
		t.Fatalf("residual = %d conjuncts", len(res))
	}
	if lang.Key(res[0]) == key {
		t.Fatal("residual still contains the pushed conjunct")
	}
	// Nothing pushed: the full list comes back.
	if res := q.Residual(""); len(res) != 2 {
		t.Fatalf("residual with no pushdown = %d conjuncts", len(res))
	}
	// An unknown key changes nothing (a scan pushed by a foreign plan
	// shape must not silently drop a conjunct).
	if res := q.Residual("no such conjunct"); len(res) != 2 {
		t.Fatalf("residual with foreign key = %d conjuncts", len(res))
	}
}

func TestScanSignatureCanonicalization(t *testing.T) {
	a := analyze(t, "SELECT text FROM twitter WHERE text CONTAINS 'goal' AND user_id = 7")
	b := analyze(t, "SELECT id FROM Twitter WHERE user_id = 7 AND text CONTAINS 'goal'")
	if a.Signature != b.Signature {
		t.Fatalf("commuted conjuncts:\n %s\n %s", a.Signature, b.Signature)
	}
	c := analyze(t, "SELECT text FROM twitter WHERE text CONTAINS 'goal'")
	if c.Signature == a.Signature {
		t.Fatalf("different candidate sets share %s", a.Signature)
	}
	full := analyze(t, "SELECT text FROM twitter")
	if full.Signature != "src=twitter" {
		t.Fatalf("full-stream signature = %q", full.Signature)
	}
	// The select list does not change the physical stream.
	proj := analyze(t, "SELECT id, username FROM twitter")
	if proj.Signature != full.Signature {
		t.Fatalf("projection changed the signature: %q vs %q", proj.Signature, full.Signature)
	}
}

func TestSignatureIncludesTimeRange(t *testing.T) {
	q := analyze(t, "SELECT text FROM t WHERE created_at >= '2011-06-12' AND created_at < '2011-06-13'")
	if q.TimeFrom.IsZero() || q.TimeTo.IsZero() {
		t.Fatalf("time range not extracted: [%v, %v]", q.TimeFrom, q.TimeTo)
	}
	if !strings.Contains(q.Signature, "from=") || !strings.Contains(q.Signature, "to=") {
		t.Fatalf("signature misses the pushed time range: %s", q.Signature)
	}
	open := analyze(t, "SELECT text FROM t")
	if open.Signature == q.Signature {
		t.Fatal("time-bounded and open scans share a signature")
	}
}

func TestAnalyzeTimeRangeFlipped(t *testing.T) {
	q := analyze(t, "SELECT text FROM t WHERE '2011-06-12 13:00:00' <= created_at")
	want := time.Date(2011, 6, 12, 13, 0, 0, 0, time.UTC)
	if !q.TimeFrom.Equal(want) {
		t.Fatalf("flipped bound: from = %v, want %v", q.TimeFrom, want)
	}
}

func TestAnalyzeJoinShape(t *testing.T) {
	q := analyze(t, "SELECT a.text FROM s1 a JOIN s2 b ON b.id = a.id WINDOW 30 SECONDS")
	if q.Join == nil {
		t.Fatal("join shape missing")
	}
	if q.Join.Right != "s2" || q.Join.LeftBinding != "a" || q.Join.RightBinding != "b" {
		t.Fatalf("join = %+v", q.Join)
	}
	// ON sides were given right-first; the plan must still resolve the
	// left key to the left binding's column.
	if lk, ok := q.Join.LeftKey.(*lang.Ident); !ok || lk.Qualifier != "a" || lk.Name != "id" {
		t.Fatalf("left key = %#v, want a.id", q.Join.LeftKey)
	}
	if q.Join.Window != 30*time.Second {
		t.Fatalf("window = %v", q.Join.Window)
	}
	if q.Columns != nil {
		t.Fatalf("join plans must not prune columns, got %v", q.Columns)
	}
}

// TestAnalyzeJoinHasNoCandidates: no join side pushes a filter to its
// source, so a one-side conjunct the API could take is no candidate.
func TestAnalyzeJoinHasNoCandidates(t *testing.T) {
	q := analyze(t, "SELECT a.text FROM twitter a JOIN twitter b ON a.username = b.username WHERE a.text CONTAINS 'goal' WINDOW 1 MINUTE")
	if len(q.Candidates) != 0 {
		t.Fatalf("join plan has %d pushdown candidates: %+v", len(q.Candidates), q.Candidates)
	}
	if len(q.Conjuncts) != 0 || len(q.Join.LeftWhere) != 1 {
		t.Fatalf("conjuncts = %d, left side %d: want the WHERE moved to the left side", len(q.Conjuncts), len(q.Join.LeftWhere))
	}
}

// TestAnalyzeJoinSplitsSideConjuncts: a stateless conjunct whose
// columns all carry one binding moves to that side; one naming both
// bindings, an unqualified column, no column, or calling a stateful UDF
// stays to filter the joined rows.
func TestAnalyzeJoinSplitsSideConjuncts(t *testing.T) {
	cat := catalog.New()
	if err := cat.RegisterStateful("running", func() catalog.ScalarFn {
		return func(context.Context, []value.Value) (value.Value, error) { return value.Bool(true), nil }
	}); err != nil {
		t.Fatal(err)
	}
	stmt, err := lang.Parse(`SELECT a.text FROM twitter AS a JOIN twitter AS b ON a.username = b.username
		WHERE a.followers > 10 AND B.text CONTAINS 'goal' AND upper(b.username) = b.username
		AND a.followers > b.followers AND followers > 3 AND 1 = 1 AND running(a.text) AND a.x + y > 0
		WINDOW 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Analyze(stmt, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := func(es []lang.Expr) string {
		var out []string
		for _, e := range es {
			out = append(out, e.String())
		}
		return strings.Join(out, " | ")
	}
	if got, want := keys(q.Join.LeftWhere), "(a.followers > 10)"; got != want {
		t.Errorf("left side: %s, want %s", got, want)
	}
	if got, want := keys(q.Join.RightWhere), "(B.text CONTAINS 'goal') | (upper(b.username) = b.username)"; got != want {
		t.Errorf("right side: %s, want %s", got, want)
	}
	if got, want := len(q.Conjuncts), 5; got != want {
		t.Errorf("residual: %s (%d), want %d conjuncts", keys(q.Conjuncts), got, want)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE COUNT(*) > 1",                              // aggregate in WHERE
		"SELECT text FROM t WINDOW 1 MINUTES",                                    // window without aggregation
		"SELECT a.x FROM a JOIN b ON a.x > b.x WINDOW 10 SECONDS",                // non-equality join
		"SELECT a.x FROM a JOIN b ON c.x = d.y WINDOW 10 SECONDS",                // unknown qualifiers
		"SELECT upper(COUNT(*)) FROM t",                                          // nested aggregate
		"SELECT COUNT(*) FROM t WINDOW 10 TWEETS WITH CONFIDENCE 0.9 WITHIN 0.1", // confidence + count window
	} {
		stmt, err := lang.Parse(sql)
		if err != nil {
			continue // parser-level rejection is fine too
		}
		if _, err := Analyze(stmt, catalog.New(), Options{}); err == nil {
			t.Errorf("Analyze(%q) accepted an invalid statement", sql)
		}
	}
}

func TestReferencedColumns(t *testing.T) {
	q := analyze(t, "SELECT text FROM twitter WHERE followers > 10 AND location IN BOX(40, -75, 42, -72)")
	want := map[string]bool{"text": true, "followers": true, "location": true, "lat": true, "lon": true}
	if len(q.Columns) != len(want) {
		t.Fatalf("columns = %v, want %v", q.Columns, want)
	}
	for _, c := range q.Columns {
		if !want[c] {
			t.Fatalf("unexpected column %q in %v", c, q.Columns)
		}
	}
	// Grouping by a geo-named column reads that column alone: the GPS
	// columns belong to bounding-box tests.
	grouped := analyze(t, "SELECT COUNT(*) AS n FROM twitter GROUP BY loc WINDOW 5 MINUTES")
	if len(grouped.Columns) != 1 || grouped.Columns[0] != "loc" {
		t.Fatalf("GROUP BY loc columns = %v, want [loc]", grouped.Columns)
	}
	star := analyze(t, "SELECT * FROM twitter WHERE followers > 10")
	if star.Columns != nil {
		t.Fatalf("wildcard must disable pruning, got %v", star.Columns)
	}
}
