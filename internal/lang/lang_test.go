package lang

import (
	"strings"
	"testing"
	"time"

	"tweeql/internal/value"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT text FROM twitter WHERE x >= 1.5 -- comment\n AND y != 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var norms []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		norms = append(norms, tok.Norm)
	}
	wantNorms := []string{"SELECT", "text", "FROM", "twitter", "WHERE", "x", ">=", "1.5", "AND", "y", "!=", "it's", "<eof>"}
	if len(norms) != len(wantNorms) {
		t.Fatalf("norms = %v", norms)
	}
	for i := range wantNorms {
		if norms[i] != wantNorms[i] {
			t.Errorf("tok %d = %q, want %q", i, norms[i], wantNorms[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[7] != TokNumber || kinds[11] != TokString {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("SELECT ~"); err == nil {
		t.Error("bad character should fail")
	}
	var le *LexError
	_, err := Lex("&")
	if le, _ = err.(*LexError); le == nil || !strings.Contains(le.Error(), "offset 0") {
		t.Errorf("LexError = %v", err)
	}
}

func TestLexNotEquals(t *testing.T) {
	toks, err := Lex("a <> b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Norm != "!=" {
		t.Errorf("<> normalized to %q", toks[1].Norm)
	}
}

func TestParsePaperQuery1(t *testing.T) {
	// The paper's first example query.
	q := `SELECT sentiment(text), latitude(loc), longitude(loc)
	      FROM twitter
	      WHERE text contains 'obama';`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 3 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if stmt.From.Name != "twitter" {
		t.Errorf("from = %q", stmt.From.Name)
	}
	bin, ok := stmt.Where.(*Binary)
	if !ok || bin.Op != "CONTAINS" {
		t.Fatalf("where = %v", stmt.Where)
	}
	call, ok := stmt.Items[0].Expr.(*Call)
	if !ok || call.Name != "sentiment" {
		t.Errorf("item0 = %v", stmt.Items[0].Expr)
	}
}

func TestParsePaperQuery2(t *testing.T) {
	// The paper's uncertain-selectivities example.
	q := `SELECT text
	      FROM twitter
	      WHERE text contains 'obama'
	      AND location in [bounding box for new york]`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := stmt.Where.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("where = %v", stmt.Where)
	}
	inbox, ok := and.R.(*InBox)
	if !ok {
		t.Fatalf("right side = %T", and.R)
	}
	if inbox.Box.City != "new york" {
		t.Errorf("box city = %q", inbox.Box.City)
	}
}

func TestParsePaperQuery3(t *testing.T) {
	// The paper's uneven-aggregate-groups example, with the CONTROL-style
	// confidence clause.
	q := `SELECT AVG(sentiment(text)),
	             floor(latitude(loc)) AS lat,
	             floor(longitude(loc)) AS long
	      FROM twitter
	      WHERE text contains 'obama'
	      GROUP BY lat, long
	      WINDOW 3 hours
	      WITH CONFIDENCE 0.95 WITHIN 0.1`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.GroupBy) != 2 {
		t.Fatalf("group by = %v", stmt.GroupBy)
	}
	if stmt.Window == nil || stmt.Window.Size != 3*time.Hour || stmt.Window.Every != 3*time.Hour {
		t.Errorf("window = %+v", stmt.Window)
	}
	if stmt.Confidence == nil || stmt.Confidence.Level != 0.95 || stmt.Confidence.HalfWidth != 0.1 {
		t.Errorf("confidence = %+v", stmt.Confidence)
	}
	if stmt.Items[1].Alias != "lat" || stmt.Items[2].Alias != "long" {
		t.Errorf("aliases = %q, %q", stmt.Items[1].Alias, stmt.Items[2].Alias)
	}
}

func TestParseWindowEvery(t *testing.T) {
	stmt, err := Parse("SELECT COUNT(*) FROM twitter WINDOW 3 HOURS EVERY 30 MINUTES")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Window.Size != 3*time.Hour || stmt.Window.Every != 30*time.Minute {
		t.Errorf("window = %+v", stmt.Window)
	}
	if !stmt.Items[0].Expr.(*Call).Star {
		t.Error("COUNT(*) star lost")
	}
}

func TestParseCountWindow(t *testing.T) {
	stmt, err := Parse("SELECT COUNT(*) FROM twitter WINDOW 1000 TWEETS")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Window == nil || stmt.Window.Count != 1000 || stmt.Window.Size != 0 {
		t.Errorf("window = %+v", stmt.Window)
	}
	// ROWS is an accepted synonym.
	stmt, err = Parse("SELECT COUNT(*) FROM twitter WINDOW 50 ROWS")
	if err != nil || stmt.Window.Count != 50 {
		t.Errorf("rows window = %+v, %v", stmt.Window, err)
	}
	// Canonical rendering round-trips.
	s2, err := Parse(stmt.String())
	if err != nil || s2.Window.Count != 50 {
		t.Errorf("round trip = %v, %v", s2, err)
	}
	bad := []string{
		"SELECT COUNT(*) FROM t WINDOW 0 TWEETS",
		"SELECT COUNT(*) FROM t WINDOW 1.5 TWEETS",
		"SELECT COUNT(*) FROM t WINDOW 100 TWEETS EVERY 10 TWEETS",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("%s should fail", q)
		}
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse(`SELECT a.text, b.text FROM s1 AS a JOIN s2 AS b ON a.user = b.user WINDOW 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Join == nil || stmt.Join.Right.Alias != "b" {
		t.Fatalf("join = %+v", stmt.Join)
	}
	on, ok := stmt.Join.On.(*Binary)
	if !ok || on.Op != "=" {
		t.Errorf("on = %v", stmt.Join.On)
	}
	id, ok := stmt.Items[0].Expr.(*Ident)
	if !ok || id.Qualifier != "a" || id.Name != "text" {
		t.Errorf("item0 = %v", stmt.Items[0].Expr)
	}
}

func TestParseIntoVariants(t *testing.T) {
	cases := []struct {
		q    string
		kind IntoKind
		name string
	}{
		{"SELECT text FROM t INTO STDOUT", IntoStdout, ""},
		{"SELECT text FROM t INTO STREAM s2", IntoStream, "s2"},
		{"SELECT text FROM t INTO TABLE results", IntoTable, "results"},
	}
	for _, c := range cases {
		stmt, err := Parse(c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		if stmt.Into == nil || stmt.Into.Kind != c.kind || stmt.Into.Name != c.name {
			t.Errorf("%s: into = %+v", c.q, stmt.Into)
		}
	}
	if _, err := Parse("SELECT text FROM t INTO NOWHERE"); err == nil {
		t.Error("bad INTO should fail")
	}
}

func TestParseBoxForms(t *testing.T) {
	forms := []string{
		"SELECT text FROM t WHERE location IN [BOUNDING BOX FOR nyc]",
		"SELECT text FROM t WHERE location IN [BOX 40.47 -74.26 40.92 -73.70]",
		"SELECT text FROM t WHERE location IN BOX(40.47, -74.26, 40.92, -73.70)",
		"SELECT text FROM t WHERE location IN BOX(nyc)",
		"SELECT text FROM t WHERE location IN BOX('new york')",
		"SELECT text FROM t WHERE location IN BOUNDING BOX FOR tokyo",
	}
	for _, q := range forms {
		stmt, err := Parse(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if _, ok := stmt.Where.(*InBox); !ok {
			t.Errorf("%s: where = %T", q, stmt.Where)
		}
	}
}

func TestParseInList(t *testing.T) {
	stmt, err := Parse("SELECT text FROM t WHERE lang IN ('en', 'es', 'pt')")
	if err != nil {
		t.Fatal(err)
	}
	il, ok := stmt.Where.(*InList)
	if !ok || len(il.Items) != 3 {
		t.Fatalf("where = %v", stmt.Where)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT x FROM t WHERE a = 1 OR b = 2 AND NOT c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := stmt.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", stmt.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("or.R = %v", or.R)
	}
	if _, ok := and.R.(*Unary); !ok {
		t.Errorf("and.R = %v", and.R)
	}
	// Arithmetic precedence: 1 + 2 * 3 parses as 1 + (2*3).
	stmt, err = Parse("SELECT 1 + 2 * 3 AS v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	add := stmt.Items[0].Expr.(*Binary)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != "*" {
		t.Errorf("right = %v", add.R)
	}
}

func TestParseIsNull(t *testing.T) {
	stmt, err := Parse("SELECT x FROM t WHERE lat IS NULL AND lon IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	and := stmt.Where.(*Binary)
	l, ok := and.L.(*IsNull)
	if !ok || l.Negate {
		t.Errorf("L = %v", and.L)
	}
	r, ok := and.R.(*IsNull)
	if !ok || !r.Negate {
		t.Errorf("R = %v", and.R)
	}
}

func TestParseLiterals(t *testing.T) {
	stmt, err := Parse("SELECT 1, 2.5, 'str', NULL, TRUE, FALSE, -3 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindString, value.KindNull, value.KindBool, value.KindBool}
	for i, k := range kinds {
		lit, ok := stmt.Items[i].Expr.(*Literal)
		if !ok || lit.Val.Kind() != k {
			t.Errorf("item %d = %v", i, stmt.Items[i].Expr)
		}
	}
	u, ok := stmt.Items[6].Expr.(*Unary)
	if !ok || u.Op != "-" {
		t.Errorf("item 6 = %v", stmt.Items[6].Expr)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM t WHERE",
		"SELECT x FROM t WINDOW 0 SECONDS",
		"SELECT x FROM t WINDOW 5 PARSECS",
		"SELECT x FROM t WITH CONFIDENCE 2",
		"SELECT x FROM t WITH CONFIDENCE 0.9 WITHIN -1",
		"SELECT x FROM t LIMIT -3",
		"SELECT x FROM t LIMIT 1.5",
		"SELECT x FROM t extra garbage (",
		"SELECT x FROM t WHERE a IN",
		"SELECT x FROM t WHERE a IN [BOX 1 2 3]",
		"SELECT x FROM t JOIN ON x = y",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseLimit(t *testing.T) {
	stmt, err := Parse("SELECT text FROM t LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Limit != 10 {
		t.Errorf("limit = %d", stmt.Limit)
	}
	stmt, _ = Parse("SELECT text FROM t")
	if stmt.Limit != -1 {
		t.Errorf("default limit = %d", stmt.Limit)
	}
}

// roundTripQueries are statements whose canonical rendering must
// reparse to the same rendering; they also seed FuzzParse.
var roundTripQueries = []string{
	"SELECT sentiment(text), latitude(loc) FROM twitter WHERE text CONTAINS 'obama'",
	"SELECT AVG(s) AS avg_s, lat FROM twitter GROUP BY lat WINDOW 3 HOURS EVERY 1 HOURS WITH CONFIDENCE 0.95 WITHIN 0.1",
	"SELECT * FROM twitter LIMIT 5 INTO STREAM out",
	"SELECT a.x FROM s1 AS a JOIN s2 AS b ON a.u = b.u WHERE (a.x + 1) > 2 WINDOW 60 SECONDS",
	"SELECT text FROM t WHERE loc IN [BOUNDING BOX FOR tokyo] OR loc IN BOX(1, 2, 3, 4)",
	"SELECT text FROM t WHERE lang IN ('en', 'es') AND x IS NOT NULL",
}

func TestStringRoundTrip(t *testing.T) {
	for _, q := range roundTripQueries {
		s1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		s2, err := Parse(s1.String())
		if err != nil {
			t.Errorf("reparse of %q (%q): %v", q, s1.String(), err)
			continue
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip:\n  first:  %s\n  second: %s", s1.String(), s2.String())
		}
	}
}

func TestWalk(t *testing.T) {
	stmt, err := Parse("SELECT f(a + b) FROM t WHERE x IN ('p') AND loc IN BOX(1,2,3,4) AND y IS NULL AND NOT z")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	Walk(stmt.Where, func(Expr) bool { count++; return true })
	if count < 10 {
		t.Errorf("Walk visited %d nodes", count)
	}
	// Early stop.
	count = 0
	Walk(stmt.Where, func(Expr) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
	Walk(nil, func(Expr) bool { t.Error("nil walk should not call fn"); return true })
}

func TestBareAlias(t *testing.T) {
	stmt, err := Parse("SELECT floor(lat) latbucket FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Items[0].Alias != "latbucket" {
		t.Errorf("alias = %q", stmt.Items[0].Alias)
	}
	if got := stmt.Items[0].Name(); got != "latbucket" {
		t.Errorf("Name = %q", got)
	}
}

func TestSelectItemName(t *testing.T) {
	stmt, _ := Parse("SELECT text, COUNT(*) FROM t")
	if stmt.Items[0].Name() != "text" {
		t.Errorf("ident name = %q", stmt.Items[0].Name())
	}
	if stmt.Items[1].Name() != "COUNT(*)" {
		t.Errorf("call name = %q", stmt.Items[1].Name())
	}
}

// TestLexSigilIdents pins the sigil scan: ident-start runes that are
// not ident-part runes ($, #, @) must still advance the lexer — a
// regression here is an infinite loop, not a wrong token.
func TestLexSigilIdents(t *testing.T) {
	toks, err := Lex("$sys #tag @user $ # @")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			texts = append(texts, tk.Text)
		}
	}
	want := []string{"$sys", "#tag", "@user", "$", "#", "@"}
	if len(texts) != len(want) {
		t.Fatalf("idents = %q, want %q", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("idents = %q, want %q", texts, want)
		}
	}
}

func TestParseSystemStreamNames(t *testing.T) {
	stmt, err := Parse(`SELECT name, value FROM $sys.metrics WHERE name = 'output_lag_p99' WINDOW 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From.Name != "$sys.metrics" {
		t.Fatalf("from = %q, want $sys.metrics", stmt.From.Name)
	}
	// Dotted names take aliases like any other source, and the alias
	// qualifies columns as usual.
	stmt, err = Parse(`SELECT m.value FROM $sys.metrics m WHERE m.name = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From.Name != "$sys.metrics" || stmt.From.Alias != "m" {
		t.Fatalf("from = %+v", stmt.From)
	}
	id, ok := stmt.Items[0].Expr.(*Ident)
	if !ok || id.Qualifier != "m" || id.Name != "value" {
		t.Fatalf("item0 = %v", stmt.Items[0].Expr)
	}
	// Round-trip: a dotted FROM name re-renders and re-parses.
	stmt2, err := Parse(stmt.String())
	if err != nil {
		t.Fatalf("round-trip of %q: %v", stmt.String(), err)
	}
	if stmt2.From.Name != "$sys.metrics" {
		t.Fatalf("round-trip from = %q", stmt2.From.Name)
	}
	// A trailing dot with no identifier is a parse error, not a panic.
	if _, err := Parse(`SELECT x FROM $sys.`); err == nil {
		t.Error("dangling dot in FROM should fail")
	}
}
