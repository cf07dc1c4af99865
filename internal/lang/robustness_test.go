package lang

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestLexNeverPanics drives the lexer with arbitrary strings: it must
// either return an error or a token stream ending in EOF — never panic,
// never loop. (Tweet text reaches the REPL via copy-paste; garbage in
// is the normal case.)
func TestLexNeverPanics(t *testing.T) {
	f := func(s string) bool {
		toks, err := Lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseNeverPanics drives the parser with arbitrary strings.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		_, _ = Parse("SELECT " + s + " FROM t")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzParse: Parse never panics, and every statement that parses
// renders to a string that reparses to the same rendering.
func FuzzParse(f *testing.F) {
	for _, q := range roundTripQueries {
		f.Add(q)
	}
	f.Add("SELECT COUNT(*) AS n, MIN(followers) AS lo FROM twitter GROUP BY retweet WINDOW 500 TWEETS")
	f.Add("SELECT a.text, b.followers FROM twitter AS a JOIN twitter AS b ON a.id = b.id WHERE a.followers > 100 WINDOW 1 MINUTE")
	f.Fuzz(func(t *testing.T, s string) {
		stmt, err := Parse(s)
		if err != nil {
			return
		}
		first := stmt.String()
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", s, first, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("Parse(%q) renders %q, which renders %q", s, first, second)
		}
	})
}

// TestLexTokenPositions checks offsets are non-decreasing and within
// bounds, so parser errors always point into the query.
func TestLexTokenPositions(t *testing.T) {
	q := "SELECT a, 'str' FROM t WHERE x >= 1.5 -- tail"
	toks, err := Lex(q)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, tok := range toks {
		if tok.Pos < prev || tok.Pos > len(q) {
			t.Fatalf("token %q at bad offset %d (prev %d)", tok.Text, tok.Pos, prev)
		}
		prev = tok.Pos
	}
}

// TestParseErrorsPointAtOffsets checks ParseError carries a usable
// offset.
func TestParseErrorsPointAtOffsets(t *testing.T) {
	_, err := Parse("SELECT x FROM t WHERE ???")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error without offset: %v", err)
	}
}

// TestDeepNesting guards the recursive-descent parser against stack
// blowups on adversarial inputs within reasonable depth.
func TestDeepNesting(t *testing.T) {
	depth := 200
	q := "SELECT " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + " FROM t"
	if _, err := Parse(q); err != nil {
		t.Errorf("deep nesting failed: %v", err)
	}
	// NOT chains likewise.
	q = "SELECT x FROM t WHERE " + strings.Repeat("NOT ", 200) + "x"
	if _, err := Parse(q); err != nil {
		t.Errorf("deep NOT chain failed: %v", err)
	}
}

// TestKeywordsAreCaseInsensitive exercises mixed-case queries.
func TestKeywordsAreCaseInsensitive(t *testing.T) {
	stmt, err := Parse("sElEcT text FrOm twitter wHeRe text CoNtAiNs 'x' GrOuP bY text WiNdOw 1 MiNuTe")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Window == nil || len(stmt.GroupBy) != 1 {
		t.Error("mixed-case clauses lost")
	}
}

// TestStringEscapes covers quote handling in both quote styles.
func TestStringEscapes(t *testing.T) {
	stmt, err := Parse(`SELECT 'it''s', "dq""str" FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	a := stmt.Items[0].Expr.(*Literal).Val.String()
	b := stmt.Items[1].Expr.(*Literal).Val.String()
	if a != "it's" || b != `dq"str` {
		t.Errorf("escapes = %q, %q", a, b)
	}
}
