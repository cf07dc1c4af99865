package value

import (
	"testing"
	"time"
)

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Field{"text", KindString}, Field{"Count", KindInt})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i, ok := s.Index("TEXT"); !ok || i != 0 {
		t.Errorf("Index(TEXT) = %d,%v", i, ok)
	}
	if i, ok := s.Index("count"); !ok || i != 1 {
		t.Errorf("Index(count) = %d,%v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index(missing) should be false")
	}
	if got := s.String(); got != "(text string, Count int)" {
		t.Errorf("String = %q", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "text" || names[1] != "Count" {
		t.Errorf("Names = %v", names)
	}
	fs := s.Fields()
	fs[0].Name = "mutated"
	if s.Field(0).Name != "text" {
		t.Error("Fields() must return a copy")
	}
}

func TestSchemaDuplicateKeepsFirst(t *testing.T) {
	s := NewSchema(Field{"a", KindInt}, Field{"A", KindString})
	if i, _ := s.Index("a"); i != 0 {
		t.Errorf("duplicate lookup = %d, want 0", i)
	}
	// Case-variant probes hit the same (first) slot through IndexFold.
	for _, name := range []string{"a", "A"} {
		if i, ok := s.IndexFold(name); !ok || i != 0 {
			t.Errorf("IndexFold(%q) = %d,%v, want 0,true", name, i, ok)
		}
	}
}

func TestSchemaIndexFold(t *testing.T) {
	s := NewSchema(Field{"text", KindString}, Field{"Count", KindInt}, Field{"café", KindString})
	cases := []struct {
		name string
		idx  int
		ok   bool
	}{
		{"text", 0, true},  // already lower: single map probe
		{"TEXT", 0, true},  // upper ASCII folds
		{"Count", 1, true}, // stored mixed-case, folded key
		{"count", 1, true}, // pre-lowered probe
		{"café", 2, true},  // non-ASCII lower: direct hit
		{"CAFÉ", 2, true},  // non-ASCII upper folds
		{"missing", 0, false},
		{"MISSING", 0, false},
	}
	for _, c := range cases {
		i, ok := s.IndexFold(c.name)
		if ok != c.ok || (ok && i != c.idx) {
			t.Errorf("IndexFold(%q) = %d,%v, want %d,%v", c.name, i, ok, c.idx, c.ok)
		}
	}
	// The already-lower-case probe — the per-row hot path — must not
	// allocate (no strings.ToLower call).
	if allocs := testing.AllocsPerRun(100, func() { s.IndexFold("text") }); allocs != 0 {
		t.Errorf("IndexFold(lower) allocates %v/op, want 0", allocs)
	}
}

func TestSchemaExtend(t *testing.T) {
	s := NewSchema(Field{"a", KindInt})
	s2 := s.Extend(Field{"b", KindFloat})
	if s2.Len() != 2 || s.Len() != 1 {
		t.Fatalf("Extend mutated original: %d %d", s.Len(), s2.Len())
	}
	if i, ok := s2.Index("b"); !ok || i != 1 {
		t.Errorf("extended Index(b) = %d,%v", i, ok)
	}
}

func TestTuple(t *testing.T) {
	s := NewSchema(Field{"text", KindString}, Field{"n", KindInt})
	ts := time.Unix(1000, 0)
	tup := NewTuple(s, []Value{String("hello"), Int(3)}, ts)
	if got := tup.Get("text"); got.String() != "hello" {
		t.Errorf("Get(text) = %s", got)
	}
	if got := tup.Get("absent"); !got.IsNull() {
		t.Errorf("Get(absent) = %s", got)
	}
	if !tup.Has("n") || tup.Has("absent") {
		t.Error("Has misreports")
	}
	if got := tup.String(); got != "text=hello, n=3" {
		t.Errorf("String = %q", got)
	}
	m := tup.Map()
	if m["text"] != "hello" || m["n"] != int64(3) {
		t.Errorf("Map = %v", m)
	}
	if !tup.TS.Equal(ts) {
		t.Error("timestamp lost")
	}
}

func TestTupleArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTuple with wrong arity should panic")
		}
	}()
	s := NewSchema(Field{"a", KindInt})
	NewTuple(s, []Value{Int(1), Int(2)}, time.Time{})
}

func TestSchemaPrune(t *testing.T) {
	s := NewSchema(Field{"ID", KindInt}, Field{"a.text", KindString}, Field{"b.text", KindString}, Field{"n", KindInt})
	if p, idx := s.Prune(nil); p != s || len(idx) != 4 {
		t.Errorf("Prune(nil) = %v %v, want the schema itself", p, idx)
	}
	if p, _ := s.Prune([]string{"n", "text", "id", "absent"}); p != s {
		t.Errorf("a list keeping every field must return the schema itself, got %v", p)
	}
	// Case-insensitive; a bare name keeps every join-qualified column it
	// can resolve to; schema order, not request order.
	p, idx := s.Prune([]string{"text", "id"})
	if p.String() != "(ID int, a.text string, b.text string)" || len(idx) != 3 || idx[0] != 0 || idx[2] != 2 {
		t.Errorf("Prune(text, id) = %v %v", p, idx)
	}
	if p, idx := s.Prune([]string{"B.Text"}); p.String() != "(b.text string)" || idx[0] != 2 {
		t.Errorf("Prune(B.Text) = %v %v", p, idx)
	}
	if p, idx := s.Prune([]string{}); p.Len() != 0 || len(idx) != 0 {
		t.Errorf("Prune(no columns) = %v %v, want the empty schema", p, idx)
	}
}
