package value

import (
	"fmt"
	"strings"
	"time"
)

// Field describes one column of a schema.
type Field struct {
	Name string
	Kind Kind // KindNull means "dynamic": any kind may appear
}

// Schema is an ordered list of named fields. Schemas are immutable once
// shared between operators; build them with NewSchema.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from fields. Duplicate names keep the first
// position (later fields shadow on lookup only if the earlier is removed).
func NewSchema(fields ...Field) *Schema {
	s := &Schema{fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		key := strings.ToLower(f.Name)
		if _, dup := s.index[key]; !dup {
			s.index[key] = i
		}
	}
	return s
}

// Len reports the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Index returns the position of the named field (case-insensitive) and
// whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	return s.IndexFold(name)
}

// IndexFold is the case-insensitive lookup behind Index. The index keys
// are pre-lower-cased at NewSchema time, so a name that is already
// lower-case — the common case on the per-row hot path — is a single
// map probe with no folding; only names containing upper-case (or
// non-ASCII) characters pay for strings.ToLower.
func (s *Schema) IndexFold(name string) (int, bool) {
	if i, ok := s.index[name]; ok {
		return i, true
	}
	if !needsFold(name) {
		return 0, false
	}
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// needsFold reports whether name can differ from its lower-casing:
// upper-case ASCII always does, and any non-ASCII byte might.
func needsFold(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if ('A' <= c && c <= 'Z') || c >= 0x80 {
			return true
		}
	}
	return false
}

// Names returns the field names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Name
	}
	return out
}

// Extend returns a new schema with extra fields appended.
func (s *Schema) Extend(fields ...Field) *Schema {
	all := make([]Field, 0, len(s.fields)+len(fields))
	all = append(all, s.fields...)
	all = append(all, fields...)
	return NewSchema(all...)
}

// Prune maps a plan's referenced-column list onto the schema: the
// schema holding only the fields a by-name lookup of those columns can
// resolve to, and their positions in s, both in schema order. A field
// is kept when its name — or, for a join-qualified "a.text", the part
// after the first '.' — case-insensitively equals a requested column.
// nil columns (and a list that keeps every field) returns s itself, so
// unpruned rows keep the schema pointer expressions compiled against;
// requested names the schema lacks are dropped (they resolve to NULL
// against the full schema too).
func (s *Schema) Prune(columns []string) (*Schema, []int) {
	idx := make([]int, 0, len(s.fields))
	if columns == nil {
		for i := range s.fields {
			idx = append(idx, i)
		}
		return s, idx
	}
	want := make(map[string]bool, len(columns))
	for _, c := range columns {
		want[strings.ToLower(c)] = true
	}
	for i, f := range s.fields {
		name := strings.ToLower(f.Name)
		if j := strings.IndexByte(name, '.'); !want[name] && j >= 0 {
			name = name[j+1:]
		}
		if want[name] {
			idx = append(idx, i)
		}
	}
	if len(idx) == len(s.fields) {
		return s, idx
	}
	fields := make([]Field, len(idx))
	for j, i := range idx {
		fields[j] = s.fields[i]
	}
	return NewSchema(fields...), idx
}

// String renders the schema as "(name kind, ...)".
func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = f.Name + " " + f.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row: a schema plus positional values. Tuples also carry
// the event timestamp used by windowing operators, so time travels with
// the row even after projection drops the created_at column.
type Tuple struct {
	Schema *Schema
	Values []Value
	TS     time.Time
}

// NewTuple pairs a schema with values; it panics if the arity differs,
// which always indicates an operator bug rather than bad user input.
func NewTuple(s *Schema, vals []Value, ts time.Time) Tuple {
	if len(vals) != s.Len() {
		panic(fmt.Sprintf("value: tuple arity %d != schema arity %d", len(vals), s.Len()))
	}
	return Tuple{Schema: s, Values: vals, TS: ts}
}

// Get returns the value of the named field; NULL if absent.
func (t Tuple) Get(name string) Value {
	if i, ok := t.Schema.Index(name); ok {
		return t.Values[i]
	}
	return Null()
}

// Has reports whether the named field exists in the schema.
func (t Tuple) Has(name string) bool {
	_, ok := t.Schema.Index(name)
	return ok
}

// String renders the tuple as "name=value, ...".
func (t Tuple) String() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		parts[i] = t.Schema.Field(i).Name + "=" + v.String()
	}
	return strings.Join(parts, ", ")
}

// Map converts the tuple into a name→Go-value map, for JSON encoding.
func (t Tuple) Map() map[string]any {
	m := make(map[string]any, len(t.Values))
	for i, v := range t.Values {
		m[t.Schema.Field(i).Name] = v.GoValue()
	}
	return m
}
