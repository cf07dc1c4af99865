// Package value defines the dynamically typed value model used throughout
// the TweeQL engine: scalar values, tuples (rows), and schemas.
//
// TweeQL operates over unstructured tweets, so fields frequently change
// type across rows (a location string may geocode to a float or fail to
// null). Values therefore carry their kind at runtime, and the comparison
// and arithmetic rules perform the numeric coercions SQL users expect
// (int widens to float; null propagates).
package value

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime types a Value may hold.
type Kind int

const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindList
)

// String returns the lower-case SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed scalar (or list of scalars). The zero
// Value is NULL, following the zero-value-is-useful convention.
//
// A Value is 40 bytes: the kind, one 8-byte word, a string header and
// a pointer. The word holds a bool (0 or 1), an int64, a float64's
// IEEE bits, or a time as UTC UnixNano; the string header holds a
// string's content. The pointer is nil except for the rare cases the
// word cannot hold exactly, where it points at an immutable record:
// list elements, and any time other than an in-range UTC wall-clock
// reading (the zero time, times outside 1678–2262, a non-UTC location,
// a monotonic clock reading). So Int, Float, String, Bool and Time of
// an in-range UTC time allocate nothing, and every accessor hands back
// exactly what the constructor was given.
type Value struct {
	kind Kind
	w    uint64
	s    string
	x    *rare
}

// rare is the out-of-line part of a list or of a time the word cannot
// hold. It is never mutated after construction, so copies of a Value
// share it.
type rare struct {
	t time.Time
	l []Value
}

// zeroTime is the shared record of Time(time.Time{}): "no event time"
// is common enough in stored rows not to cost an allocation per cell.
var zeroTime = &rare{}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(b bool) Value {
	var w uint64
	if b {
		w = 1
	}
	return Value{kind: KindBool, w: w}
}

// Int wraps an int64.
func Int(i int64) Value { return Value{kind: KindInt, w: uint64(i)} }

// Float wraps a float64.
func Float(f float64) Value { return Value{kind: KindFloat, w: math.Float64bits(f)} }

// String wraps a string.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Time wraps a time.Time. A time that its UTC UnixNano reproduces
// exactly lives in the word; any other keeps the whole time.Time in a
// rare record.
func Time(t time.Time) Value {
	if ns := t.UnixNano(); unixNano(ns) == t {
		return Value{kind: KindTime, w: uint64(ns)}
	}
	if t == (time.Time{}) {
		return Value{kind: KindTime, x: zeroTime}
	}
	return Value{kind: KindTime, x: &rare{t: t}}
}

// unixNano is the time a word-held time stands for.
func unixNano(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// List wraps a slice of values. The slice is not copied.
func List(vs []Value) Value { return Value{kind: KindList, x: &rare{l: vs}} }

// Strings builds a list value from a string slice.
func Strings(ss []string) Value {
	vs := make([]Value, len(ss))
	for i, s := range ss {
		vs[i] = String(s)
	}
	return List(vs)
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// ErrType is returned when a value has the wrong kind for an operation.
var ErrType = errors.New("value: type mismatch")

// BoolVal returns the boolean content, or an error for non-bools.
func (v Value) BoolVal() (bool, error) {
	if v.kind != KindBool {
		return false, fmt.Errorf("%w: want bool, have %s", ErrType, v.kind)
	}
	return v.w != 0, nil
}

// IntVal returns the integer content; floats with integral values are
// accepted.
func (v Value) IntVal() (int64, error) {
	switch v.kind {
	case KindInt:
		return int64(v.w), nil
	case KindFloat:
		if f := math.Float64frombits(v.w); f == math.Trunc(f) {
			return int64(f), nil
		}
	}
	return 0, fmt.Errorf("%w: want int, have %s", ErrType, v.kind)
}

// FloatVal returns the numeric content widened to float64.
func (v Value) FloatVal() (float64, error) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.w)), nil
	case KindFloat:
		return math.Float64frombits(v.w), nil
	}
	return 0, fmt.Errorf("%w: want float, have %s", ErrType, v.kind)
}

// StringVal returns the string content, or an error for non-strings.
func (v Value) StringVal() (string, error) {
	if v.kind != KindString {
		return "", fmt.Errorf("%w: want string, have %s", ErrType, v.kind)
	}
	return v.s, nil
}

// TimeVal returns the time content, or an error for non-times.
func (v Value) TimeVal() (time.Time, error) {
	if v.kind != KindTime {
		return time.Time{}, fmt.Errorf("%w: want time, have %s", ErrType, v.kind)
	}
	return v.time(), nil
}

// Str returns the string content without StringVal's kind check and
// error path — the zero string for non-string kinds. Hot paths that
// have already checked Kind use it to stay call-free: Str inlines,
// while StringVal cannot (its error construction is too costly for the
// inliner), so every StringVal call copies the whole Value.
func (v Value) Str() string { return v.s }

// Num returns the numeric content widened to float64 for KindInt and
// KindFloat, 0 otherwise; the same check-Kind-first contract as Str.
func (v Value) Num() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.w))
	case KindFloat:
		return math.Float64frombits(v.w)
	}
	return 0
}

// IntRaw returns the raw int64 content for KindInt, 0 otherwise; the
// same check-Kind-first contract as Str.
func (v Value) IntRaw() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.w)
}

// TimeRaw returns the raw time content for KindTime, the zero time
// otherwise; the same check-Kind-first contract as Str. Columnar
// materialization uses it to flatten time columns to int64 nanoseconds
// without TimeVal's error path.
func (v Value) TimeRaw() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return v.time()
}

// time is a KindTime value's content.
func (v Value) time() time.Time {
	if v.x != nil {
		return v.x.t
	}
	return unixNano(int64(v.w))
}

// The *Ref accessors are the pointer-receiver twins of Kind, Str, Num,
// IntRaw, and TimeRaw for per-cell loops over []Value. A 40-byte Value
// is over the 32 bytes the compiler keeps in registers, so even an
// inlined value-receiver accessor copies the whole cell through the
// stack. Switching the three such loops — the columnar transpose
// (exec.ColVec.materialize), the segment column encoder and the JSON
// row encoder — to the value-receiver accessors made the columnar
// filter 5–42 % and the JSON encoder 20 % slower (BENCH_27.json,
// "ref_accessors"). Reading through the pointer is a single field
// load. The check-Kind-first contract carries over unchanged.

// KindRef is Kind through the pointer.
func (v *Value) KindRef() Kind { return v.kind }

// StrRef is Str through the pointer.
func (v *Value) StrRef() string { return v.s }

// NumRef is Num through the pointer.
func (v *Value) NumRef() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.w))
	case KindFloat:
		return math.Float64frombits(v.w)
	}
	return 0
}

// IntRef is IntRaw through the pointer.
func (v *Value) IntRef() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.w)
}

// TimeRef is TimeRaw through the pointer.
func (v *Value) TimeRef() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return v.time()
}

// ListVal returns the list content, or an error for non-lists.
func (v Value) ListVal() ([]Value, error) {
	if v.kind != KindList {
		return nil, fmt.Errorf("%w: want list, have %s", ErrType, v.kind)
	}
	return v.x.l, nil
}

// Truthy reports whether v counts as true in a WHERE predicate: non-false
// bools, non-zero numbers, non-empty strings/lists. NULL is never truthy
// (SQL three-valued logic collapses UNKNOWN to false at the filter).
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.w != 0
	case KindFloat:
		return math.Float64frombits(v.w) != 0 // -0.0 is false, NaN true
	case KindString:
		return v.s != ""
	case KindTime:
		// A word-held time is never the zero time.
		return v.x == nil || !v.x.t.IsZero()
	case KindList:
		return len(v.x.l) > 0
	default:
		return false
	}
}

// numeric reports whether the kind participates in arithmetic coercion.
func (k Kind) numeric() bool { return k == KindInt || k == KindFloat }

// Compare orders two values: -1, 0, or +1. Numeric kinds compare after
// widening; strings compare lexicographically; times chronologically.
// NULL compares less than everything except NULL. Mismatched,
// non-coercible kinds return an error.
func Compare(a, b Value) (int, error) {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		return 0, nil
	case a.kind == KindNull:
		return -1, nil
	case b.kind == KindNull:
		return 1, nil
	}
	if a.kind.numeric() && b.kind.numeric() {
		// kernel: kind pre-proven
		af, bf := a.Num(), b.Num()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("%w: cannot compare %s with %s", ErrType, a.kind, b.kind)
	}
	switch a.kind {
	case KindBool:
		return cmp.Compare(a.w, b.w), nil
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindTime:
		if a.x == nil && b.x == nil {
			return cmp.Compare(int64(a.w), int64(b.w)), nil
		}
		// Before/After, not UnixNano: two monotonic readings compare by
		// the monotonic clock, and a time outside UnixNano's range has
		// no faithful int64.
		at, bt := a.time(), b.time()
		switch {
		case at.Before(bt):
			return -1, nil
		case at.After(bt):
			return 1, nil
		default:
			return 0, nil
		}
	case KindList:
		al, bl := a.x.l, b.x.l
		for i := 0; i < len(al) && i < len(bl); i++ {
			c, err := Compare(al[i], bl[i])
			if err != nil || c != 0 {
				return c, err
			}
		}
		switch {
		case len(al) < len(bl):
			return -1, nil
		case len(al) > len(bl):
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("%w: cannot compare %s", ErrType, a.kind)
}

// Equal reports deep equality with numeric coercion. Mismatched kinds are
// unequal rather than an error, matching filter semantics.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Arith applies a binary arithmetic operator (+ - * / %) with SQL
// semantics: NULL propagates, ints stay ints except true division by a
// float, division by zero returns NULL.
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "+" && a.kind == KindString && b.kind == KindString {
		return String(a.s + b.s), nil
	}
	if !a.kind.numeric() || !b.kind.numeric() {
		return Null(), fmt.Errorf("%w: %s %s %s", ErrType, a.kind, op, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := int64(a.w), int64(b.w)
		switch op {
		case "+":
			return Int(x + y), nil
		case "-":
			return Int(x - y), nil
		case "*":
			return Int(x * y), nil
		case "/":
			if y == 0 {
				return Null(), nil
			}
			return Int(x / y), nil
		case "%":
			if y == 0 {
				return Null(), nil
			}
			return Int(x % y), nil
		}
		return Null(), fmt.Errorf("value: unknown operator %q", op)
	}
	// kernel: kind pre-proven
	x, y := a.Num(), b.Num()
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	case "/":
		if y == 0 {
			return Null(), nil
		}
		return Float(x / y), nil
	case "%":
		if y == 0 {
			return Null(), nil
		}
		return Float(math.Mod(x, y)), nil
	}
	return Null(), fmt.Errorf("value: unknown operator %q", op)
}

// String renders the value for display (REPL output, logs).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		return strconv.FormatBool(v.w != 0)
	case KindInt:
		return strconv.FormatInt(int64(v.w), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.w), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.time().UTC().Format(time.RFC3339)
	case KindList:
		parts := make([]string, len(v.x.l))
		for i, e := range v.x.l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "?"
	}
}

// GoValue unwraps the value to its natural Go representation, for JSON
// encoding and UDF interop.
func (v Value) GoValue() any {
	switch v.kind {
	case KindBool:
		return v.w != 0
	case KindInt:
		return int64(v.w)
	case KindFloat:
		return math.Float64frombits(v.w)
	case KindString:
		return v.s
	case KindTime:
		return v.time()
	case KindList:
		out := make([]any, len(v.x.l))
		for i, e := range v.x.l {
			out[i] = e.GoValue()
		}
		return out
	default:
		return nil
	}
}

// FromGo converts a natural Go value into a Value. Unsupported types
// return an error; nil maps to NULL.
func FromGo(x any) (Value, error) {
	switch t := x.(type) {
	case nil:
		return Null(), nil
	case bool:
		return Bool(t), nil
	case int:
		return Int(int64(t)), nil
	case int32:
		return Int(int64(t)), nil
	case int64:
		return Int(t), nil
	case float32:
		return Float(float64(t)), nil
	case float64:
		return Float(t), nil
	case string:
		return String(t), nil
	case time.Time:
		return Time(t), nil
	case Value:
		return t, nil
	case []string:
		return Strings(t), nil
	case []any:
		vs := make([]Value, len(t))
		for i, e := range t {
			v, err := FromGo(e)
			if err != nil {
				return Null(), err
			}
			vs[i] = v
		}
		return List(vs), nil
	default:
		return Null(), fmt.Errorf("%w: unsupported Go type %T", ErrType, x)
	}
}
