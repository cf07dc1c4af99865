package value_test

import (
	"math"
	"testing"
	"time"

	"tweeql/internal/value"
)

func TestSameCell(t *testing.T) {
	at := time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC)
	pre := time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC)
	jst := time.FixedZone("JST", 9*3600)
	for _, c := range []struct {
		name string
		a, b value.Value
		same bool
	}{
		{"nulls", value.Null(), value.Null(), true},
		{"NaN payloads", value.Float(math.NaN()), value.Float(math.Float64frombits(0xfff8000000000007)), true},
		{"-0 and 0", value.Float(math.Copysign(0, -1)), value.Float(0), false},
		{"int and float of one number", value.Int(1), value.Float(1), false},
		{"int and string", value.Int(1), value.String("1"), false},
		{"strings", value.String("tokyo"), value.String("tokyo"), true},
		{"same second, other nanos", value.Time(at), value.Time(at.Add(999 * time.Millisecond)), true},
		{"next second", value.Time(at), value.Time(at.Add(time.Second)), false},
		{"same instant, other zone", value.Time(at), value.Time(at.In(jst)), true},
		{"pre-1970 second floors", value.Time(pre), value.Time(pre.Add(700 * time.Millisecond)), true},
		{"pre-1970 across the second", value.Time(pre), value.Time(pre.Add(-300 * time.Millisecond)), false},
		{"out of UnixNano range", value.Time(time.Date(2500, 1, 1, 0, 0, 0, 1, time.UTC)), value.Time(time.Date(2500, 1, 1, 9, 0, 0, 0, jst)), true},
		{"epoch and zero time", value.Time(time.Unix(0, 0).UTC()), value.Time(time.Time{}), false},
		{"lists that print alike", value.List([]value.Value{value.Int(1)}), value.List([]value.Value{value.String("1")}), true},
		{"lists that print apart", value.List([]value.Value{value.Int(1)}), value.List([]value.Value{value.Int(2)}), false},
	} {
		if got := value.SameCell(c.a, c.b); got != c.same {
			t.Errorf("%s: SameCell = %v, want %v", c.name, got, c.same)
		}
		if want := c.a.Kind() == c.b.Kind() && c.a.String() == c.b.String(); want != c.same {
			t.Errorf("%s: the rendering says %v", c.name, want)
		}
		h := value.NewHasher()
		if c.same && h.Cell(c.a) != h.Cell(c.b) {
			t.Errorf("%s: same key, different hashes", c.name)
		}
	}
	if value.SameKey([]value.Value{value.Int(1)}, []value.Value{value.Int(1), value.Null()}) {
		t.Error("runs of different lengths are the same key")
	}
}

// TestHashAllocatesNothing: hashing and comparing a run of the kinds a
// group key usually holds stays off the heap.
func TestHashAllocatesNothing(t *testing.T) {
	vs := []value.Value{value.String("Tokyo, Japan"), value.Int(42), value.Float(0.5), value.Bool(true), value.Null(),
		value.Time(time.Date(2011, 6, 12, 15, 0, 0, 0, time.UTC))}
	ws := append([]value.Value(nil), vs...)
	h := value.NewHasher()
	allocs := testing.AllocsPerRun(100, func() {
		if h.Cells(vs) != h.Cells(ws) || !value.SameKey(vs, ws) {
			t.Fatal("equal runs differ")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per hash and compare, want 0", allocs)
	}
}
