package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int",
		KindFloat: "float", KindString: "string", KindTime: "time", KindList: "list",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatalf("zero Value should be NULL, got kind %s", v.Kind())
	}
}

func TestAccessors(t *testing.T) {
	now := time.Now()
	if b, err := Bool(true).BoolVal(); err != nil || !b {
		t.Errorf("BoolVal: %v %v", b, err)
	}
	if _, err := Int(1).BoolVal(); err == nil {
		t.Error("BoolVal on int should error")
	}
	if i, err := Int(42).IntVal(); err != nil || i != 42 {
		t.Errorf("IntVal: %v %v", i, err)
	}
	if i, err := Float(42).IntVal(); err != nil || i != 42 {
		t.Errorf("IntVal(float integral): %v %v", i, err)
	}
	if _, err := Float(42.5).IntVal(); err == nil {
		t.Error("IntVal on fractional float should error")
	}
	if f, err := Int(7).FloatVal(); err != nil || f != 7 {
		t.Errorf("FloatVal(int): %v %v", f, err)
	}
	if s, err := String("x").StringVal(); err != nil || s != "x" {
		t.Errorf("StringVal: %v %v", s, err)
	}
	if tv, err := Time(now).TimeVal(); err != nil || !tv.Equal(now) {
		t.Errorf("TimeVal: %v %v", tv, err)
	}
	if l, err := Strings([]string{"a", "b"}).ListVal(); err != nil || len(l) != 2 {
		t.Errorf("ListVal: %v %v", l, err)
	}
	if _, err := String("x").TimeVal(); err == nil {
		t.Error("TimeVal on string should error")
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null(), false},
		{Bool(true), true},
		{Bool(false), false},
		{Int(0), false},
		{Int(3), true},
		{Float(0), false},
		{Float(0.1), true},
		{Float(math.Copysign(0, -1)), false},
		{Float(math.NaN()), true},
		{String(""), false},
		{String("hi"), true},
		{Time(time.Time{}), false},
		{Time(time.Unix(1, 0)), true},
		{List(nil), false},
		{Strings([]string{"a"}), true},
	}
	for _, c := range cases {
		if got := c.v.Truthy(); got != c.want {
			t.Errorf("Truthy(%s %s) = %v, want %v", c.v.Kind(), c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	early := time.Unix(100, 0)
	late := time.Unix(200, 0)
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(1), -1},
		{Int(1), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(1.5), Float(1.5), 0},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Time(early), Time(late), -1},
		{Time(late), Time(early), 1},
		{Strings([]string{"a"}), Strings([]string{"a", "b"}), -1},
		{Strings([]string{"b"}), Strings([]string{"a", "z"}), 1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%s,%s): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(String("a"), Int(1)); err == nil {
		t.Error("Compare(string,int) should error")
	}
	if Equal(String("a"), Int(1)) {
		t.Error("Equal across kinds should be false")
	}
	if !Equal(Int(2), Float(2.0)) {
		t.Error("Equal(2, 2.0) should coerce")
	}
}

func TestArith(t *testing.T) {
	mustInt := func(v Value, err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		i, err := v.IntVal()
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	mustFloat := func(v Value, err error) float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		f, err := v.FloatVal()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if got := mustInt(Arith("+", Int(2), Int(3))); got != 5 {
		t.Errorf("2+3 = %d", got)
	}
	if got := mustInt(Arith("-", Int(2), Int(3))); got != -1 {
		t.Errorf("2-3 = %d", got)
	}
	if got := mustInt(Arith("*", Int(4), Int(3))); got != 12 {
		t.Errorf("4*3 = %d", got)
	}
	if got := mustInt(Arith("/", Int(7), Int(2))); got != 3 {
		t.Errorf("int division 7/2 = %d", got)
	}
	if got := mustInt(Arith("%", Int(7), Int(2))); got != 1 {
		t.Errorf("7%%2 = %d", got)
	}
	if got := mustFloat(Arith("/", Float(7), Int(2))); got != 3.5 {
		t.Errorf("7.0/2 = %g", got)
	}
	if got := mustFloat(Arith("%", Float(7.5), Float(2))); got != math.Mod(7.5, 2) {
		t.Errorf("7.5 mod 2 = %g", got)
	}
	// Division by zero yields NULL, not an error.
	if v, err := Arith("/", Int(1), Int(0)); err != nil || !v.IsNull() {
		t.Errorf("1/0 = %v, %v", v, err)
	}
	if v, err := Arith("%", Int(1), Int(0)); err != nil || !v.IsNull() {
		t.Errorf("1%%0 = %v, %v", v, err)
	}
	if v, err := Arith("/", Float(1), Float(0)); err != nil || !v.IsNull() {
		t.Errorf("1.0/0.0 = %v, %v", v, err)
	}
	// NULL propagation.
	if v, err := Arith("+", Null(), Int(1)); err != nil || !v.IsNull() {
		t.Errorf("NULL+1 = %v, %v", v, err)
	}
	// String concatenation via +.
	if v, err := Arith("+", String("ab"), String("cd")); err != nil || v.String() != "abcd" {
		t.Errorf("string + = %v, %v", v, err)
	}
	if _, err := Arith("+", String("ab"), Int(1)); err == nil {
		t.Error("string+int should error")
	}
	if _, err := Arith("^", Int(1), Int(1)); err == nil {
		t.Error("unknown op should error")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Bool(true), "true"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{String("hey"), "hey"},
		{Strings([]string{"a", "b"}), "[a, b]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%s) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	ts := time.Date(2011, 6, 12, 10, 0, 0, 0, time.UTC)
	if got := Time(ts).String(); got != "2011-06-12T10:00:00Z" {
		t.Errorf("time string = %q", got)
	}
}

func TestGoValueRoundTrip(t *testing.T) {
	now := time.Now()
	inputs := []any{nil, true, 42, int32(7), int64(9), float32(1.5), 2.5, "s", now, []string{"x"}, []any{1, "a"}}
	for _, in := range inputs {
		v, err := FromGo(in)
		if err != nil {
			t.Fatalf("FromGo(%v): %v", in, err)
		}
		_ = v.GoValue() // must not panic
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("FromGo(struct) should error")
	}
	// Value passes through unchanged.
	v, err := FromGo(Int(5))
	if err != nil || v.Kind() != KindInt {
		t.Errorf("FromGo(Value) = %v, %v", v, err)
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and consistency of Compare over ints/floats.
	f := func(a, b int64) bool {
		c1, err1 := Compare(Int(a), Int(b))
		c2, err2 := Compare(Int(b), Int(a))
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2 && (c1 == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Within float64's exact-integer range, int/float coercion is lossless.
	g := func(a int32) bool {
		return Equal(Int(int64(a)), Float(float64(a)))
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestArithProperties(t *testing.T) {
	// a+b == b+a for ints (commutativity), and (a+b)-b == a.
	f := func(a, b int32) bool {
		x, y := Int(int64(a)), Int(int64(b))
		s1, err1 := Arith("+", x, y)
		s2, err2 := Arith("+", y, x)
		if err1 != nil || err2 != nil || !Equal(s1, s2) {
			return false
		}
		d, err := Arith("-", s1, y)
		return err == nil && Equal(d, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var (
	layoutValue Value
	layoutInt   int64
	layoutNum   float64
	layoutStr   string
	layoutBool  bool
	layoutTime  time.Time
)

// layoutRead reads v back through its checked and raw accessors.
func layoutRead(v Value) {
	switch v.Kind() {
	case KindInt:
		layoutInt, _ = v.IntVal()
		layoutInt += v.IntRaw()
	case KindFloat:
		layoutNum, _ = v.FloatVal()
		layoutNum += v.Num()
	case KindString:
		layoutStr, _ = v.StringVal()
		layoutStr = v.Str()
	case KindBool:
		layoutBool, _ = v.BoolVal()
	case KindTime:
		layoutTime, _ = v.TimeVal()
		layoutTime = v.TimeRaw()
	}
	layoutBool = v.Truthy()
}

// TestValueLayout pins the cell layout: at most 40 bytes, and the
// common constructors — plus reading each value back — allocate
// nothing. Values land in package variables so escape analysis cannot
// keep a would-be allocation on the stack.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 40 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 40", got)
	}
	at := time.Date(2011, 6, 12, 12, 0, 0, 5, time.UTC)
	cases := []struct {
		name string
		make func() Value
	}{
		{"Int", func() Value { return Int(42) }},
		{"Float", func() Value { return Float(2.5) }},
		{"String", func() Value { return String("goal") }},
		{"Bool", func() Value { return Bool(true) }},
		{"Time", func() Value { return Time(at) }},
		{"ZeroTime", func() Value { return Time(time.Time{}) }},
	}
	for _, c := range cases {
		n := testing.AllocsPerRun(100, func() {
			layoutValue = c.make()
			layoutRead(layoutValue)
		})
		if n != 0 {
			t.Errorf("%s: %v allocs per construct-and-read, want 0", c.name, n)
		}
	}
	if got, _ := Time(at).TimeVal(); got != at {
		t.Errorf("Time(%v) reads back %v", at, got)
	}
}
