package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oracleValue is Value as it was before the 40-byte layout: every
// payload in its own field side by side, 96 bytes with only one live.
// It is the definition FuzzValueMatchesOracle holds Value to, operation
// for operation: its methods and the oracle* functions below are the
// previous implementation with only the names changed.
type oracleValue struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	t    time.Time
	l    []oracleValue
}

func oNull() oracleValue                 { return oracleValue{} }
func oBool(b bool) oracleValue           { return oracleValue{kind: KindBool, b: b} }
func oInt(i int64) oracleValue           { return oracleValue{kind: KindInt, i: i} }
func oFloat(f float64) oracleValue       { return oracleValue{kind: KindFloat, f: f} }
func oString(s string) oracleValue       { return oracleValue{kind: KindString, s: s} }
func oTime(t time.Time) oracleValue      { return oracleValue{kind: KindTime, t: t} }
func oList(vs []oracleValue) oracleValue { return oracleValue{kind: KindList, l: vs} }

func (v oracleValue) Kind() Kind   { return v.kind }
func (v oracleValue) IsNull() bool { return v.kind == KindNull }

func (v oracleValue) BoolVal() (bool, error) {
	if v.kind != KindBool {
		return false, fmt.Errorf("%w: want bool, have %s", ErrType, v.kind)
	}
	return v.b, nil
}

func (v oracleValue) IntVal() (int64, error) {
	switch v.kind {
	case KindInt:
		return v.i, nil
	case KindFloat:
		if v.f == math.Trunc(v.f) {
			return int64(v.f), nil
		}
	}
	return 0, fmt.Errorf("%w: want int, have %s", ErrType, v.kind)
}

func (v oracleValue) FloatVal() (float64, error) {
	switch v.kind {
	case KindInt:
		return float64(v.i), nil
	case KindFloat:
		return v.f, nil
	}
	return 0, fmt.Errorf("%w: want float, have %s", ErrType, v.kind)
}

func (v oracleValue) StringVal() (string, error) {
	if v.kind != KindString {
		return "", fmt.Errorf("%w: want string, have %s", ErrType, v.kind)
	}
	return v.s, nil
}

func (v oracleValue) TimeVal() (time.Time, error) {
	if v.kind != KindTime {
		return time.Time{}, fmt.Errorf("%w: want time, have %s", ErrType, v.kind)
	}
	return v.t, nil
}

func (v oracleValue) Str() string { return v.s }

func (v oracleValue) Num() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

func (v oracleValue) IntRaw() int64      { return v.i }
func (v oracleValue) TimeRaw() time.Time { return v.t }

func (v oracleValue) ListVal() ([]oracleValue, error) {
	if v.kind != KindList {
		return nil, fmt.Errorf("%w: want list, have %s", ErrType, v.kind)
	}
	return v.l, nil
}

func (v oracleValue) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	case KindTime:
		return !v.t.IsZero()
	case KindList:
		return len(v.l) > 0
	default:
		return false
	}
}

func oracleCompare(a, b oracleValue) (int, error) {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		return 0, nil
	case a.kind == KindNull:
		return -1, nil
	case b.kind == KindNull:
		return 1, nil
	}
	if a.kind.numeric() && b.kind.numeric() {
		af, _ := a.FloatVal()
		bf, _ := b.FloatVal()
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
		switch {
		case !a.b && b.b:
			return -1, nil
		case a.b && !b.b:
			return 1, nil
		default:
			return 0, nil
		}
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindTime:
		switch {
		case a.t.Before(b.t):
			return -1, nil
		case a.t.After(b.t):
			return 1, nil
		default:
			return 0, nil
		}
	case KindList:
		for i := 0; i < len(a.l) && i < len(b.l); i++ {
			c, err := oracleCompare(a.l[i], b.l[i])
			if err != nil || c != 0 {
				return c, err
			}
		}
		switch {
		case len(a.l) < len(b.l):
			return -1, nil
		case len(a.l) > len(b.l):
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("%w: cannot compare %s", ErrType, a.kind)
}

func oracleEqual(a, b oracleValue) bool {
	c, err := oracleCompare(a, b)
	return err == nil && c == 0
}

func oracleArith(op string, a, b oracleValue) (oracleValue, error) {
	if a.IsNull() || b.IsNull() {
		return oNull(), nil
	}
	if op == "+" && a.kind == KindString && b.kind == KindString {
		return oString(a.s + b.s), nil
	}
	if !a.kind.numeric() || !b.kind.numeric() {
		return oNull(), fmt.Errorf("%w: %s %s %s", ErrType, a.kind, op, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.i, b.i
		switch op {
		case "+":
			return oInt(x + y), nil
		case "-":
			return oInt(x - y), nil
		case "*":
			return oInt(x * y), nil
		case "/":
			if y == 0 {
				return oNull(), nil
			}
			return oInt(x / y), nil
		case "%":
			if y == 0 {
				return oNull(), nil
			}
			return oInt(x % y), nil
		}
		return oNull(), fmt.Errorf("value: unknown operator %q", op)
	}
	x, _ := a.FloatVal()
	y, _ := b.FloatVal()
	switch op {
	case "+":
		return oFloat(x + y), nil
	case "-":
		return oFloat(x - y), nil
	case "*":
		return oFloat(x * y), nil
	case "/":
		if y == 0 {
			return oNull(), nil
		}
		return oFloat(x / y), nil
	case "%":
		if y == 0 {
			return oNull(), nil
		}
		return oFloat(math.Mod(x, y)), nil
	}
	return oNull(), fmt.Errorf("value: unknown operator %q", op)
}

func (v oracleValue) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.t.UTC().Format(time.RFC3339)
	case KindList:
		parts := make([]string, len(v.l))
		for i, e := range v.l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "?"
	}
}

func (v oracleValue) GoValue() any {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i
	case KindFloat:
		return v.f
	case KindString:
		return v.s
	case KindTime:
		return v.t
	case KindList:
		out := make([]any, len(v.l))
		for i, e := range v.l {
			out[i] = e.GoValue()
		}
		return out
	default:
		return nil
	}
}

func oracleAppendValue(buf []byte, v oracleValue) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case KindInt:
		buf = binary.AppendVarint(buf, v.i)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	case KindTime:
		buf = appendTime(buf, v.t)
	case KindList:
		buf = binary.AppendUvarint(buf, uint64(len(v.l)))
		for _, e := range v.l {
			buf = oracleAppendValue(buf, e)
		}
	}
	return buf
}

func oracleDecodeValue(buf []byte) (oracleValue, int, error) {
	if len(buf) == 0 {
		return oNull(), 0, ErrCorrupt
	}
	kind := Kind(buf[0])
	n := 1
	switch kind {
	case KindNull:
		return oNull(), n, nil
	case KindBool:
		if len(buf) < n+1 {
			return oNull(), 0, ErrCorrupt
		}
		return oBool(buf[n] != 0), n + 1, nil
	case KindInt:
		i, w := binary.Varint(buf[n:])
		if w <= 0 {
			return oNull(), 0, ErrCorrupt
		}
		return oInt(i), n + w, nil
	case KindFloat:
		if len(buf) < n+8 {
			return oNull(), 0, ErrCorrupt
		}
		return oFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[n:]))), n + 8, nil
	case KindString:
		l, w := binary.Uvarint(buf[n:])
		if w <= 0 || uint64(len(buf)-n-w) < l {
			return oNull(), 0, ErrCorrupt
		}
		n += w
		return oString(string(buf[n : n+int(l)])), n + int(l), nil
	case KindTime:
		t, w, err := decodeTime(buf[n:])
		if err != nil {
			return oNull(), 0, err
		}
		return oTime(t), n + w, nil
	case KindList:
		cnt, w := binary.Uvarint(buf[n:])
		if w <= 0 || cnt > uint64(len(buf)) {
			return oNull(), 0, ErrCorrupt
		}
		n += w
		vs := make([]oracleValue, cnt)
		for i := range vs {
			v, w, err := oracleDecodeValue(buf[n:])
			if err != nil {
				return oNull(), 0, err
			}
			vs[i] = v
			n += w
		}
		return oList(vs), n, nil
	default:
		return oNull(), 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

// valueProgram decodes fuzz bytes into values built side by side in
// both layouts. Every read past the end yields zeros, so any byte
// string is a program.
type valueProgram struct{ data []byte }

func (p *valueProgram) byte() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

func (p *valueProgram) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], p.data)
	p.data = p.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// Program opcodes (the first byte of each value, mod opCount).
const (
	opNull byte = iota
	opBool
	opInt
	opFloat
	opString
	opTime
	opList
	opCount
)

// Time shapes (the byte after opTime, mod timeShapes).
const (
	timeUTC     byte = iota // time.Unix(0, ns).UTC(): the word case
	timeLocal               // time.Unix(0, ns): the Local location
	timeZone                // time.Unix(0, ns) in +0530
	timeSeconds             // any Unix second, UTC: far outside UnixNano
	timeMono                // a monotonic reading
	timeSpecial             // specialTimes[u64]
	timeShapes
)

var (
	zone530 = time.FixedZone("+0530", 5*3600+30*60)
	monoNow = time.Now()

	// specialTimes are the edges of the word's range and the shapes it
	// must route to the rare record.
	specialTimes = []time.Time{
		{},
		time.Unix(0, 0).UTC(),
		time.Unix(0, math.MinInt64).UTC(),
		time.Unix(0, math.MaxInt64).UTC(),
		time.Unix(0, math.MinInt64).UTC().Add(-1),
		time.Unix(0, math.MaxInt64).UTC().Add(1),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2011, 6, 12, 12, 0, 0, 0, zone530),
		time.Time{}.In(zone530),
		monoNow,
		monoNow.Round(0).UTC(),
	}
)

func (p *valueProgram) time() time.Time {
	switch p.byte() % timeShapes {
	case timeUTC:
		return time.Unix(0, int64(p.u64())).UTC()
	case timeLocal:
		return time.Unix(0, int64(p.u64()))
	case timeZone:
		return time.Unix(0, int64(p.u64())).In(zone530)
	case timeSeconds:
		// Any second from year 1 to ~20000, mostly outside UnixNano's
		// 1678–2262.
		sec := int64(p.u64()%(2*315537897600)) - 62135596800
		return time.Unix(sec, int64(p.u64()%1e9)).UTC()
	case timeMono:
		return monoNow.Add(time.Duration(int32(p.u64())))
	default:
		return specialTimes[p.u64()%uint64(len(specialTimes))]
	}
}

// pair builds one value in both layouts.
func (p *valueProgram) pair(depth int) (Value, oracleValue) {
	switch p.byte() % opCount {
	case opBool:
		b := p.byte()&1 == 1
		return Bool(b), oBool(b)
	case opInt:
		i := int64(p.u64())
		return Int(i), oInt(i)
	case opFloat:
		f := math.Float64frombits(p.u64())
		return Float(f), oFloat(f)
	case opString:
		n := min(int(p.byte()%16), len(p.data))
		s := string(p.data[:n])
		p.data = p.data[n:]
		return String(s), oString(s)
	case opTime:
		t := p.time()
		return Time(t), oTime(t)
	case opList:
		if depth >= 3 {
			return Null(), oNull()
		}
		n := int(p.byte() % 5)
		if n == 4 { // nil, as against 0: empty but non-nil
			return List(nil), oList(nil)
		}
		vs, os := make([]Value, n), make([]oracleValue, n)
		for i := range vs {
			vs[i], os[i] = p.pair(depth + 1)
		}
		return List(vs), oList(os)
	default:
		return Null(), oNull()
	}
}

// Seed programs, one value each.
func progBool(b bool) []byte {
	if b {
		return []byte{opBool, 1}
	}
	return []byte{opBool, 0}
}

func progInt(i int64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{opInt}, uint64(i))
}

func progFloat(f float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{opFloat}, math.Float64bits(f))
}

func progString(s string) []byte { return append([]byte{opString, byte(len(s))}, s...) }

func progTime(shape byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{opTime, shape}, x)
}

func progList(elems ...[]byte) []byte {
	if elems == nil {
		return []byte{opList, 4}
	}
	out := []byte{opList, byte(len(elems))}
	for _, e := range elems {
		out = append(out, e...)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameGo is GoValue equality: floats by their bits, so NaN matches
// itself, and times by ==, so location and monotonic reading count.
func sameGo(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameGo(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// diffValue reports the first observation on which v and o differ, ""
// if none: kind, every accessor (value and error), Truthy, String,
// GoValue, the encoding and — when decode is set — a DecodeValue round
// trip through both decoders. The *Ref twins must match the oracle's
// raw accessors too.
func diffValue(v Value, o oracleValue, decode bool) string {
	if v.Kind() != o.Kind() || v.IsNull() != o.IsNull() {
		return fmt.Sprintf("kind %s vs %s", v.Kind(), o.Kind())
	}
	{
		b, err := v.BoolVal()
		ob, oerr := o.BoolVal()
		if b != ob || errText(err) != errText(oerr) {
			return fmt.Sprintf("BoolVal %v %v vs %v %v", b, err, ob, oerr)
		}
	}
	{
		i, err := v.IntVal()
		oi, oerr := o.IntVal()
		if i != oi || errText(err) != errText(oerr) {
			return fmt.Sprintf("IntVal %v %v vs %v %v", i, err, oi, oerr)
		}
	}
	{
		f, err := v.FloatVal()
		of, oerr := o.FloatVal()
		if math.Float64bits(f) != math.Float64bits(of) || errText(err) != errText(oerr) {
			return fmt.Sprintf("FloatVal %v %v vs %v %v", f, err, of, oerr)
		}
	}
	{
		s, err := v.StringVal()
		os, oerr := o.StringVal()
		if s != os || errText(err) != errText(oerr) {
			return fmt.Sprintf("StringVal %q %v vs %q %v", s, err, os, oerr)
		}
	}
	{
		t, err := v.TimeVal()
		ot, oerr := o.TimeVal()
		if t != ot || errText(err) != errText(oerr) {
			return fmt.Sprintf("TimeVal %#v %v vs %#v %v", t, err, ot, oerr)
		}
	}
	{
		l, err := v.ListVal()
		ol, oerr := o.ListVal()
		if len(l) != len(ol) || (l == nil) != (ol == nil) || errText(err) != errText(oerr) {
			return fmt.Sprintf("ListVal %v %v vs %v %v", l, err, ol, oerr)
		}
		for i := range l {
			if d := diffValue(l[i], ol[i], false); d != "" {
				return fmt.Sprintf("ListVal[%d]: %s", i, d)
			}
		}
	}
	if v.Str() != o.Str() {
		return fmt.Sprintf("Str %q vs %q", v.Str(), o.Str())
	}
	if math.Float64bits(v.Num()) != math.Float64bits(o.Num()) {
		return fmt.Sprintf("Num %v vs %v", v.Num(), o.Num())
	}
	if v.KindRef() != o.Kind() || v.StrRef() != o.Str() || v.IntRef() != o.IntRaw() ||
		math.Float64bits(v.NumRef()) != math.Float64bits(o.Num()) || v.TimeRef() != o.TimeRaw() {
		return fmt.Sprintf("*Ref accessors %v %q %d %v %#v", v.KindRef(), v.StrRef(), v.IntRef(), v.NumRef(), v.TimeRef())
	}
	if v.IntRaw() != o.IntRaw() {
		return fmt.Sprintf("IntRaw %d vs %d", v.IntRaw(), o.IntRaw())
	}
	if v.TimeRaw() != o.TimeRaw() {
		return fmt.Sprintf("TimeRaw %#v vs %#v", v.TimeRaw(), o.TimeRaw())
	}
	if v.Truthy() != o.Truthy() {
		return fmt.Sprintf("Truthy %v vs %v", v.Truthy(), o.Truthy())
	}
	if v.String() != o.String() {
		return fmt.Sprintf("String %q vs %q", v.String(), o.String())
	}
	if !sameGo(v.GoValue(), o.GoValue()) {
		return fmt.Sprintf("GoValue %#v vs %#v", v.GoValue(), o.GoValue())
	}
	enc, oenc := AppendValue(nil, v), oracleAppendValue(nil, o)
	if string(enc) != string(oenc) {
		return fmt.Sprintf("AppendValue %x vs %x", enc, oenc)
	}
	if !decode {
		return ""
	}
	dv, n, err := DecodeValue(enc)
	do, on, oerr := oracleDecodeValue(enc)
	if n != on || errText(err) != errText(oerr) {
		return fmt.Sprintf("DecodeValue %d %v vs %d %v", n, err, on, oerr)
	}
	if err == nil {
		if n != len(enc) {
			return fmt.Sprintf("DecodeValue consumed %d of %d bytes", n, len(enc))
		}
		if d := diffValue(dv, do, false); d != "" {
			return "decoded: " + d
		}
		if re := AppendValue(nil, dv); string(re) != string(enc) {
			return fmt.Sprintf("re-encoded %x, want %x", re, enc)
		}
	}
	return ""
}

// diffPair compares the two-value operations: Compare, Equal and every
// Arith operator, in both argument orders.
func diffPair(a, b Value, oa, ob oracleValue) string {
	for _, args := range [2][2]int{{0, 1}, {1, 0}} {
		x, y := [2]Value{a, b}[args[0]], [2]Value{a, b}[args[1]]
		ox, oy := [2]oracleValue{oa, ob}[args[0]], [2]oracleValue{oa, ob}[args[1]]
		c, err := Compare(x, y)
		oc, oerr := oracleCompare(ox, oy)
		if c != oc || errText(err) != errText(oerr) {
			return fmt.Sprintf("Compare(%v, %v) = %d %v, oracle %d %v", x, y, c, err, oc, oerr)
		}
		if Equal(x, y) != oracleEqual(ox, oy) {
			return fmt.Sprintf("Equal(%v, %v) = %v, oracle %v", x, y, Equal(x, y), oracleEqual(ox, oy))
		}
		for _, op := range []string{"+", "-", "*", "/", "%", "^"} {
			r, err := Arith(op, x, y)
			or, oerr := oracleArith(op, ox, oy)
			if errText(err) != errText(oerr) {
				return fmt.Sprintf("Arith(%q, %v, %v) error %v, oracle %v", op, x, y, err, oerr)
			}
			if d := diffValue(r, or, true); d != "" {
				return fmt.Sprintf("Arith(%q, %v, %v): %s", op, x, y, d)
			}
		}
	}
	return ""
}

// FuzzValueMatchesOracle decodes a byte program into two values, built
// in both layouts, and requires identical results from both for every
// operation: each value's accessors, Truthy, String, GoValue, encoding
// and decode round trip, and the pair's Compare, Equal and Arith.
func FuzzValueMatchesOracle(f *testing.F) {
	seeds := [][]byte{
		{opNull},
		progBool(true), progBool(false),
		progInt(0), progInt(7), progInt(math.MinInt64), progInt(math.MaxInt64), progInt(-1),
		progFloat(0), progFloat(math.Copysign(0, -1)), progFloat(math.NaN()),
		progFloat(math.Inf(1)), progFloat(math.Inf(-1)), progFloat(2.5), progFloat(-3),
		progString(""), progString("goal"), progString("goal!"),
		progTime(timeUTC, uint64(time.Date(2011, 6, 12, 12, 0, 0, 0, time.UTC).UnixNano())),
		progTime(timeLocal, 1), progTime(timeZone, 1), progTime(timeSeconds, 0),
		progTime(timeMono, 1),
		progList(), {opList, 0}, progList([]byte{opNull}), // nil, empty, [NULL]
		progList(progInt(1), progList(progString("a"), progList())),
	}
	for i := range specialTimes {
		seeds = append(seeds, progTime(timeSpecial, uint64(i)))
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(append(append([]byte{}, a...), b...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &valueProgram{data: data}
		a, oa := p.pair(0)
		b, ob := p.pair(0)
		for _, c := range []struct {
			v Value
			o oracleValue
		}{{a, oa}, {b, ob}} {
			if d := diffValue(c.v, c.o, true); d != "" {
				t.Fatalf("%v: %s", c.o, d)
			}
		}
		if d := diffPair(a, b, oa, ob); d != "" {
			t.Fatal(d)
		}
	})
}
