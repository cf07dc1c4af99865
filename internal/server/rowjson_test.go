package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/firehose"
	"tweeql/internal/value"
)

// rowMap and jsonValue are the encoder the serving edge used before
// rowEncoder — a fresh map per row through json.Marshal — kept as the
// differential oracle: wherever it succeeds, appendRow's bytes must be
// its bytes.
func rowMap(row value.Tuple) map[string]any {
	m := make(map[string]any, len(row.Values))
	if row.Schema != nil {
		for i, v := range row.Values {
			if i < row.Schema.Len() {
				m[row.Schema.Field(i).Name] = jsonValue(v)
			}
		}
	}
	return m
}

func jsonValue(v value.Value) any {
	if v.Kind() == value.KindTime {
		t, _ := v.TimeVal()
		return t.UTC().Format(time.RFC3339Nano)
	}
	return v.GoValue()
}

// A row program is the byte form of a tuple that FuzzAppendRowJSON
// mutates: schema arity (0xff: nil schema), value arity, the field
// names, then the cells. prog writes it and rowFromProg reads it, so
// the table test's cases double as the fuzz seed corpus.
type prog []byte

const (
	progNilSchema = 0xff
	progMaxArity  = 9
	progMaxStr    = 32
	progMaxList   = 4
	progMaxDepth  = 3
	progTimeShift = 20 // seconds span about +-278 000 years
)

func newProg(schemaArity, valueArity int) prog { return prog{byte(schemaArity), byte(valueArity)} }

func (p prog) name(s string) prog {
	if len(s) >= progMaxStr {
		panic("row program string too long")
	}
	return append(append(p, byte(len(s))), s...)
}
func (p prog) null() prog { return append(p, byte(value.KindNull)) }
func (p prog) boolean(b bool) prog {
	if b {
		return append(p, byte(value.KindBool), 1)
	}
	return append(p, byte(value.KindBool), 0)
}
func (p prog) integer(i int64) prog {
	return binary.LittleEndian.AppendUint64(append(p, byte(value.KindInt)), uint64(i))
}
func (p prog) float(f float64) prog {
	return binary.LittleEndian.AppendUint64(append(p, byte(value.KindFloat)), math.Float64bits(f))
}
func (p prog) text(s string) prog { return append(p, byte(value.KindString)).name(s) }
func (p prog) time(t time.Time) prog {
	_, offset := t.Zone()
	p = binary.LittleEndian.AppendUint64(append(p, byte(value.KindTime)), uint64(t.Unix()<<progTimeShift))
	p = binary.LittleEndian.AppendUint32(p, uint32(t.Nanosecond()))
	return append(p, byte(int8(offset/900)))
}
func (p prog) list(n int) prog { return append(p, byte(value.KindList), byte(n)) }

// progReader reads a program leniently: a truncated program reads as
// zero bytes, so every byte string is some row.
type progReader struct{ p []byte }

func (r *progReader) take(n int) []byte {
	b := make([]byte, n)
	r.p = r.p[copy(b, r.p):]
	return b
}
func (r *progReader) byte() byte  { return r.take(1)[0] }
func (r *progReader) str() string { return string(r.take(min(int(r.byte())%progMaxStr, len(r.p)))) }

func (r *progReader) value(depth int) value.Value {
	switch value.Kind(r.byte() % 7) {
	case value.KindBool:
		return value.Bool(r.byte()&1 == 1)
	case value.KindInt:
		return value.Int(int64(binary.LittleEndian.Uint64(r.take(8))))
	case value.KindFloat:
		return value.Float(math.Float64frombits(binary.LittleEndian.Uint64(r.take(8))))
	case value.KindString:
		return value.String(r.str())
	case value.KindTime:
		sec := int64(binary.LittleEndian.Uint64(r.take(8))) >> progTimeShift
		nsec := int64(binary.LittleEndian.Uint32(r.take(4))) % 1e9
		zone := time.FixedZone("", int(int8(r.byte()))*900)
		return value.Time(time.Unix(sec, nsec).In(zone))
	case value.KindList:
		n := int(r.byte() % progMaxList)
		if depth >= progMaxDepth {
			n = 0
		}
		vs := make([]value.Value, n)
		for i := range vs {
			vs[i] = r.value(depth + 1)
		}
		return value.List(vs)
	}
	return value.Null()
}

func rowFromProg(p []byte) value.Tuple {
	r := &progReader{p}
	schemaArity, valueArity := r.byte(), int(r.byte()%progMaxArity)
	var schema *value.Schema
	if schemaArity != progNilSchema {
		fields := make([]value.Field, schemaArity%progMaxArity)
		for i := range fields {
			fields[i].Name = r.str()
		}
		schema = value.NewSchema(fields...)
	}
	vals := make([]value.Value, valueArity)
	for i := range vals {
		vals[i] = r.value(0)
	}
	return value.Tuple{Schema: schema, Values: vals}
}

var (
	year12000 = time.Date(12000, 2, 29, 23, 59, 59, 999999999, time.UTC)
	tokyo     = time.Date(2011, 3, 11, 14, 46, 18, 120000000, time.FixedZone("JST", 9*3600))
	lineSep   = "\xe2\x80\xa8" // U+2028
	paraSep   = "\xe2\x80\xa9" // U+2029
	grin      = "\xf0\x9f\x98\x80"
)

// rowPrograms are the shapes the encoder must get right, by name; they
// seed the fuzz corpus too. want, where set, spells the bytes out: for
// the rows the oracle cannot encode, and for the formats easiest to get
// subtly wrong.
var rowPrograms = []struct {
	name string
	prog prog
	want string
}{
	{name: "fanout row", prog: newProg(4, 4).name("id").name("text").name("username").name("followers").
		integer(87123456789).text("GOAL!!! what a strike").text("fan_42").integer(1280)},
	{name: "keys sort bytewise", prog: newProg(4, 4).name("b").name("a").name("B").name("aa").
		integer(1).integer(2).integer(3).integer(4), want: `{"B":3,"a":2,"aa":4,"b":1}`},
	{name: "duplicate name keeps last", prog: newProg(3, 3).name("x").name("y").name("x").
		integer(1).integer(2).integer(3), want: `{"x":3,"y":2}`},
	{name: "duplicate name, last beyond values", prog: newProg(3, 2).name("x").name("y").name("x").
		integer(1).integer(2), want: `{"x":1,"y":2}`},
	{name: "empty, html and non-ASCII names", prog: newProg(5, 5).name("").name("a<b").name("caf\xc3\xa9").name("q\"\\").name("\xff").
		integer(1).integer(2).integer(3).integer(4).integer(5)},
	{name: "schema shorter than values", prog: newProg(1, 3).name("only").integer(1).integer(2).integer(3), want: `{"only":1}`},
	{name: "schema longer than values", prog: newProg(3, 1).name("a").name("b").name("c").integer(1), want: `{"a":1}`},
	{name: "nil schema", prog: newProg(progNilSchema, 2).integer(1).integer(2), want: `{}`},
	{name: "no columns", prog: newProg(0, 0), want: `{}`},
	{name: "scalars", prog: newProg(4, 4).name("n").name("t").name("f").name("i").
		null().boolean(true).boolean(false).integer(math.MinInt64)},
	{name: "float formats", prog: newProg(8, 8).name("a").name("b").name("c").name("d").name("e").name("f").name("g").name("h").
		float(math.Copysign(0, -1)).float(1e21).float(1e-7).float(5e-324).
		float(999999999999999868928).float(0.000001).float(-1.5e-10).float(100),
		want: `{"a":-0,"b":1e+21,"c":1e-7,"d":5e-324,"e":999999999999999900000,"f":0.000001,"g":-1.5e-10,"h":100}`},
	{name: "NaN", prog: newProg(1, 1).name("f").float(math.NaN()), want: `{"f":null}`},
	{name: "+Inf beside a finite cell", prog: newProg(2, 2).name("f").name("i").float(math.Inf(1)).integer(7),
		want: `{"f":null,"i":7}`},
	{name: "-Inf", prog: newProg(1, 1).name("f").float(math.Inf(-1)), want: `{"f":null}`},
	{name: "control bytes", prog: newProg(2, 2).name("s").name("t").text("\x00\x1f\x7f").text("\b\f\n\r\t\"\\/")},
	{name: "html", prog: newProg(1, 1).name("s").text("<script>a&&b</script>")},
	{name: "invalid utf-8", prog: newProg(2, 2).name("s").name("t").text("a\xffb\xc3").text("\xed\xa0\x80")},
	{name: "escapes", prog: newProg(1, 1).name("a<b").text("\x00\x7f\xff" + lineSep + paraSep + grin + "\xe2\x80\xaa"),
		want: `{"a\u003cb":"\u0000` + "\x7f" + `\ufffd\u2028\u2029` + grin + "\xe2\x80\xaa" + `"}`},
	{name: "times", prog: newProg(4, 4).name("zero").name("unix").name("jst").name("far").
		time(time.Time{}).time(time.Unix(0, 0)).time(tokyo).time(year12000),
		want: `{"far":"12000-02-29T23:59:59.999999999Z","jst":"2011-03-11T05:46:18.12Z",` +
			`"unix":"1970-01-01T00:00:00Z","zero":"0001-01-01T00:00:00Z"}`},
	{name: "lists", prog: newProg(3, 3).name("empty").name("strs").name("nested").
		list(0).list(2).text("a<b").text(grin).list(3).integer(1).list(1).null().float(2.5)},
	{name: "list holding times", prog: newProg(1, 1).name("l").list(2).time(tokyo).time(time.Unix(1, 5))},
	{name: "list holding NaN", prog: newProg(2, 2).name("l").name("i").list(2).integer(1).float(math.NaN()).integer(2),
		want: `{"i":2,"l":null}`},
	{name: "list holding year 12000", prog: newProg(1, 1).name("l").list(1).time(year12000), want: `{"l":null}`},
}

// checkAgainstOracle holds one row to the contract: the bytes of
// json.Marshal(rowMap(row)) wherever that succeeds, valid JSON where
// it does not, dst's existing bytes untouched, and the same answer from
// a warm encoder and from one whose cached layout is for another arity.
func checkAgainstOracle(t *testing.T, row value.Tuple) []byte {
	t.Helper()
	const keep = "keep"
	var enc rowEncoder
	out := enc.appendRow([]byte(keep), row)
	if string(out[:len(keep)]) != keep {
		t.Fatalf("appendRow rewrote dst's prefix: %q", out[:len(keep)])
	}
	got := out[len(keep):]
	if want, err := json.Marshal(rowMap(row)); err == nil {
		if !bytes.Equal(got, want) {
			t.Fatalf("appendRow differs from the oracle\n got: %s\nwant: %s", got, want)
		}
	} else if !json.Valid(got) {
		t.Fatalf("oracle failed (%v) and appendRow wrote invalid JSON: %s", err, got)
	}
	if again := enc.appendRow(nil, row); !bytes.Equal(again, got) {
		t.Fatalf("warm encoder differs\n cold: %s\n warm: %s", got, again)
	}
	if len(row.Values) > 0 {
		enc.appendRow(nil, value.Tuple{Schema: row.Schema, Values: row.Values[1:]})
		if after := enc.appendRow(nil, row); !bytes.Equal(after, got) {
			t.Fatalf("encoder kept another arity's layout\n got: %s\nwant: %s", after, got)
		}
	}
	return got
}

func TestAppendRowMatchesOracle(t *testing.T) {
	for _, tc := range rowPrograms {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkAgainstOracle(t, rowFromProg(tc.prog)); tc.want != "" && string(got) != tc.want {
				t.Errorf("\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
	// time.Time{} itself (no location pointer), which a program cannot
	// spell, and the full tweet row.
	t.Run("literal zero time", func(t *testing.T) {
		schema := value.NewSchema(value.Field{Name: "t"}, value.Field{Name: "l"})
		checkAgainstOracle(t, value.Tuple{Schema: schema, Values: []value.Value{
			value.Time(time.Time{}), value.List([]value.Value{value.Time(time.Time{})})}})
	})
	t.Run("tweet", func(t *testing.T) {
		tw := mkTweet(7, "a <b>goal</b> & more", 1300000000)
		tw.HasGeo, tw.Lat, tw.Lon, tw.Location = true, 42.3601, -71.0589, "Boston"
		checkAgainstOracle(t, catalog.TweetTuple(tw))
	})
	t.Run("random programs", func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		p := make([]byte, 160)
		for i := 0; i < 20000; i++ {
			rng.Read(p)
			checkAgainstOracle(t, rowFromProg(p))
		}
	})
}

func FuzzAppendRowJSON(f *testing.F) {
	for _, tc := range rowPrograms {
		f.Add([]byte(tc.prog))
	}
	f.Fuzz(func(t *testing.T, p []byte) { checkAgainstOracle(t, rowFromProg(p)) })
}

// streamEncodeShapes are the rows BenchmarkStreamEncode and the
// allocation pin run on, cut from the benchmark's own soccer stream:
// serve_fanout's four columns and the twelve of SELECT *.
func streamEncodeShapes() map[string][]value.Tuple {
	fanout := value.NewSchema(
		value.Field{Name: "id", Kind: value.KindInt},
		value.Field{Name: "text", Kind: value.KindString},
		value.Field{Name: "username", Kind: value.KindString},
		value.Field{Name: "followers", Kind: value.KindInt},
	)
	cfg := firehose.SoccerMatch(1)
	cfg.Duration = 20 * time.Second
	shapes := map[string][]value.Tuple{}
	for _, lt := range firehose.New(cfg).Generate() {
		full := catalog.TweetTuple(lt.Tweet)
		shapes["tweet12"] = append(shapes["tweet12"], full)
		shapes["fanout4"] = append(shapes["fanout4"], value.NewTuple(fanout,
			[]value.Value{full.Get("id"), full.Get("text"), full.Get("username"), full.Get("followers")}, full.TS))
	}
	return shapes
}

func TestAppendRowDoesNotAllocate(t *testing.T) {
	for shape, rows := range streamEncodeShapes() {
		var enc rowEncoder
		dst := enc.appendRow(make([]byte, 0, 1024), rows[0]) // warm: layout built, dst sized
		i := 0
		if allocs := testing.AllocsPerRun(len(rows), func() {
			dst = enc.appendRow(dst[:0], rows[i%len(rows)])
			i++
		}); allocs != 0 {
			t.Errorf("%s: appendRow allocates %v times per row on a warm encoder", shape, allocs)
		}
	}
}

// BenchmarkStreamEncode is the serving edge's per-row cost, one row per
// op (ns/op is ns/row, B/op is bytes allocated per row): the append
// encoder against the json.Marshal(rowMap) oracle it replaced.
//
//	go test ./internal/server -run=NONE -bench=StreamEncode -benchmem
func BenchmarkStreamEncode(b *testing.B) {
	shapes := streamEncodeShapes()
	for _, shape := range []string{"fanout4", "tweet12"} {
		rows := shapes[shape]
		b.Run(shape+"/append", func(b *testing.B) {
			var enc rowEncoder
			var dst []byte
			wire := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = enc.appendRow(dst[:0], rows[i%len(rows)])
				wire += len(dst)
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wire_B/row")
		})
		b.Run(shape+"/oracle", func(b *testing.B) {
			wire := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst, _ := json.Marshal(rowMap(rows[i%len(rows)]))
				wire += len(dst)
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wire_B/row")
		})
	}
}
