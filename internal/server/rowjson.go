package server

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"tweeql/internal/value"
)

// rowEncoder renders tuples as JSON objects by appending to a caller's
// buffer. The wire contract is what json.Marshal of a name→value map
// produced before it: keys sorted bytewise, a duplicated name keeping
// its last column, columns beyond the shorter of schema and values
// omitted, encoding/json's number and HTML-safe string formats, times
// as RFC3339Nano in UTC. Two deliberate differences: a non-finite float
// is null (Marshal failed the whole row), and so is a list Marshal
// rejects.
//
// An encoder caches the key layout of the last (schema, arity) it saw,
// so it is cheap for a stream — whose rows share one schema — and must
// not be shared between goroutines.
type rowEncoder struct {
	schema *value.Schema
	arity  int
	cols   []encCol
}

// encCol is one emitted key: the value's position in the row and the
// pre-rendered `{"name":` (first key) or `,"name":` bytes before it.
type encCol struct {
	idx    int
	prefix []byte
}

// prepare builds the key layout for rows of this schema and arity.
func (e *rowEncoder) prepare(schema *value.Schema, arity int) {
	e.schema, e.arity, e.cols = schema, arity, e.cols[:0]
	if schema == nil {
		return
	}
	last := make(map[string]int, arity)
	for i := 0; i < arity && i < schema.Len(); i++ {
		last[schema.Field(i).Name] = i
	}
	names := make([]string, 0, len(last))
	for name := range last {
		names = append(names, name)
	}
	sort.Strings(names)
	for k, name := range names {
		prefix := []byte{','}
		if k == 0 {
			prefix[0] = '{'
		}
		prefix = append(appendJSONString(prefix, name), ':')
		e.cols = append(e.cols, encCol{idx: last[name], prefix: prefix})
	}
}

// appendRow appends row's JSON object to dst and returns the extended
// slice. It allocates only when the row's (schema, arity) differs from
// the previous row's, or a cell is a list.
func (e *rowEncoder) appendRow(dst []byte, row value.Tuple) []byte {
	if row.Schema != e.schema || len(row.Values) != e.arity {
		e.prepare(row.Schema, len(row.Values))
	}
	if len(e.cols) == 0 {
		return append(dst, "{}"...)
	}
	for i := range e.cols {
		c := &e.cols[i]
		dst = append(dst, c.prefix...)
		dst = appendJSONValue(dst, &row.Values[c.idx])
	}
	return append(dst, '}')
}

// appendJSONValue appends one cell. v is a pointer, read through the
// *Ref accessors, to spare a stack copy of the 40-byte Value per
// accessor call; it is not retained.
func appendJSONValue(dst []byte, v *value.Value) []byte {
	switch v.KindRef() {
	case value.KindBool:
		b, _ := v.BoolVal()
		return strconv.AppendBool(dst, b)
	case value.KindInt:
		return strconv.AppendInt(dst, v.IntRef(), 10)
	case value.KindFloat:
		return appendJSONFloat(dst, v.NumRef())
	case value.KindString:
		return appendJSONString(dst, v.StrRef())
	case value.KindTime:
		// The layout yields digits and "-:.TZ" only: nothing to escape.
		dst = append(dst, '"')
		dst = v.TimeRef().UTC().AppendFormat(dst, time.RFC3339Nano)
		return append(dst, '"')
	case value.KindList:
		// Lists are rare on the wire; encoding/json keeps nested times in
		// time.Time's own format (zone preserved), as they always were.
		b, err := json.Marshal(v.GoValue())
		if err != nil {
			return append(dst, "null"...)
		}
		return append(dst, b...)
	default:
		return append(dst, "null"...)
	}
}

// appendJSONFloat is encoding/json's float64 format (ES6 number-to-
// string: 'f', or 'e' outside [1e-6, 1e21) with a one-digit negative
// exponent unpadded), with null for the values JSON cannot carry.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes encoding/json copies through with
// HTML escaping on: everything from space up except `"`, `\`, `<`, `>`
// and `&`.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendJSONString appends s as a JSON string under encoding/json's
// HTML-escaping rule: control bytes, `<`, `>` and `&` as \u00XX (short
// forms for \b \f \n \r \t), an invalid UTF-8 byte as the six
// characters \ufffd, U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
