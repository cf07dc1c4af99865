package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Binary encoding for values, tuples, and schemas — the on-disk format
// of the persistent table store (internal/store). Values are
// self-describing (a kind byte precedes each payload), so schema kinds
// remain advisory and the kind drift that is normal for tweet fields
// (a float column holding NULL, a dynamic column changing type) round-
// trips exactly. Integers use varints, floats their IEEE bits, times
// their UTC UnixNano. The encoding is append-style: each function grows
// and returns the caller's buffer, so a batch of rows costs one buffer.

// ErrCorrupt reports a malformed or truncated binary encoding.
var ErrCorrupt = errors.New("value: corrupt encoding")

// AppendValue appends the binary encoding of v to buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		buf = append(buf, byte(v.w)) // 0 or 1
	case KindInt:
		buf = binary.AppendVarint(buf, int64(v.w))
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, v.w)
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	case KindTime:
		if v.x == nil {
			// A word-held time is its own UnixNano: appendTime's
			// non-zero form without rebuilding the time.Time.
			buf = append(buf, 1)
			buf = binary.AppendVarint(buf, int64(v.w))
		} else {
			buf = appendTime(buf, v.x.t)
		}
	case KindList:
		buf = binary.AppendUvarint(buf, uint64(len(v.x.l)))
		for _, e := range v.x.l {
			buf = AppendValue(buf, e)
		}
	}
	return buf
}

// appendTime encodes a timestamp. The zero time gets its own flag byte:
// its UnixNano is undefined (year 1 is outside the int64-nanosecond
// range), and "no event time" must survive a round trip.
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return binary.AppendVarint(buf, t.UnixNano())
}

// DecodeValue decodes one value from the front of buf, returning it and
// the number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Null(), 0, ErrCorrupt
	}
	kind := Kind(buf[0])
	n := 1
	switch kind {
	case KindNull:
		return Null(), n, nil
	case KindBool:
		if len(buf) < n+1 {
			return Null(), 0, ErrCorrupt
		}
		return Bool(buf[n] != 0), n + 1, nil
	case KindInt:
		i, w := binary.Varint(buf[n:])
		if w <= 0 {
			return Null(), 0, ErrCorrupt
		}
		return Int(i), n + w, nil
	case KindFloat:
		if len(buf) < n+8 {
			return Null(), 0, ErrCorrupt
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[n:]))), n + 8, nil
	case KindString:
		l, w := binary.Uvarint(buf[n:])
		if w <= 0 || uint64(len(buf)-n-w) < l {
			return Null(), 0, ErrCorrupt
		}
		n += w
		return String(string(buf[n : n+int(l)])), n + int(l), nil
	case KindTime:
		t, w, err := decodeTime(buf[n:])
		if err != nil {
			return Null(), 0, err
		}
		return Time(t), n + w, nil
	case KindList:
		cnt, w := binary.Uvarint(buf[n:])
		if w <= 0 || cnt > uint64(len(buf)) {
			return Null(), 0, ErrCorrupt
		}
		n += w
		vs := make([]Value, cnt)
		for i := range vs {
			v, w, err := DecodeValue(buf[n:])
			if err != nil {
				return Null(), 0, err
			}
			vs[i] = v
			n += w
		}
		return List(vs), n, nil
	default:
		return Null(), 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}

// AppendTuple appends the binary encoding of t's event timestamp and
// values to buf. The schema is NOT encoded per row — the store writes
// it once per segment header — so decoding requires the matching
// schema (see DecodeTuple).
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = appendTime(buf, t.TS)
	for _, v := range t.Values {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeTuple decodes one row encoded by AppendTuple against schema,
// returning the tuple and bytes consumed. The decoded tuple carries the
// given schema pointer, so callers that canonicalize schemas keep the
// engine's compiled-expression fast path.
func DecodeTuple(buf []byte, schema *Schema) (Tuple, int, error) {
	ts, n, err := decodeTime(buf)
	if err != nil {
		return Tuple{}, 0, err
	}
	vals := make([]Value, schema.Len())
	for i := range vals {
		v, w, err := DecodeValue(buf[n:])
		if err != nil {
			return Tuple{}, 0, err
		}
		vals[i] = v
		n += w
	}
	return Tuple{Schema: schema, Values: vals, TS: ts}, n, nil
}

func decodeTime(buf []byte) (time.Time, int, error) {
	if len(buf) < 1 {
		return time.Time{}, 0, ErrCorrupt
	}
	if buf[0] == 0 {
		return time.Time{}, 1, nil
	}
	ns, w := binary.Varint(buf[1:])
	if w <= 0 {
		return time.Time{}, 0, ErrCorrupt
	}
	return time.Unix(0, ns).UTC(), 1 + w, nil
}

// AppendSchema appends the binary encoding of s (field names and
// declared kinds) to buf.
func AppendSchema(buf []byte, s *Schema) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	for _, f := range s.fields {
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = append(buf, byte(f.Kind))
	}
	return buf
}

// DecodeSchema decodes a schema encoded by AppendSchema, returning it
// and the bytes consumed.
func DecodeSchema(buf []byte) (*Schema, int, error) {
	cnt, n := binary.Uvarint(buf)
	if n <= 0 || cnt > uint64(len(buf)) {
		return nil, 0, ErrCorrupt
	}
	fields := make([]Field, cnt)
	for i := range fields {
		l, w := binary.Uvarint(buf[n:])
		if w <= 0 {
			return nil, 0, ErrCorrupt
		}
		n += w
		// Need l name bytes plus one kind byte. Compare without adding
		// to l: `l+1` wraps to 0 at MaxUint64 and would pass a `< l+1`
		// check straight into a negative-length slice panic.
		if uint64(len(buf)-n) <= l {
			return nil, 0, ErrCorrupt
		}
		fields[i].Name = string(buf[n : n+int(l)])
		n += int(l)
		fields[i].Kind = Kind(buf[n])
		n++
	}
	return NewSchema(fields...), n, nil
}

// SchemaKey returns a canonical structural identity for s: two schemas
// with equal keys have the same field names and declared kinds in the
// same order. The store uses it to decide segment compatibility and to
// canonicalize decoded schemas onto shared pointers.
func SchemaKey(s *Schema) string {
	return string(AppendSchema(make([]byte, 0, 16*s.Len()), s))
}
