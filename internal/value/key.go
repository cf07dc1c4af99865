package value

import (
	"hash/maphash"
	"math"
	"math/bits"
)

// Group keys. Keyed operator state (window buckets, count-window
// groups, join buffers) finds its entry by a run of cells rather than a
// rendered string. Two cells are the same key exactly when they have the
// same kind and the same String() rendering — the identity the engine's
// grouping has always had — but neither side renders anything:
//
//   - floats compare by their bits, with every NaN payload one key (all
//     print "NaN") and -0 apart from 0 (they print "-0" and "0");
//   - times compare by UTC Unix second, as String prints RFC3339: zone
//     and sub-second digits do not split a key;
//   - an int and a float of the same number stay apart (the kind is part
//     of the key);
//   - lists compare by String(), the one kind that still renders.
//
// A run of cells is the same key as another when both have the same
// length and every cell pair is the same key; unlike the old
// "\x1f"-joined rendering, cell boundaries cannot be forged by a string
// cell that contains the separator.

// Hasher hashes group keys under one seed. Equal keys (SameKey) hash
// equally; each keyed state draws its own seed, so one query's key
// distribution cannot be steered into collisions across queries. The
// zero Hasher is not usable; build one with NewHasher.
type Hasher struct {
	seed maphash.Seed
	// k is a word drawn from seed for mixing the word-held kinds.
	k uint64
}

// NewHasher returns a Hasher with a fresh random seed.
func NewHasher() Hasher {
	seed := maphash.MakeSeed()
	return Hasher{seed: seed, k: maphash.String(seed, "") | 1}
}

// The golden-ratio multiplier spreads kinds and positions.
const keyMul = 0x9e3779b97f4a7c15

// mix folds two words into one (a 64×64→128-bit multiply, high and low
// halves xored): cheap, and every input bit reaches every output bit.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// canonicalNaN is the word every NaN hashes as.
const canonicalNaN = 0x7ff8000000000001

// Cell hashes one cell as a key of length one.
func (h Hasher) Cell(v Value) uint64 { return h.cell(&v) }

// Cells hashes a run of cells.
func (h Hasher) Cells(vs []Value) uint64 {
	x := h.k ^ uint64(len(vs))
	for i := range vs {
		x = mix(x^h.cell(&vs[i]), keyMul)
	}
	return x
}

func (h Hasher) cell(v *Value) uint64 {
	kind := uint64(v.kind) * keyMul
	switch v.kind {
	case KindNull:
		return mix(h.k^kind, keyMul)
	case KindBool, KindInt:
		return mix(h.k^kind, v.w^keyMul)
	case KindFloat:
		w := v.w
		if math.IsNaN(math.Float64frombits(w)) {
			w = canonicalNaN
		}
		return mix(h.k^kind, w^keyMul)
	case KindString:
		return maphash.String(h.seed, v.s) ^ kind
	case KindTime:
		return mix(h.k^kind, uint64(v.unixSec())^keyMul)
	default:
		return maphash.String(h.seed, v.String()) ^ kind
	}
}

// unixSec is a KindTime value's UTC second, the resolution String
// renders: floor division, so a pre-1970 sub-second time lands in the
// second it prints.
func (v *Value) unixSec() int64 {
	if v.x != nil {
		return v.x.t.Unix()
	}
	ns := int64(v.w)
	s := ns / 1e9
	if ns%1e9 < 0 {
		s--
	}
	return s
}

// SameKey reports whether two runs of cells are the same group key.
func SameKey(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameCell(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// SameCell reports whether two cells are the same group key.
func SameCell(a, b Value) bool { return sameCell(&a, &b) }

func sameCell(a, b *Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindBool, KindInt:
		return a.w == b.w
	case KindFloat:
		return a.w == b.w || math.IsNaN(math.Float64frombits(a.w)) && math.IsNaN(math.Float64frombits(b.w))
	case KindString:
		return a.s == b.s
	case KindTime:
		return a.unixSec() == b.unixSec()
	default:
		return a.String() == b.String()
	}
}
