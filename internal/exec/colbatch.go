// Columnar batch representation for the vectorized pipeline stages. A
// ColBatch wraps a row Batch and materializes per-column typed vectors
// on demand: the original tuples stay the source of truth — survivors
// of a vectorized filter are gathered straight from them, so a stage
// passes on exactly the tuples it kept, untouched — and the vectors
// exist only so the hot kernels in vector.go can stream over
// []int64/[]float64/[]string instead of switching on the kind of every
// 40-byte value.Value cell.
package exec

import (
	"math/bits"

	"tweeql/internal/value"
)

// Sentinel "kinds" private to the columnar layer. They live outside
// value's enum range and never reach a value.Value; they only annotate
// vector lanes the typed arrays cannot carry.
const (
	// kindMixed marks a whole vector whose lanes do not share one kind
	// (or an empty vector): kernels must take the per-lane kind switch
	// instead of the homogeneous tight loop.
	kindMixed = value.Kind(250)
	// kindLaneOdd marks a single lane whose value has no faithful typed
	// representation (today: a zero time.Time, whose UnixNano is
	// undefined). Kernels route odd lanes through the row-path closure.
	kindLaneOdd = value.Kind(251)
)

// ColBatch is a row batch plus its lazily materialized column vectors.
// A stage owns one ColBatch and Resets it per incoming batch so vector
// buffers are reused; it is not safe for concurrent mutation, but the
// vectors are read-only once materialized, so parallel kernel readers
// are fine.
type ColBatch struct {
	rows   Batch
	schema *value.Schema
	gen    uint64
	cols   []colEntry
}

// colEntry caches one column's vector, keyed by the kernel's resolved
// column accessor. Keying on the identAccess pointer (not the column
// index) is deliberately conservative: two accessors with the same
// index can still disagree lane-by-lane when tuples carry a foreign
// schema and ia.load falls back to by-name resolution.
type colEntry struct {
	ia  *identAccess
	gen uint64
	vec *ColVec
}

// Reset points the ColBatch at a new row batch. Cached vectors are
// invalidated (their buffers are kept for reuse), not freed.
func (cb *ColBatch) Reset(b Batch, schema *value.Schema) {
	cb.rows = b
	cb.schema = schema
	cb.gen++
}

// Len is the row count.
func (cb *ColBatch) Len() int { return len(cb.rows) }

// Rows returns the wrapped row batch — the boundary back to the row
// representation.
func (cb *ColBatch) Rows() Batch { return cb.rows }

// col returns the materialized vector for one resolved column,
// materializing it on first use for the current batch.
func (cb *ColBatch) col(ia *identAccess) *ColVec {
	for i := range cb.cols {
		if cb.cols[i].ia == ia {
			if cb.cols[i].gen != cb.gen {
				cb.cols[i].vec.materialize(ia, cb.rows)
				cb.cols[i].gen = cb.gen
			}
			return cb.cols[i].vec
		}
	}
	vec := &ColVec{}
	vec.materialize(ia, cb.rows)
	cb.cols = append(cb.cols, colEntry{ia: ia, gen: cb.gen, vec: vec})
	return vec
}

// ColVec is one column flattened into typed lanes. kinds is always
// filled; the typed arrays are allocated only when a lane of their kind
// appears, and a lane's array slot is meaningful only when kinds[lane]
// says so — reading a slot of the wrong kind yields stale garbage by
// design (the buffers are reused across batches). That contract is
// machine-enforced: the colvec analyzer requires every raw accessor
// call (Ints/Nums/Strs/Times) to follow a Homog/Kinds/Valid guard.
type ColVec struct {
	n     int
	homog value.Kind
	kinds []value.Kind
	valid []uint64 // validity bitmap: bit set = lane is non-NULL
	ints  []int64
	nums  []float64 // numeric lanes widened to float64 (ints included)
	strs  []string
	times []int64 // non-zero times as UnixNano
}

// Len is the lane count.
func (v *ColVec) Len() int { return v.n }

// Homog returns the single kind every lane shares, or kindMixed when
// lanes disagree (or the vector is empty). It is the guard for the
// homogeneous tight-loop kernels.
func (v *ColVec) Homog() value.Kind { return v.homog }

// Kinds returns the per-lane kind tags — the guard for per-lane typed
// access on mixed vectors.
func (v *ColVec) Kinds() []value.Kind { return v.kinds }

// Valid returns the validity bitmap (bit set = non-NULL lane), sized
// like a selection bitmap so kernels can AND NULL lanes away word-wise.
func (v *ColVec) Valid() []uint64 { return v.valid }

// Ints returns the raw int64 lanes; only slots whose kind is KindInt
// are meaningful (check Homog or Kinds first).
func (v *ColVec) Ints() []int64 { return v.ints }

// Nums returns the float64-widened numeric lanes; only KindInt and
// KindFloat slots are meaningful (check Homog or Kinds first).
func (v *ColVec) Nums() []float64 { return v.nums }

// Strs returns the raw string lanes; only KindString slots are
// meaningful (check Homog or Kinds first).
func (v *ColVec) Strs() []string { return v.strs }

// Times returns the UnixNano lanes; only KindTime slots are meaningful
// (check Homog or Kinds first — zero times are tagged kindLaneOdd and
// never land here).
func (v *ColVec) Times() []int64 { return v.times }

// materialize flattens one column out of rows, reusing buffers. Values
// resolve with ia.load's exact rule — schema-pointer match reads by
// index, a foreign schema falls back to by-name resolution — applied
// lane-by-lane exactly as on the row path, but the matching case reads
// through a pointer into the tuple with the *Ref accessors: a 40-byte
// value.Value is too big for registers, so a value-receiver accessor
// copies the cell through the stack on every lane.
func (v *ColVec) materialize(ia *identAccess, rows Batch) {
	n := len(rows)
	v.n = n
	v.kinds = growKinds(v.kinds, n)
	v.valid = growU64(v.valid, (n+63)/64)
	for i := range v.valid {
		v.valid[i] = 0
	}
	homog := kindMixed
	mixed := false
	var tmp value.Value
	for r := range rows {
		t := &rows[r]
		var val *value.Value
		if t.Schema == ia.schema {
			val = &t.Values[ia.idx]
		} else {
			tmp = lookupIdent(ia.x, *t)
			val = &tmp
		}
		k := val.KindRef()
		switch k {
		case value.KindInt:
			if v.ints == nil || len(v.ints) < n {
				v.ints = growI64(v.ints, n)
			}
			if v.nums == nil || len(v.nums) < n {
				v.nums = growF64(v.nums, n)
			}
			iv := val.IntRef()
			v.ints[r] = iv
			v.nums[r] = float64(iv)
		case value.KindFloat:
			if v.nums == nil || len(v.nums) < n {
				v.nums = growF64(v.nums, n)
			}
			v.nums[r] = val.NumRef()
		case value.KindString:
			if v.strs == nil || len(v.strs) < n {
				v.strs = growStr(v.strs, n)
			}
			v.strs[r] = val.StrRef()
		case value.KindTime:
			if tm := val.TimeRef(); tm.IsZero() {
				// A zero time's UnixNano is undefined: odd lane.
				k = kindLaneOdd
			} else {
				if v.times == nil || len(v.times) < n {
					v.times = growI64(v.times, n)
				}
				v.times[r] = tm.UnixNano()
			}
		}
		v.kinds[r] = k
		if k != value.KindNull {
			v.valid[r>>6] |= 1 << uint(r&63)
		}
		if r == 0 {
			homog = k
		} else if k != homog {
			mixed = true
		}
	}
	if n == 0 || mixed || homog == kindLaneOdd {
		homog = kindMixed
	}
	v.homog = homog
}

func growKinds(s []value.Kind, n int) []value.Kind {
	if cap(s) < n {
		return make([]value.Kind, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growStr(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	return s[:n]
}

// newSel resizes dst to cover n lanes with every bit set (tail bits of
// the last word cleared, so word-wise kernels never touch phantom
// lanes).
func newSel(dst []uint64, n int) []uint64 {
	words := (n + 63) / 64
	if cap(dst) < words {
		dst = make([]uint64, words)
	} else {
		dst = dst[:words]
	}
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 && words > 0 {
		dst[words-1] = 1<<uint(r) - 1
	}
	return dst
}

// appendSel appends the index of every selected lane to dst, in lane
// order.
func appendSel(dst []int, sel []uint64) []int {
	for w, word := range sel {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &^= 1 << uint(i)
			dst = append(dst, w*64+i)
		}
	}
	return dst
}

// selCount is the number of selected lanes.
func selCount(sel []uint64) int {
	c := 0
	for _, w := range sel {
		c += bits.OnesCount64(w)
	}
	return c
}

// andValid drops NULL lanes from the selection word-wise. Every native
// kernel compares (or probes) against a non-NULL constant, and SQL
// comparison with NULL input is UNKNOWN — never kept — so kernels call
// this first and their lane loops need no NULL case.
func andValid(sel, valid []uint64) {
	for w := range sel {
		sel[w] &= valid[w]
	}
}

// forLanes visits the selected lanes in order, clearing those pred
// rejects — the shared scaffolding for mixed-kind and string-heavy
// kernels where the per-lane work dwarfs the closure call.
func forLanes(sel []uint64, pred func(r int) bool) {
	for w, word := range sel {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &^= 1 << uint(i)
			if !pred(w*64 + i) {
				sel[w] &^= 1 << uint(i)
			}
		}
	}
}
