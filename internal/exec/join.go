package exec

import (
	"context"
	"time"

	"tweeql/internal/lang"
	"tweeql/internal/obs"
	"tweeql/internal/value"
)

// JoinConfig drives Join: a windowed stream-stream equi-join.
type JoinConfig struct {
	// LeftBinding/RightBinding are the FROM aliases (or source names).
	LeftBinding, RightBinding string
	// LeftKey/RightKey are the ON columns, each read from its side's rows.
	LeftKey, RightKey lang.Expr
	// LeftWhere/RightWhere filter each side's rows before they join.
	LeftWhere, RightWhere []lang.Expr
	// Window bounds how far apart in event time two tuples may be and
	// still join.
	Window time.Duration
}

// JoinSchema prefixes both sides' columns with their binding.
func JoinSchema(left, right *value.Schema, cfg JoinConfig) *value.Schema {
	var fields []value.Field
	for _, f := range left.Fields() {
		fields = append(fields, value.Field{Name: cfg.LeftBinding + "." + f.Name, Kind: f.Kind})
	}
	for _, f := range right.Fields() {
		fields = append(fields, value.Field{Name: cfg.RightBinding + "." + f.Name, Kind: f.Kind})
	}
	return value.NewSchema(fields...)
}

// Join is a symmetric hash join with time-based eviction, run by the
// read of a join query in its consumer's goroutine: it combines every
// left and right row whose keys are equal (never NULL) and whose event
// times are at most the window apart.
//
// Each side buffers its rows in arrival order, a FIFO with a hash index
// into it, evicted from the head (see evict). A side may arrive
// disordered by up to the window, so a row stays until it is more than
// twice the window behind the other side's newest row. A row further
// than the window behind its own side's newest may have lost matches to
// eviction, and counts in Stats.LateRows. Unless a row is late, the
// output multiset does not depend on how the sides' batches interleave;
// its order is a batch's matches in row order, each row's newest first.
type Join struct {
	window time.Duration
	out    *value.Schema
	sides  [2]joinSide
	hasher value.Hasher
	stats  *Stats
	sp     *obs.Stage
}

// joinSide is one side's state. fifo[head:] are its buffered rows,
// in arrival order, and base (from 1) is fifo[0]'s sequence number;
// index maps a key hash to the newest buffered row with it. Rows before
// cutoff may have been evicted; swept rows were left by the last sweep.
type joinSide struct {
	key               CompiledExpr
	filter            *colFilter // nil when no conjunct names the side alone
	kept              Batch      // the rows of a batch that passed filter
	fifo              []joinRow
	head, base, swept int
	index             map[uint64]int
	newest, cutoff    time.Time
}

// joinRow is a buffered row, linked to the previous one whose key has
// the same hash (a sequence number below the head, 0 included, ends the
// chain).
type joinRow struct {
	t    value.Tuple
	key  value.Value
	hash uint64
	prev int
}

// NewJoin builds the join of cfg over rows of the left and right schemas.
func NewJoin(ev *Evaluator, cfg JoinConfig, left, right *value.Schema, stats *Stats) *Join {
	j := &Join{window: cfg.Window, out: JoinSchema(left, right, cfg), hasher: value.NewHasher(), stats: stats,
		sp: stats.StageProf("join", cfg.LeftBinding+"⋈"+cfg.RightBinding, "batch")}
	schemas, keys, wheres := [2]*value.Schema{left, right}, [2]lang.Expr{cfg.LeftKey, cfg.RightKey}, [2][]lang.Expr{cfg.LeftWhere, cfg.RightWhere}
	for i, s := range schemas {
		j.sides[i] = joinSide{key: ev.Bind(keys[i], s), index: make(map[uint64]int), base: 1}
		if len(wheres[i]) > 0 {
			j.sides[i].filter = newColFilter(ev, wheres[i], s, stats, nil)
		}
	}
	return j
}

// Push joins b as the next rows of the left side, the right side, or
// both (a self-join: the left side first) and returns the matches. b
// counts once toward RowsIn; Push only reads it.
func (j *Join) Push(ctx context.Context, b Batch, left, right bool) Batch {
	j.stats.RowsIn.Add(int64(len(b)))
	span := j.sp.Enter()
	var out Batch
	if left {
		out = j.push(ctx, 0, b, out)
	}
	if right {
		out = j.push(ctx, 1, b, out)
	}
	span.Exit(len(b), len(out))
	return out
}

// Schema is the schema of the joined rows. Stages downstream compile
// against it: the rows carry this exact pointer.
func (j *Join) Schema() *value.Schema { return j.out }

// RightBehind reports whether the right side's newest row is older than
// the left side's: the side a reader keeping the two even reads next.
func (j *Join) RightBehind() bool { return j.sides[1].newest.Before(j.sides[0].newest) }

// push joins b into side s, appending the matches to out, then evicts
// what s's newest row moved out of the other side's reach.
func (j *Join) push(ctx context.Context, s int, b Batch, out Batch) Batch {
	own, other := &j.sides[s], &j.sides[1-s]
	for i := range b {
		if b[i].TS.After(own.newest) {
			own.newest = b[i].TS
		}
	}
	rows := b
	if own.filter != nil {
		own.kept = own.filter.keep(ctx, append(own.kept[:0], b...))
		rows = own.kept
	}
	for _, t := range rows {
		kv, err := own.key(ctx, t)
		if err != nil {
			j.stats.NoteError(err)
			continue
		}
		if kv.IsNull() {
			continue // NULL keys never join
		}
		if t.TS.Add(-j.window).Before(other.cutoff) {
			j.stats.LateRows.Add(1)
		}
		h := j.hasher.Cell(kv)
		own.fifo = append(own.fifo, joinRow{t: t, key: kv, hash: h, prev: own.index[h]})
		own.index[h] = own.base + len(own.fifo) - 1
		for seq := other.index[h]; seq >= other.base+other.head; seq = other.fifo[seq-other.base].prev {
			m := &other.fifo[seq-other.base]
			if d := t.TS.Sub(m.t.TS); d > j.window || -d > j.window || !value.SameCell(m.key, kv) {
				continue
			}
			if s == 0 {
				out = append(out, j.combine(t, m.t))
			} else {
				out = append(out, j.combine(m.t, t))
			}
		}
	}
	other.evict(own.newest.Add(-2 * j.window))
	return out
}

// evict pops the rows before cutoff off the head, at a cost of the rows
// it pops, and moves the buffered rows down once half the FIFO is spent.
// The head stops at a row dated ahead of the rows behind it, which would
// keep them all as long as the other side's time has not reached it (for
// ever, for one tweet dated years ahead). So once the FIFO holds twice
// the rows the last sweep left, a sweep drops every row before cutoff
// wherever it is and renumbers the rest: at a cost per row pushed that
// does not grow with the FIFO.
func (s *joinSide) evict(cutoff time.Time) {
	s.cutoff = cutoff
	for ; s.head < len(s.fifo) && s.fifo[s.head].t.TS.Before(cutoff); s.head++ {
		if r := &s.fifo[s.head]; s.index[r.hash] == s.base+s.head {
			delete(s.index, r.hash) // the newest row with its hash
		}
		s.fifo[s.head] = joinRow{}
	}
	if len(s.fifo)-s.head > 2*s.swept+64 {
		clear(s.index)
		kept := s.fifo[:0]
		for _, r := range s.fifo[s.head:] {
			if !r.t.TS.Before(cutoff) {
				r.prev, s.index[r.hash] = s.index[r.hash], s.base+len(kept)
				kept = append(kept, r)
			}
		}
		clear(s.fifo[len(kept):])
		s.fifo, s.head, s.swept = kept, 0, len(kept)
	} else if s.head > 0 && 2*s.head >= len(s.fifo) {
		n := copy(s.fifo, s.fifo[s.head:])
		clear(s.fifo[n:])
		s.fifo, s.base, s.head = s.fifo[:n], s.base+s.head, 0
	}
}

// combine is the joined row of l and r, at the later event time.
func (j *Join) combine(l, r value.Tuple) value.Tuple {
	vals := append(append(make([]value.Value, 0, len(l.Values)+len(r.Values)), l.Values...), r.Values...)
	ts := l.TS
	if r.TS.After(ts) {
		ts = r.TS
	}
	return value.NewTuple(j.out, vals, ts)
}
