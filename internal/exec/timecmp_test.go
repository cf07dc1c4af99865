package exec

import (
	"context"
	"testing"
	"time"

	"tweeql/internal/catalog"
	"tweeql/internal/lang"
	"tweeql/internal/tweet"
	"tweeql/internal/value"
)

func TestParseTimeLiteral(t *testing.T) {
	good := map[string]time.Time{
		"2011-06-12T14:00:00Z":      time.Date(2011, 6, 12, 14, 0, 0, 0, time.UTC),
		"2011-06-12 14:00:00":       time.Date(2011, 6, 12, 14, 0, 0, 0, time.UTC),
		"2011-06-12T14:00:00":       time.Date(2011, 6, 12, 14, 0, 0, 0, time.UTC),
		"2011-06-12":                time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC),
		" 2011-06-12 ":              time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC),
		"2011-06-12T14:00:00.5Z":    time.Date(2011, 6, 12, 14, 0, 0, 500_000_000, time.UTC),
		"2011-06-12T14:00:00+02:00": time.Date(2011, 6, 12, 12, 0, 0, 0, time.UTC),
	}
	for s, want := range good {
		got, ok := ParseTimeLiteral(s)
		if !ok || !got.Equal(want) {
			t.Errorf("ParseTimeLiteral(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	for _, s := range []string{"", "goal", "14:00:00", "2011-13-45"} {
		if _, ok := ParseTimeLiteral(s); ok {
			t.Errorf("ParseTimeLiteral(%q) accepted garbage", s)
		}
	}
}

// TestTimeStringComparisonBothPaths pins the created_at-vs-literal
// coercion to identical results on the compiled and interpreted paths
// — the predicate behind persistent-table time-range queries.
func TestTimeStringComparisonBothPaths(t *testing.T) {
	base := time.Date(2011, 6, 12, 12, 0, 0, 0, time.UTC)
	rows := []value.Tuple{
		catalog.TweetTuple(&tweet.Tweet{ID: 1, CreatedAt: base.Add(-time.Hour)}),
		catalog.TweetTuple(&tweet.Tweet{ID: 2, CreatedAt: base}),
		catalog.TweetTuple(&tweet.Tweet{ID: 3, CreatedAt: base.Add(time.Hour)}),
	}
	// Lanes the folded constant must not change: a zero time, and
	// created_at drifted to a string (compares as a string) or NULL.
	createdAt, _ := catalog.TweetSchema.Index("created_at")
	drift := func(id int64, v value.Value) value.Tuple {
		row := catalog.TweetTuple(&tweet.Tweet{ID: id, CreatedAt: base})
		row.Values[createdAt] = v
		return row
	}
	odd := append(append([]value.Tuple(nil), rows...),
		catalog.TweetTuple(&tweet.Tweet{ID: 4}),
		drift(5, value.String("2011-06-12 13:00:00")),
		drift(6, value.String("not a time")),
		drift(7, value.Null()),
	)
	exprs := []string{
		`created_at > '2011-06-12 12:00:00'`,
		`created_at >= '2011-06-12 12:00:00'`,
		`created_at < '2011-06-12'`,
		`created_at <= '2011-06-12T12:00:00Z'`,
		`created_at = '2011-06-12 12:00:00'`,
		`created_at != '2011-06-12 12:00:00'`,
		`'2011-06-12 12:00:00' < created_at`,
		`created_at > 'not a time'`, // unparseable: unequal kinds, op-dependent constant
		`created_at != 'not a time'`,
		`created_at >= '0001-01-01'`, // parses to the zero time
		`'2011-06-12T12:00:00+02:00' >= created_at`,
	}
	ctx := context.Background()
	for _, src := range exprs {
		stmt, err := lang.Parse("SELECT x FROM t WHERE " + src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		x := stmt.Where
		evC := NewEvaluator(catalog.New())
		fn := evC.Bind(x, catalog.TweetSchema)
		evI := NewEvaluator(catalog.New())
		// The vectorized kernel keeps exactly the lanes the interpreter
		// finds true — over the all-time batch (the homogeneous loop the
		// folded literal feeds) and over the mixed one.
		pred := buildVecPred(evC, x, catalog.TweetSchema, &Stats{})
		for _, batch := range [][]value.Tuple{rows, odd} {
			var cb ColBatch
			cb.Reset(batch, catalog.TweetSchema)
			sel := newSel(nil, len(batch))
			pred(ctx, &cb, sel)
			for i, row := range batch {
				want, _ := evI.Eval(ctx, x, row)
				if got := sel[i/64]&(1<<uint(i%64)) != 0; got != (!want.IsNull() && want.Truthy()) {
					t.Fatalf("%s lane %d of %d: vector keeps=%v, interpreted=%s", src, i, len(batch), got, want)
				}
			}
		}
		for i, row := range odd {
			gotC, errC := fn(ctx, row)
			gotI, errI := evI.Eval(ctx, x, row)
			if (errC == nil) != (errI == nil) {
				t.Fatalf("%s row %d: err compiled=%v interpreted=%v", src, i, errC, errI)
			}
			if gotC.String() != gotI.String() {
				t.Fatalf("%s row %d: compiled=%s interpreted=%s", src, i, gotC, gotI)
			}
		}
		// Spot-check semantics on the middle row (ts == base).
		mid, _ := evI.Eval(ctx, x, rows[1])
		switch src {
		case `created_at >= '2011-06-12 12:00:00'`,
			`created_at <= '2011-06-12T12:00:00Z'`,
			`created_at = '2011-06-12 12:00:00'`:
			if !mid.Truthy() {
				t.Errorf("%s should hold at the boundary", src)
			}
		case `created_at > '2011-06-12 12:00:00'`, `created_at != '2011-06-12 12:00:00'`:
			if mid.Truthy() {
				t.Errorf("%s should not hold at the boundary", src)
			}
		}
	}
}
