package main

import (
	"strings"
	"time"
	"unicode"

	"tweeql"
)

// The reference is frozen plain Go: it recomputes what every statement
// of every workload must deliver from the generated tweets alone,
// without calling the engine's evaluator, planner or tokenizer. It
// carries its own copy of the CONTAINS token rule so an optimised
// tokenizer in the program cannot move the goalposts with it.

// refTokens splits text the way TweeQL's CONTAINS does: whitespace
// fields, URLs kept whole, punctuation trimmed from token edges except
// '#', '@' and '-', tokens without a letter or digit dropped, the rest
// lower-cased.
func refTokens(text string) []string {
	var toks []string
	for _, raw := range strings.Fields(text) {
		if strings.HasPrefix(raw, "http://") || strings.HasPrefix(raw, "https://") {
			toks = append(toks, raw)
			continue
		}
		tok := strings.TrimFunc(raw, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsNumber(r) && r != '#' && r != '@' && r != '-'
		})
		if !strings.ContainsFunc(tok, func(r rune) bool { return unicode.IsLetter(r) || unicode.IsNumber(r) }) {
			continue
		}
		toks = append(toks, strings.ToLower(tok))
	}
	return toks
}

// refContainsAny reports whether any token equals one of the
// (lower-case, single-word) keywords, a leading '#' on the token
// notwithstanding.
func refContainsAny(toks []string, words ...string) bool {
	for _, tok := range toks {
		bare := strings.TrimPrefix(tok, "#")
		for _, w := range words {
			if tok == w || bare == w {
				return true
			}
		}
	}
	return false
}

// mix64 is the splitmix64 finaliser: ids are dense small integers, so
// their plain sum would let a missing row hide behind an extra one.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// expect is what one statement must deliver.
type expect struct {
	rows   int64  // delivered rows
	digest uint64 // Σ mix64(id) over delivered rows (plain statements)
	sum    int64  // Σ COUNT(*) over delivered rows (windowed statements)
}

// accumulator folds delivered rows into the same three numbers.
type accumulator struct{ got expect }

func (a *accumulator) addID(id int64) {
	a.got.rows++
	a.got.digest += mix64(uint64(id))
}

func (a *accumulator) addWindow(n int64) {
	a.got.rows++
	a.got.sum += n
}

// reference holds the tokenised stream and answers per statement.
type reference struct {
	tweets []*tweeql.Tweet
	toks   [][]string
}

func newReference(tweets []*tweeql.Tweet) *reference {
	r := &reference{tweets: tweets, toks: make([][]string, len(tweets))}
	for i, t := range tweets {
		r.toks[i] = refTokens(t.Text)
	}
	return r
}

// plain is the expectation of an unwindowed statement whose WHERE is
// pred.
func (r *reference) plain(pred func(i int, t *tweeql.Tweet) bool) expect {
	var a accumulator
	for i, t := range r.tweets {
		if pred(i, t) {
			a.addID(t.ID)
		}
	}
	return a.got
}

// windowed is the expectation of COUNT(*) over tumbling epoch-aligned
// windows of the given size, grouped by key: one row per non-empty
// (window, group) bucket, the counts summing to the matching tweets.
func (r *reference) windowed(size time.Duration, pred func(i int, t *tweeql.Tweet) bool, key func(*tweeql.Tweet) string) expect {
	type bucket struct {
		start int64
		key   string
	}
	seen := map[bucket]bool{}
	var e expect
	for i, t := range r.tweets {
		if !pred(i, t) {
			continue
		}
		e.sum++
		b := bucket{start: t.CreatedAt.UnixNano() / int64(size)}
		if key != nil {
			b.key = key(t)
		}
		if !seen[b] {
			seen[b] = true
			e.rows++
		}
	}
	return e
}

func (r *reference) contains(words ...string) func(int, *tweeql.Tweet) bool {
	return func(i int, _ *tweeql.Tweet) bool { return refContainsAny(r.toks[i], words...) }
}

func all(int, *tweeql.Tweet) bool { return true }

// inRange is the half-open event-time range [from, to).
func inRange(from, to time.Time) func(int, *tweeql.Tweet) bool {
	return func(_ int, t *tweeql.Tweet) bool {
		return !t.CreatedAt.Before(from) && t.CreatedAt.Before(to)
	}
}

// firstAtOrAfter is the stream position of the first tweet whose event
// time is at or after ts (len(tweets) when none is): the tweet whose
// arrival closes a window ending at ts.
func (r *reference) firstAtOrAfter(ts time.Time) int {
	lo, hi := 0, len(r.tweets)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.tweets[mid].CreatedAt.Before(ts) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// check compares one statement's delivery with its expectation and
// returns (ops attempted, ops failed): every expected row is an op, a
// missing or extra row fails one, and rows that arrived in the right
// number but with the wrong ids or counts fail one more.
func check(got, want expect) (attempted, failed int64) {
	attempted = want.rows + 1
	if d := got.rows - want.rows; d != 0 {
		failed += max(d, -d)
	}
	if got.digest != want.digest || got.sum != want.sum {
		failed++
	}
	return attempted, failed
}
