// Package terms implements TwitInfo's automatic peak labeling (§3.2:
// peaks are annotated "with automatically-generated key terms that
// appear frequently in tweets during the peak", e.g. '3-0' and 'Tevez'
// for a goal). Scoring is TF-IDF: term frequency inside the peak,
// inverse document frequency over the whole event's tweets, so terms
// that are merely common in the event ("soccer") rank below terms
// specific to the spike ("tevez").
//
// Terms are interned: the corpus maps each distinct term to a dense id
// when a tweet is added, a tweet's term set is a short []uint32, and
// every score — peak labels and Relevant Tweets similarity alike — is
// computed from ids and counts, never from text again.
package terms

import (
	"math"
	"sort"
	"strings"

	"tweeql/internal/tweet"
)

// ScoredTerm is one key term with its TF-IDF score.
type ScoredTerm struct {
	Term  string
	Score float64
	// Count is the raw number of peak tweets containing the term.
	Count int
}

// Corpus interns an event's terms and accumulates their document
// frequencies. Each tweet is one document. Safe for single-goroutine
// use, or many readers with no writer.
type Corpus struct {
	ids     map[string]uint32
	terms   []string // id → term
	docFreq []int32  // id → documents containing the term
	docs    int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{ids: make(map[string]uint32)}
}

// AddDoc folds one tweet, given as its tweet.Tokenize tokens, into the
// document-frequency table and appends the ids of its distinct terms —
// tweet.TermSet's set: no URLs, no stopwords, hashtag mark trimmed — to
// dst in order of first appearance.
func (c *Corpus) AddDoc(dst []uint32, toks []string) []uint32 {
	c.docs++
	start := len(dst)
tokens:
	for _, tok := range toks {
		term, ok := tweet.Term(tok)
		if !ok {
			continue
		}
		id, known := c.ids[term]
		if !known {
			id = uint32(len(c.terms))
			// A token can be a substring of the tweet's text; the table
			// must not pin every text that introduced a term.
			term = strings.Clone(term)
			c.ids[term] = id
			c.terms = append(c.terms, term)
			c.docFreq = append(c.docFreq, 0)
		}
		for _, seen := range dst[start:] {
			if seen == id {
				continue tokens
			}
		}
		c.docFreq[id]++
		dst = append(dst, id)
	}
	return dst
}

// Docs reports the number of documents added.
func (c *Corpus) Docs() int { return c.docs }

// Len reports the number of distinct terms interned; ids are 0..Len()-1.
func (c *Corpus) Len() int { return len(c.terms) }

// ID returns the id of a term some document contained.
func (c *Corpus) ID(term string) (uint32, bool) {
	id, ok := c.ids[term]
	return id, ok
}

// IDF returns the smoothed inverse document frequency of a term.
func (c *Corpus) IDF(id uint32) float64 {
	return math.Log(float64(c.docs+1) / float64(c.docFreq[id]+1))
}

// Counts tallies, per term, how many documents of some subset of the
// corpus contain it — a peak's tweets, added whole partial by partial
// or document by document.
type Counts struct {
	n    []int32  // id → documents of the subset containing the term
	seen []uint32 // ids with n > 0
	docs int
}

// NewCounts returns an empty tally over the corpus's current terms.
func (c *Corpus) NewCounts() *Counts {
	return &Counts{n: make([]int32, len(c.terms))}
}

// Add records that n more documents of the subset contain the term.
func (k *Counts) Add(id uint32, n int32) {
	if k.n[id] == 0 {
		k.seen = append(k.seen, id)
	}
	k.n[id] += n
}

// AddDocs grows the subset by n documents.
func (k *Counts) AddDocs(n int) { k.docs += n }

// Reset empties the tally for reuse.
func (k *Counts) Reset() {
	for _, id := range k.seen {
		k.n[id] = 0
	}
	k.seen, k.docs = k.seen[:0], 0
}

// TopTerms scores the tallied peak documents against the corpus and
// returns the k highest-TF-IDF terms (ties broken alphabetically for
// determinism). excluded terms (typically the event's own query
// keywords, which by construction appear in every tweet) are skipped.
func (c *Corpus) TopTerms(peak *Counts, k int, excluded []string) []ScoredTerm {
	top := make([]ScoredTerm, 0, max(k, 0))
	if k <= 0 {
		return top
	}
	skip := make([]uint32, 0, len(excluded))
	for _, x := range excluded {
		if id, ok := c.ids[strings.ToLower(x)]; ok {
			skip = append(skip, id)
		}
	}
scoring:
	for _, id := range peak.seen {
		for _, x := range skip {
			if x == id {
				continue scoring
			}
		}
		n := int(peak.n[id])
		tf := float64(n) / float64(peak.docs+1)
		top = KeepTop(top, k, ScoredTerm{Term: c.terms[id], Score: tf * c.IDF(id), Count: n}, scoredBefore)
	}
	return top
}

func scoredBefore(a, b ScoredTerm) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Term < b.Term
}

// KeepTop inserts x into top — sorted by before, at most k > 0 long —
// dropping whichever element falls off the end: a bounded selection of
// the k first elements without sorting the rest.
func KeepTop[T any](top []T, k int, x T, before func(a, b T) bool) []T {
	if len(top) == k && !before(x, top[k-1]) {
		return top
	}
	i := sort.Search(len(top), func(i int) bool { return before(x, top[i]) })
	if len(top) < k {
		var zero T
		top = append(top, zero)
	}
	copy(top[i+1:], top[i:])
	top[i] = x
	return top
}

// Keywords is a keyword set resolved against a corpus: the other side
// of Similarity.
type Keywords struct {
	in []bool // id → the term is a keyword
	n  int    // distinct keywords, known to the corpus or not
}

// Keywords resolves the keywords (case-insensitively) to term ids.
func (c *Corpus) Keywords(words []string) Keywords {
	kw := Keywords{in: make([]bool, len(c.terms))}
	distinct := make(map[string]bool, len(words))
	for _, w := range words {
		w = strings.ToLower(w)
		if distinct[w] {
			continue
		}
		distinct[w] = true
		if id, ok := c.ids[w]; ok {
			kw.in[id] = true
		}
	}
	kw.n = len(distinct)
	return kw
}

// Similarity is the cosine similarity between a tweet's term set (the
// ids AddDoc gave it) and the keyword set — the ranking function of the
// Relevant Tweets panel (§3.2: "sorted by similarity to the event or
// peak keywords").
func (kw Keywords) Similarity(ids []uint32) float64 {
	if len(ids) == 0 || kw.n == 0 {
		return 0
	}
	overlap := 0
	for _, id := range ids {
		if kw.in[id] {
			overlap++
		}
	}
	return float64(overlap) / (math.Sqrt(float64(len(ids))) * math.Sqrt(float64(kw.n)))
}

// MatchesSearch reports whether any of the scored terms contains the
// search string — the §3.2 "text search on this list of key terms to
// locate a specific peak".
func MatchesSearch(ts []ScoredTerm, query string) bool {
	q := strings.ToLower(strings.TrimSpace(query))
	if q == "" {
		return false
	}
	for _, t := range ts {
		if strings.Contains(t.Term, q) {
			return true
		}
	}
	return false
}
