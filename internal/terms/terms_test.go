package terms

import (
	"sort"
	"testing"

	"tweeql/internal/tweet"
)

// addDoc adds one tweet text to the corpus and returns its term ids.
func addDoc(c *Corpus, text string) []uint32 {
	return c.AddDoc(nil, tweet.Tokenize(text))
}

// topTerms labels a peak given as texts already added to the corpus.
func topTerms(c *Corpus, peak []string, k int, excluded []string) []ScoredTerm {
	counts := c.NewCounts()
	for _, text := range peak {
		counts.AddDocs(1)
		for term := range tweet.TermSet(text) {
			id, _ := c.ID(term)
			counts.Add(id, 1)
		}
	}
	return c.TopTerms(counts, k, excluded)
}

func idf(c *Corpus, term string) float64 {
	id, _ := c.ID(term)
	return c.IDF(id)
}

func similarity(text string, keywords []string) float64 {
	c := NewCorpus()
	ids := addDoc(c, text)
	return c.Keywords(keywords).Similarity(ids)
}

func TestTopTermsFindsMarkers(t *testing.T) {
	// Background: generic soccer chatter. Peak: everyone mentions the
	// score and the scorer — exactly the paper's Figure 1 example.
	c := NewCorpus()
	background := []string{
		"watching the soccer match tonight",
		"soccer is on, great game so far",
		"manchester playing well in this match",
		"liverpool fans are loud at the match",
		"halftime soon in the soccer game",
	}
	for _, d := range background {
		addDoc(c, d)
	}
	peak := []string{
		"GOAL!! tevez scores, 3-0 manchester",
		"tevez with a rocket, 3-0",
		"what a goal by tevez 3-0 now",
		"3-0 tevez is unstoppable",
	}
	for _, d := range peak {
		addDoc(c, d)
	}
	top := topTerms(c, peak, 5, []string{"soccer", "manchester", "liverpool"})
	if len(top) == 0 {
		t.Fatal("no terms")
	}
	found := map[string]bool{}
	for _, st := range top {
		found[st.Term] = true
	}
	if !found["tevez"] || !found["3-0"] {
		t.Errorf("marker terms missing from %v", top)
	}
	// Excluded event keywords must not appear.
	if found["soccer"] || found["manchester"] {
		t.Errorf("excluded keyword leaked: %v", top)
	}
	// Scores are sorted descending.
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Error("terms not sorted")
		}
	}
}

func TestIDFDampensCommonTerms(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 100; i++ {
		addDoc(c, "game game tonight")
	}
	addDoc(c, "tevez scores")
	if idf(c, "game") >= idf(c, "tevez") {
		t.Errorf("IDF(game)=%v should be < IDF(tevez)=%v", idf(c, "game"), idf(c, "tevez"))
	}
	if c.Docs() != 101 {
		t.Errorf("Docs = %d", c.Docs())
	}
}

func TestTopTermsEmptyPeak(t *testing.T) {
	c := NewCorpus()
	addDoc(c, "something")
	if got := topTerms(c, nil, 5, nil); len(got) != 0 {
		t.Errorf("empty peak terms = %v", got)
	}
}

func TestTopTermsDeterministicTies(t *testing.T) {
	c := NewCorpus()
	peak := []string{"alpha beta", "alpha beta"}
	for _, d := range peak {
		addDoc(c, d)
	}
	a := topTerms(c, peak, 2, nil)
	b := topTerms(c, peak, 2, nil)
	if len(a) != 2 || a[0].Term != b[0].Term || a[1].Term != b[1].Term {
		t.Errorf("ties not deterministic: %v vs %v", a, b)
	}
	if a[0].Term != "alpha" { // alphabetical tiebreak
		t.Errorf("tie order = %v", a)
	}
}

func TestSimilarity(t *testing.T) {
	kw := []string{"soccer", "tevez"}
	on := similarity("tevez plays great soccer", kw)
	off := similarity("coffee and rain today", kw)
	half := similarity("tevez runs fast today", kw)
	if on <= half || half <= off {
		t.Errorf("similarity ordering: on=%v half=%v off=%v", on, half, off)
	}
	if off != 0 {
		t.Errorf("off-topic similarity = %v", off)
	}
	if similarity("", kw) != 0 || similarity("text", nil) != 0 {
		t.Error("degenerate similarity should be 0")
	}
}

func TestMatchesSearch(t *testing.T) {
	ts := []ScoredTerm{{Term: "tevez"}, {Term: "3-0"}}
	if !MatchesSearch(ts, "tevez") || !MatchesSearch(ts, "TEV") || !MatchesSearch(ts, "3-0") {
		t.Error("search should match")
	}
	if MatchesSearch(ts, "gerrard") || MatchesSearch(ts, "") || MatchesSearch(ts, "  ") {
		t.Error("search should not match")
	}
}

func TestKeepTop(t *testing.T) {
	before := func(a, b int) bool { return a > b }
	var top []int
	for _, x := range []int{3, 9, 1, 9, 4, 7, 0, 8} {
		top = KeepTop(top, 3, x, before)
	}
	if len(top) != 3 || top[0] != 9 || top[1] != 9 || top[2] != 8 {
		t.Errorf("top 3 = %v", top)
	}
}

func TestCountsReset(t *testing.T) {
	c := NewCorpus()
	ids := addDoc(c, "tevez scores twice")
	counts := c.NewCounts()
	counts.AddDocs(1)
	for _, id := range ids {
		counts.Add(id, 1)
	}
	if got := c.TopTerms(counts, 5, nil); len(got) != 3 {
		t.Fatalf("terms = %v", got)
	}
	counts.Reset()
	if got := c.TopTerms(counts, 5, nil); len(got) != 0 {
		t.Errorf("terms after Reset = %v", got)
	}
}

// FuzzAddDocTermSet holds the interner to tweet.TermSet, the definition
// of a tweet's term set: the ids AddDoc returns name exactly that set,
// each once, and every one's document frequency moves by one.
func FuzzAddDocTermSet(f *testing.F) {
	for _, s := range []string{
		"GOAL!!! Tevez scores, 3-0.",
		"Watch #obama speak @cnn http://t.co/abc",
		"see HTTP://T.CO/x and http://t.co/Abc",
		"##goal --- # @ #goal goal",
		"\u0130stanbul derbisi",
		"272 \u212Aelvin",
		"\u0393\u039A\u039F\u039B! 90'",
		"no\u00A0break\u2003space\u0085nel",
		"bad \xff\xfeutf8 go\xffal",
		"RT the #The (http://x.example) premier league tonight",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c := NewCorpus()
		addDoc(c, "tevez scores the goal") // ids exist before the fuzzed doc
		before := append([]int32(nil), c.docFreq...)
		ids := addDoc(c, text)
		var got []string
		for _, id := range ids {
			got = append(got, c.terms[id])
			was := int32(0)
			if int(id) < len(before) {
				was = before[id]
			}
			if c.docFreq[id] != was+1 {
				t.Fatalf("docFreq[%q] went %d -> %d", c.terms[id], was, c.docFreq[id])
			}
		}
		var want []string
		for term := range tweet.TermSet(text) {
			want = append(want, term)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("AddDoc(%q) terms %q, TermSet %q", text, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AddDoc(%q) terms %q, TermSet %q", text, got, want)
			}
		}
		if c.Docs() != 2 {
			t.Fatalf("Docs = %d", c.Docs())
		}
	})
}
