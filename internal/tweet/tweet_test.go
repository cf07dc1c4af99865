package tweet

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"GOAL!!! Tevez scores, 3-0.", []string{"goal", "tevez", "scores", "3-0"}},
		{"Watch #obama speak @cnn http://t.co/abc", []string{"watch", "#obama", "speak", "@cnn", "http://t.co/abc"}},
		{"", nil},
		{"... !!! ###", nil},
		{"#  @", nil},
	}
	for _, c := range cases {
		if got := Tokenize(c.text); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestURLs(t *testing.T) {
	got := URLs("see http://a.com/x, then https://b.org/y! done")
	want := []string{"http://a.com/x", "https://b.org/y"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("URLs = %v, want %v", got, want)
	}
	if URLs("no links here") != nil {
		t.Error("URLs on plain text should be nil")
	}
}

func TestHashtagsMentions(t *testing.T) {
	text := "RT @BBC: #Quake in #Japan, stay safe @all"
	if got := Hashtags(text); !reflect.DeepEqual(got, []string{"quake", "japan"}) {
		t.Errorf("Hashtags = %v", got)
	}
	if got := Mentions(text); !reflect.DeepEqual(got, []string{"bbc", "all"}) {
		t.Errorf("Mentions = %v", got)
	}
}

func TestContainsWord(t *testing.T) {
	cases := []struct {
		text, word string
		want       bool
	}{
		{"I saw Obama today", "obama", true},
		{"I saw Obama today", "OBAMA", true},
		{"obamacare is trending", "obama", false}, // token boundary
		{"#obama rally", "obama", true},           // hashtag matches keyword
		{"premier league tonight", "premier league", true},
		{"premierleague tonight", "premier league", false},
		{"anything", "", false},
		{"Tevez scores", "tevez", true},
	}
	for _, c := range cases {
		if got := ContainsWord(c.text, c.word); got != c.want {
			t.Errorf("ContainsWord(%q,%q) = %v, want %v", c.text, c.word, got, c.want)
		}
	}
}

func TestContainsAnyWord(t *testing.T) {
	text := "Tevez scores in the premier league #goal"
	if !ContainsAnyWord(text, []string{"zzz", "tevez"}) {
		t.Error("tevez should match")
	}
	if !ContainsAnyWord(text, []string{"premier league"}) {
		t.Error("phrase should match")
	}
	if !ContainsAnyWord(text, []string{"goal"}) {
		t.Error("hashtag form should match bare keyword")
	}
	if ContainsAnyWord(text, []string{"obama", "quake"}) {
		t.Error("unrelated keywords matched")
	}
	if ContainsAnyWord(text, nil) || ContainsAnyWord(text, []string{"", "  "}) {
		t.Error("empty keyword lists should not match")
	}
	// Agreement with the single-word predicate.
	for _, w := range []string{"tevez", "scores", "league", "nothing", "premier league"} {
		if ContainsAnyWord(text, []string{w}) != ContainsWord(text, w) {
			t.Errorf("ContainsAnyWord and ContainsWord disagree on %q", w)
		}
	}
}

func TestTermSet(t *testing.T) {
	set := TermSet("RT the GOAL by Tevez http://t.co/x #goal")
	if set["rt"] || set["the"] || set["by"] {
		t.Errorf("stopwords leaked into term set: %v", set)
	}
	if set["http://t.co/x"] {
		t.Error("URL leaked into term set")
	}
	if !set["goal"] || !set["tevez"] {
		t.Errorf("expected terms missing: %v", set)
	}
}

func TestStopword(t *testing.T) {
	for _, s := range []string{"the", "rt", "#the"} {
		if !Stopword(s) {
			t.Errorf("Stopword(%q) = false", s)
		}
	}
	if Stopword("tevez") {
		t.Error("tevez should not be a stopword")
	}
}

func TestClone(t *testing.T) {
	orig := &Tweet{ID: 1, Text: "hi", CreatedAt: time.Unix(5, 0), HasGeo: true, Lat: 1, Lon: 2}
	c := orig.Clone()
	c.Text = "changed"
	c.Lat = 99
	if orig.Text != "hi" || orig.Lat != 1 {
		t.Error("Clone shares state with original")
	}
}

// containsWordOracle is ContainsWord as it stood before the in-place
// token scanner: tokenize the whole text, then compare. Kept as the
// reference FuzzContainsWord holds the scanner to.
func containsWordOracle(text, word string) bool {
	word = strings.ToLower(strings.TrimSpace(word))
	if word == "" {
		return false
	}
	if strings.ContainsRune(word, ' ') {
		return strings.Contains(strings.ToLower(text), word)
	}
	for _, tok := range Tokenize(text) {
		if tok == word || strings.TrimPrefix(tok, "#") == word {
			return true
		}
	}
	return false
}

// scanTokens collects nextToken's stream in Tokenize's form.
func scanTokens(text string) []string {
	var tokens []string
	for pos := 0; ; {
		tok, kind, next := nextToken(text, pos)
		if kind == tokNone {
			return tokens
		}
		if kind != tokURL {
			tok = strings.ToLower(tok)
		}
		tokens = append(tokens, tok)
		pos = next
	}
}

// FuzzContainsWord holds the in-place scanner to the tokenizing
// implementation it replaced: the same token stream as Tokenize and the
// same verdict, for any text and keyword — non-ASCII case folding and
// invalid UTF-8 included.
func FuzzContainsWord(f *testing.F) {
	for _, s := range [][2]string{
		{"GOAL!!! Tevez scores, 3-0.", "goal"},
		{"Watch #obama speak @cnn http://t.co/abc", "obama"},
		{"see HTTP://T.CO/x and http://t.co/Abc", "http://t.co/abc"},
		{"##goal --- # @", "#goal"},
		{"\u0130stanbul derbisi", "i\u0307stanbul"}, // dotted capital I lowers to two runes
		{"272 \u212Aelvin", "kelvin"},               // the Kelvin sign lowers to ASCII k
		{"\u0393\u039A\u039F\u039B! 90'", "\u03B3\u03BA\u03BF\u03BB"},
		{"no\u00A0break\u2003space\u0085nel", "break"}, // non-ASCII white space splits fields
		{"bad \xff\xfeutf8 go\xffal", "go\uFFFDal"},
		{"premier league tonight", "premier league"},
		{"tab\tin\tword", "in\tword"},
		{"", ""},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, text, word string) {
		want := Tokenize(text)
		if got := scanTokens(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("token stream of %q: scanner %q, Tokenize %q", text, got, want)
		}
		if got, want := ContainsWord(text, word), containsWordOracle(text, word); got != want {
			t.Fatalf("ContainsWord(%q, %q) = %v, oracle %v", text, word, got, want)
		}
		// The fuzzer rarely guesses a keyword that matches; every token
		// of the text is one.
		for _, tok := range want {
			if got, want := ContainsWord(text, tok), containsWordOracle(text, tok); got != want {
				t.Fatalf("ContainsWord(%q, %q) = %v, oracle %v", text, tok, got, want)
			}
		}
	})
}

const benchTweet = "RT @bbcsport: Tevez scores again!! Man City 3-0 up, what a #GOAL http://t.co/a1B2c3 #mcfc"

var containsSink bool

// BenchmarkContainsWord is the per-row cost of `text CONTAINS 'kw'` on
// a 90-byte tweet the keyword misses (every token is compared).
func BenchmarkContainsWord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		containsSink = ContainsWord(benchTweet, "obama")
	}
}

func TestContainsWordDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { containsSink = ContainsWord(benchTweet, "obama") }); n != 0 {
		t.Errorf("ContainsWord allocates %v times per call on ASCII text, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { containsSink = ContainsWord(unicodeTweet, "kelvin") }); n != 0 {
		t.Errorf("ContainsWord allocates %v times per call on non-ASCII text, want 0", n)
	}
}

// containsAnyWordOracle is ContainsAnyWord as it stood before the
// one-pass matcher: tokenize the whole text into a set holding every
// token with and without its hashtag mark, then look each keyword up.
// Kept as the reference FuzzContainsAnyWord holds the matcher to.
func containsAnyWordOracle(text string, words []string) bool {
	if len(words) == 0 {
		return false
	}
	var tokens map[string]bool
	lowerText := ""
	for _, w := range words {
		w = strings.ToLower(strings.TrimSpace(w))
		if w == "" {
			continue
		}
		if strings.ContainsRune(w, ' ') {
			if lowerText == "" {
				lowerText = strings.ToLower(text)
			}
			if strings.Contains(lowerText, w) {
				return true
			}
			continue
		}
		if tokens == nil {
			tokens = make(map[string]bool)
			for _, tok := range Tokenize(text) {
				tokens[strings.TrimPrefix(tok, "#")] = true
				tokens[tok] = true
			}
		}
		if tokens[w] {
			return true
		}
	}
	return false
}

// FuzzContainsAnyWord holds the one-pass matcher to the map-based
// implementation it replaced, and to its definition: any ContainsWord.
// The word list is the fuzzed string split on '|', so it covers empty
// and space-only words, phrases, hashtags, URLs, non-ASCII case folding
// and invalid UTF-8 together with the text.
func FuzzContainsAnyWord(f *testing.F) {
	for _, s := range [][2]string{
		{"GOAL!!! Tevez scores, 3-0.", "soccer|football|GOAL"},
		{"Watch #obama speak @cnn http://t.co/abc", "#Obama|cnn"},
		{"see HTTP://T.CO/x and http://t.co/Abc", "http://t.co/abc|HTTP://T.CO/x"},
		{"##goal --- # @", "#goal| |"},
		{"\u0130stanbul derbisi", "derby|i\u0307stanbul"},
		{"272 \u212Aelvin", "KELVIN"},
		{"\u0393\u039A\u039F\u039B! 90'", "\u0393\u039A\u039F\u039B"},
		{"no\u00A0break\u2003space\u0085nel", "nel|space"},
		{"bad \xff\xfeutf8 go\xffal", "go\uFFFDal|\xff"},
		{"the Premier League tonight", "premierleague|premier league"},
		{"tab\tin\tword", "in\tword|  "},
		{"", ""},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, text, list string) {
		words := strings.Split(list, "|")
		check := func(words []string) {
			t.Helper()
			any := false
			for _, w := range words {
				any = any || ContainsWord(text, w)
			}
			got := ContainsAnyWord(text, words)
			if want := containsAnyWordOracle(text, words); got != want || got != any {
				t.Fatalf("ContainsAnyWord(%q, %q) = %v, oracle %v, any ContainsWord %v", text, words, got, want, any)
			}
		}
		check(words)
		// A random word rarely matches; every token of the text, in the
		// case the text spells it, is one.
		for _, tok := range strings.Fields(text) {
			check(append(words, tok))
		}
		check(append(words, Tokenize(text)...))
	})
}

// unicodeTweet misses "kelvin" only on its last, non-ASCII token.
const unicodeTweet = "\u0130stanbul derbisi 272 \u212Aelvins \u0393\u039A\u039F\u039B"

// BenchmarkContainsAnyWord is a hub connection's per-tweet match: the
// soccer event's five track keywords against a 90-byte tweet they all
// miss, so every token meets every keyword.
func BenchmarkContainsAnyWord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		containsSink = ContainsAnyWord(benchTweet, soccerKeywords)
	}
}

// soccerKeywords mirrors firehose.SoccerKeywords (which this package
// cannot import).
var soccerKeywords = []string{"soccer", "football", "premierleague", "manchester", "liverpool"}

func TestContainsAnyWordDoesNotAllocate(t *testing.T) {
	for _, text := range []string{benchTweet, unicodeTweet} {
		if n := testing.AllocsPerRun(100, func() { containsSink = ContainsAnyWord(text, soccerKeywords) }); n != 0 {
			t.Errorf("ContainsAnyWord(%q, soccer keywords) allocates %v times per call, want 0", text, n)
		}
	}
}
