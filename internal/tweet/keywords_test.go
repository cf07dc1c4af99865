package tweet

import (
	"strconv"
	"strings"
	"testing"
)

// checkKeywords holds one compiled set to ContainsAnyWord, its oracle:
// Match's verdict for every list, and Any's for the whole set.
func checkKeywords(t *testing.T, text string, lists [][]string) {
	t.Helper()
	k := NewKeywords(lists...)
	hits := make([]bool, len(lists))
	for i := range hits {
		hits[i] = true // Match must clear what it does not set
	}
	k.Match(text, hits)
	anyList := false
	for i, list := range lists {
		want := ContainsAnyWord(text, list)
		anyList = anyList || want
		if hits[i] != want {
			t.Fatalf("Match(%q) list %d %q = %v, ContainsAnyWord %v (lists %q)", text, i, list, hits[i], want, lists)
		}
	}
	if got := k.Any(text); got != anyList {
		t.Fatalf("Any(%q) = %v, any ContainsAnyWord %v (lists %q)", text, got, anyList, lists)
	}
}

func TestKeywords(t *testing.T) {
	for _, c := range []struct {
		text  string
		lists [][]string
	}{
		{"GOAL!!! Tevez scores, 3-0.", [][]string{{"goal"}, {"tevez", "x"}, {"3-0"}, {"score"}}},
		{"Watch #obama speak @cnn http://t.co/abc", [][]string{{"#obama"}, {"obama"}, {"@cnn"}, {"http://t.co/abc"}, {"HTTP://t.co/abc"}}},
		{"see HTTP://T.CO/x", [][]string{{"http://t.co/x"}, {"HTTP://T.CO/x"}}},
		{"the Premier League tonight", [][]string{{"premier league"}, {"league tonight", "premier"}, {"premierleague"}}},
		{"İstanbul 272 Kelvin", [][]string{{"i̇stanbul"}, {"KELVIN"}, {"Kelvin"}}},
		{"bad go\xffal", [][]string{{"go�al"}, {"go\xffal"}}},
		{"", [][]string{{"a"}, {}, {" "}}},
		{"a b", nil},
	} {
		checkKeywords(t, c.text, c.lists)
	}
}

// FuzzKeywords holds the compiled set to ContainsAnyWord for every list
// at once. The lists are the fuzzed string split on '\n', each list's
// words on '|', so one input covers several lists sharing words,
// phrases, hashtags, URLs, non-ASCII case folding and invalid UTF-8.
func FuzzKeywords(f *testing.F) {
	for _, s := range [][2]string{
		{"GOAL!!! Tevez scores, 3-0.", "soccer|football|GOAL\ntevez\n3-0|x"},
		{"Watch #obama speak @cnn http://t.co/abc", "#Obama|cnn\nobama\n@CNN\nhttp://t.co/abc"},
		{"see HTTP://T.CO/x and http://t.co/Abc", "http://t.co/abc\nHTTP://T.CO/x\nhttp://t.co/Abc"},
		{"##goal --- # @", "#goal| |\ngoal\n##goal"},
		{"İstanbul derbisi", "derby|i̇stanbul\nİstanbul\nistanbul"},
		{"272 Kelvin", "KELVIN\nkelvin\nKelvin"},
		{"ΓΚΟΛ! 90'", "ΓΚΟΛ\n90"},
		{"bad \xff\xfeutf8 go\xffal", "go�al|\xff\n\xfeutf8"},
		{"the Premier League tonight", "premierleague|premier league\nleague tonight\npremier"},
		{"tab\tin\tword", "in\tword|  \nword"},
		{"", ""},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, text, spec string) {
		var lists [][]string
		for _, l := range strings.Split(spec, "\n") {
			lists = append(lists, strings.Split(l, "|"))
		}
		checkKeywords(t, text, lists)
		// A random word rarely matches; every token of the text, in the
		// case the text spells it, is one. Give each its own list, and
		// add it to the first list too.
		for _, tok := range strings.Fields(text) {
			lists = append(lists, []string{tok})
			lists[0] = append(lists[0], tok)
		}
		checkKeywords(t, text, lists)
		checkKeywords(t, text, append(lists, Tokenize(text)))
	})
}

func TestKeywordsDoNotAllocate(t *testing.T) {
	k := NewKeywords(soccerKeywords, []string{"goal"}, []string{"liverpool", "gerrard", "penalty"})
	hits := make([]bool, 3)
	for _, text := range []string{benchTweet, unicodeTweet} {
		if n := testing.AllocsPerRun(100, func() { k.Match(text, hits) }); n != 0 {
			t.Errorf("Match(%q) allocates %v times per call, want 0", text, n)
		}
		if n := testing.AllocsPerRun(100, func() { containsSink = k.Any(text) }); n != 0 {
			t.Errorf("Any(%q) allocates %v times per call, want 0", text, n)
		}
	}
}

// BenchmarkKeywordsAny is BenchmarkContainsAnyWord (soccer) and
// BenchmarkContainsWord (one word, a CONTAINS conjunct's per-row cost
// once bound) on the compiled set.
func BenchmarkKeywordsAny(b *testing.B) {
	for name, list := range map[string][]string{"soccer": soccerKeywords, "one-word": {"obama"}} {
		b.Run(name, func(b *testing.B) {
			k := NewKeywords(list)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				containsSink = k.Any(benchTweet)
			}
		})
	}
}

// BenchmarkKeywordsMatch is the hub's per-tweet match of n track
// connections with five keywords each, against a tweet they all miss.
func BenchmarkKeywordsMatch(b *testing.B) {
	for _, n := range []int{1, 4, 64} {
		b.Run("lists="+strconv.Itoa(n), func(b *testing.B) {
			lists := make([][]string, n)
			for i := range lists {
				for _, w := range soccerKeywords {
					lists[i] = append(lists[i], w+strconv.Itoa(i%8))
				}
			}
			k := NewKeywords(lists...)
			hits := make([]bool, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.Match(benchTweet, hits)
			}
		})
	}
}
