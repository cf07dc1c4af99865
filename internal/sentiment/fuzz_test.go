package sentiment

import (
	"math"
	"testing"

	"tweeql/internal/tweet"
)

// oracleClassify is Analyzer.Classify as it was when every step took
// the text and tokenized it for itself: the lexicon probe, then Naive
// Bayes through a class-keyed map of log posteriors. FuzzClassifyTokens
// holds the shared-token-pass entry points to it.
func oracleClassify(a *Analyzer, text string) (Label, float64) {
	sentimentBearing := false
	for _, tok := range tweet.Tokenize(text) {
		if a.lexicon[tok] {
			sentimentBearing = true
			break
		}
	}
	if !sentimentBearing {
		return Neutral, 0
	}
	nb := a.nb
	lps := make(map[string]float64, len(nb.classes))
	toks := tweet.Tokenize(text)
	v := float64(len(nb.vocab))
	for _, class := range nb.classes {
		lp := math.Log(float64(nb.docs[class]) / float64(nb.totalDocs))
		denom := float64(nb.tokenCount[class]) + v
		for _, tok := range toks {
			if !nb.vocab[tok] {
				continue
			}
			lp += math.Log((float64(nb.tokenFreq[class][tok]) + 1) / denom)
		}
		lps[class] = lp
	}
	best, bestLP := "", math.Inf(-1)
	for _, class := range nb.classes {
		if lp := lps[class]; lp > bestLP {
			best, bestLP = class, lp
		}
	}
	var total float64
	for _, lp := range lps {
		total += math.Exp(lp - bestLP)
	}
	margin := 2*(1/total) - 1
	if margin < a.neutralBand {
		return Neutral, 0
	}
	if best == "positive" {
		return Positive, margin
	}
	return Negative, -margin
}

// FuzzClassifyTokens pins the token entry points to the text-based
// classifier: a caller that tokenized once (TwitInfo's tracker) gets
// the label and score, bit for bit, that the text gave before. Seeds
// are FuzzContainsWord's texts plus polarity-bearing ones.
func FuzzClassifyTokens(f *testing.F) {
	for _, s := range []string{
		"GOAL!!! Tevez scores, 3-0.",
		"Watch #obama speak @cnn http://t.co/abc",
		"see HTTP://T.CO/x and http://t.co/Abc",
		"##goal --- # @",
		"\u0130stanbul derbisi",
		"272 \u212Aelvin",
		"\u0393\u039A\u039F\u039B! 90'",
		"no\u00A0break\u2003space\u0085nel",
		"bad \xff\xfeutf8 go\xffal",
		"premier league tonight",
		"tab\tin\tword",
		"what a great win, love it",
		"terrible awful loss but a brilliant #goal",
		"LOVE\u00A0hate Hate",
		"",
	} {
		f.Add(s)
	}
	a := Default()
	f.Fuzz(func(t *testing.T, text string) {
		wantLabel, wantScore := oracleClassify(a, text)
		if label, score := a.ClassifyTokens(tweet.Tokenize(text)); label != wantLabel || score != wantScore {
			t.Fatalf("ClassifyTokens(Tokenize(%q)) = %v %v, text-based %v %v", text, label, score, wantLabel, wantScore)
		}
		if label, score := a.Classify(text); label != wantLabel || score != wantScore {
			t.Fatalf("Classify(%q) = %v %v, text-based %v %v", text, label, score, wantLabel, wantScore)
		}
	})
}
