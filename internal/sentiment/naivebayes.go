// Package sentiment implements the classification framework TweeQL uses
// to extract categories from tweet text (§2: "it provides a
// classification framework, used primarily for sentiment analysis").
//
// The framework is a multinomial Naive Bayes classifier over word tokens
// with Laplace smoothing. The default instance is trained on an embedded
// polarity corpus; the same lexicon drives the synthetic firehose, so the
// generator knows each tweet's ground-truth polarity and experiments can
// score classifier accuracy exactly.
package sentiment

import (
	"math"
	"sort"

	"tweeql/internal/tweet"
)

// NaiveBayes is a multinomial Naive Bayes text classifier. It is not
// safe for concurrent mutation; train fully before classifying from
// multiple goroutines.
type NaiveBayes struct {
	classes    []string
	docs       map[string]int            // class → documents seen
	tokenCount map[string]int            // class → total tokens
	tokenFreq  map[string]map[string]int // class → token → count
	vocab      map[string]bool
	totalDocs  int
}

// NewNaiveBayes returns an empty classifier.
func NewNaiveBayes() *NaiveBayes {
	return &NaiveBayes{
		docs:       make(map[string]int),
		tokenCount: make(map[string]int),
		tokenFreq:  make(map[string]map[string]int),
		vocab:      make(map[string]bool),
	}
}

// Train adds one labeled document.
func (nb *NaiveBayes) Train(class, doc string) {
	if _, seen := nb.docs[class]; !seen {
		nb.classes = append(nb.classes, class)
		sort.Strings(nb.classes)
		nb.tokenFreq[class] = make(map[string]int)
	}
	nb.docs[class]++
	nb.totalDocs++
	for _, tok := range tweet.Tokenize(doc) {
		nb.tokenFreq[class][tok]++
		nb.tokenCount[class]++
		nb.vocab[tok] = true
	}
}

// Classes returns the known class labels, sorted.
func (nb *NaiveBayes) Classes() []string { return nb.classes }

// LogPosteriors returns the (unnormalized) log posterior of each class
// for the document, keyed by class name. An untrained classifier returns
// an empty map.
func (nb *NaiveBayes) LogPosteriors(doc string) map[string]float64 {
	out := make(map[string]float64, len(nb.classes))
	for i, lp := range nb.logPosteriors(nil, tweet.Tokenize(doc)) {
		out[nb.classes[i]] = lp
	}
	return out
}

// logPosteriors appends one log posterior per class, in Classes()
// order, to dst; nothing when untrained.
func (nb *NaiveBayes) logPosteriors(dst []float64, toks []string) []float64 {
	if nb.totalDocs == 0 {
		return dst
	}
	v := float64(len(nb.vocab))
	for _, class := range nb.classes {
		lp := math.Log(float64(nb.docs[class]) / float64(nb.totalDocs))
		denom := float64(nb.tokenCount[class]) + v
		freq := nb.tokenFreq[class]
		for _, tok := range toks {
			if !nb.vocab[tok] {
				continue // unseen tokens carry no signal for any class
			}
			lp += math.Log((float64(freq[tok]) + 1) / denom)
		}
		dst = append(dst, lp)
	}
	return dst
}

// Classify returns the maximum-a-posteriori class and the posterior
// probability mass assigned to it (normalized across classes).
func (nb *NaiveBayes) Classify(doc string) (string, float64) {
	return nb.ClassifyTokens(tweet.Tokenize(doc))
}

// ClassifyTokens is Classify for a caller that already holds the
// document's tweet.Tokenize tokens.
func (nb *NaiveBayes) ClassifyTokens(toks []string) (string, float64) {
	var buf [4]float64
	lps := nb.logPosteriors(buf[:0], toks)
	if len(lps) == 0 {
		return "", 0
	}
	// Normalize in log space for a stable softmax.
	best, bestLP := "", math.Inf(-1)
	for i, lp := range lps {
		if lp > bestLP {
			best, bestLP = nb.classes[i], lp
		}
	}
	var total float64
	for _, lp := range lps {
		total += math.Exp(lp - bestLP)
	}
	return best, 1 / total
}
