package sentiment

import (
	"math"
	"sync"

	"tweeql/internal/tweet"
)

// Label is a tweet's detected polarity. TwitInfo colors tweets blue
// (positive), red (negative) or white (neutral) from this label.
type Label int

const (
	Negative Label = -1
	Neutral  Label = 0
	Positive Label = 1
)

// String returns "positive", "negative" or "neutral".
func (l Label) String() string {
	switch {
	case l > 0:
		return "positive"
	case l < 0:
		return "negative"
	default:
		return "neutral"
	}
}

// PositiveWords and NegativeWords form the polarity lexicon. The
// embedded training corpus is generated from these, and the synthetic
// firehose samples from the same lists when it emits a tweet with known
// ground-truth polarity, which is what lets experiments score the
// classifier against truth.
var PositiveWords = []string{
	"love", "great", "awesome", "amazing", "win", "wins", "winning",
	"happy", "best", "fantastic", "brilliant", "beautiful", "excellent",
	"superb", "goal", "yes", "congrats", "congratulations", "proud",
	"wonderful", "perfect", "thrilled", "excited", "delighted", "stunning",
	"incredible", "magic", "hero", "legend", "joy",
}

var NegativeWords = []string{
	"hate", "terrible", "awful", "horrible", "lose", "loses", "losing",
	"sad", "worst", "disaster", "fail", "failure", "angry", "disappointed",
	"pathetic", "useless", "tragic", "scared", "fear", "panic",
	"devastating", "crisis", "broken", "cry", "furious", "disgrace",
	"shame", "ugly", "wrong", "pain",
}

// Analyzer classifies tweet polarity. It wraps the generic NaiveBayes
// framework with the neutral-band decision rule: documents with no
// sentiment-bearing vocabulary, or with a posterior too close to 50/50,
// are labeled neutral.
type Analyzer struct {
	nb *NaiveBayes
	// neutralBand is the posterior margin around 0.5 treated as neutral.
	neutralBand float64
	lexicon     map[string]bool
}

// NewAnalyzer trains an analyzer on the embedded polarity corpus.
func NewAnalyzer() *Analyzer {
	a := &Analyzer{
		nb:          NewNaiveBayes(),
		neutralBand: 0.15,
		lexicon:     make(map[string]bool, len(PositiveWords)+len(NegativeWords)),
	}
	// The corpus pairs each lexicon word with common tweet scaffolding so
	// the classifier sees polarity words in context rather than alone.
	templates := []string{
		"%s", "so %s", "this is %s", "feeling %s today",
		"what a %s game", "that was %s", "absolutely %s news",
	}
	for _, w := range PositiveWords {
		a.lexicon[w] = true
		for _, tpl := range templates {
			a.nb.Train("positive", expand(tpl, w))
		}
	}
	for _, w := range NegativeWords {
		a.lexicon[w] = true
		for _, tpl := range templates {
			a.nb.Train("negative", expand(tpl, w))
		}
	}
	return a
}

func expand(tpl, w string) string {
	out := make([]byte, 0, len(tpl)+len(w))
	for i := 0; i < len(tpl); i++ {
		if tpl[i] == '%' && i+1 < len(tpl) && tpl[i+1] == 's' {
			out = append(out, w...)
			i++
			continue
		}
		out = append(out, tpl[i])
	}
	return string(out)
}

// Classify returns the polarity label and a score in [-1, 1]: the signed
// positive-class margin. Score feeds AVG(sentiment(text)) aggregates;
// Label feeds TwitInfo's coloring and pie chart.
func (a *Analyzer) Classify(text string) (Label, float64) {
	return a.ClassifyTokens(tweet.Tokenize(text))
}

// ClassifyTokens is Classify for a caller that already tokenized the
// text with tweet.Tokenize (TwitInfo's tracker shares one token pass
// between its matcher, this, and the term corpus).
func (a *Analyzer) ClassifyTokens(toks []string) (Label, float64) {
	if !a.hasSentimentToken(toks) {
		return Neutral, 0
	}
	class, conf := a.nb.ClassifyTokens(toks)
	// conf is the winning posterior in [1/classes, 1]; map to a signed
	// margin where 0 means an even split.
	margin := 2*conf - 1
	if margin < a.neutralBand {
		return Neutral, 0
	}
	if class == "positive" {
		return Positive, margin
	}
	return Negative, -margin
}

// Score returns just the signed score in [-1, 1].
func (a *Analyzer) Score(text string) float64 {
	_, s := a.Classify(text)
	return s
}

func (a *Analyzer) hasSentimentToken(toks []string) bool {
	for _, tok := range toks {
		if a.lexicon[tok] {
			return true
		}
	}
	return false
}

// Accuracy scores the analyzer on labeled examples, returning the
// fraction whose label matches.
func (a *Analyzer) Accuracy(texts []string, labels []Label) float64 {
	if len(texts) == 0 || len(texts) != len(labels) {
		return math.NaN()
	}
	correct := 0
	for i, txt := range texts {
		if got, _ := a.Classify(txt); got == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(texts))
}

// Recall measures per-class recall on a labeled validation set: the
// fraction of truly-positive texts labeled positive, and likewise for
// negative. TwitInfo uses these to normalize its sentiment proportions
// (see twitinfo.Pie.Normalized). Classes absent from the set report
// recall 1 (nothing to correct).
func (a *Analyzer) Recall(texts []string, labels []Label) (posRecall, negRecall float64) {
	var posHit, posTotal, negHit, negTotal int
	for i, txt := range texts {
		if i >= len(labels) {
			break
		}
		got, _ := a.Classify(txt)
		switch labels[i] {
		case Positive:
			posTotal++
			if got == Positive {
				posHit++
			}
		case Negative:
			negTotal++
			if got == Negative {
				negHit++
			}
		}
	}
	posRecall, negRecall = 1, 1
	if posTotal > 0 {
		posRecall = float64(posHit) / float64(posTotal)
	}
	if negTotal > 0 {
		negRecall = float64(negHit) / float64(negTotal)
	}
	return posRecall, negRecall
}

var (
	defaultOnce sync.Once
	defaultA    *Analyzer
)

// Default returns the shared analyzer, trained once on first use.
func Default() *Analyzer {
	defaultOnce.Do(func() { defaultA = NewAnalyzer() })
	return defaultA
}
