// Package tweet defines the tweet record model shared by the simulated
// streaming API, the TweeQL engine, and TwitInfo, along with the text
// utilities (tokenization, URL/hashtag/mention extraction) that the
// paper's UDFs rely on.
package tweet

import (
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Tweet is one microblog post. Fields mirror the subset of the 2011
// Twitter streaming API payload that TweeQL exposes as columns.
type Tweet struct {
	ID        int64     `json:"id"`
	UserID    int64     `json:"user_id"`
	Username  string    `json:"username"`
	Text      string    `json:"text"`
	CreatedAt time.Time `json:"created_at"`

	// Location is the free-text, user-provided profile location ("NYC!!",
	// "Tokyo, Japan"). It requires geocoding before it is usable as a
	// coordinate; see internal/geocode.
	Location string `json:"location"`

	// HasGeo marks tweets carrying device GPS coordinates; Lat/Lon are
	// meaningful only when HasGeo is true.
	HasGeo bool    `json:"has_geo"`
	Lat    float64 `json:"lat,omitempty"`
	Lon    float64 `json:"lon,omitempty"`

	Followers int `json:"followers"`

	// Retweet marks retweets (TwitInfo's relevant-tweet ranking demotes
	// them as less original content).
	Retweet bool `json:"retweet"`
}

// Clone returns a copy of the tweet.
func (t *Tweet) Clone() *Tweet {
	c := *t
	return &c
}

// Tokenize splits text into lower-case word tokens. Hashtags keep their
// tag as part of the token ("#goal" → "#goal"); mentions likewise; URLs
// are kept whole. Punctuation is stripped from token edges.
func Tokenize(text string) []string {
	var tokens []string // nil when the text has none
	fields := strings.Fields(text)
	for i, raw := range fields {
		tok := raw
		if !isURL(raw) {
			tok = strings.TrimFunc(raw, notTokenRune)
			// Interior punctuation like "3-0" survives; tokens without any
			// letter or digit (bare "#", "---") drop.
			if !strings.ContainsFunc(tok, alnumRune) {
				continue
			}
			tok = strings.ToLower(tok)
		}
		if tokens == nil {
			tokens = make([]string, 0, len(fields)-i)
		}
		tokens = append(tokens, tok)
	}
	return tokens
}

func alnumRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsNumber(r) }

// notTokenRune reports a rune Tokenize strips from a token's edges.
func notTokenRune(r rune) bool { return !alnumRune(r) && r != '#' && r != '@' && r != '-' }

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// URLs extracts the http(s) URLs in order of appearance, with trailing
// punctuation trimmed.
func URLs(text string) []string {
	if !strings.Contains(text, "http") {
		return nil // the usual linkless tweet: no field split
	}
	var urls []string
	for _, f := range strings.Fields(text) {
		if isURL(f) {
			urls = append(urls, strings.TrimRight(f, ".,;:!?)"))
		}
	}
	return urls
}

// Hashtags extracts "#tag" tokens, lower-cased, without the leading '#'.
func Hashtags(text string) []string {
	var tags []string
	for _, tok := range Tokenize(text) {
		if strings.HasPrefix(tok, "#") && len(tok) > 1 {
			tags = append(tags, tok[1:])
		}
	}
	return tags
}

// Mentions extracts "@user" tokens, lower-cased, without the leading '@'.
func Mentions(text string) []string {
	var ms []string
	for _, tok := range Tokenize(text) {
		if strings.HasPrefix(tok, "@") && len(tok) > 1 {
			ms = append(ms, tok[1:])
		}
	}
	return ms
}

// ContainsWord reports whether the text contains the word or phrase,
// case-insensitively, on token boundaries for single words and by
// substring for multi-word phrases. This is the semantics of TweeQL's
// `text CONTAINS 'obama'` predicate and of the streaming API's track
// filter, which both match keywords rather than raw substrings.
//
// Single words compare against Tokenize's tokens without building them:
// nextToken walks the text in place, the common all-ASCII token is
// case-folded byte by byte against the lowered keyword and any other
// rune by rune, so a scan's per-row CONTAINS allocates nothing.
func ContainsWord(text, word string) bool {
	word = strings.ToLower(strings.TrimSpace(word))
	if word == "" {
		return false
	}
	if strings.ContainsRune(word, ' ') {
		return strings.Contains(strings.ToLower(text), word)
	}
	return anyToken(text, []string{word}, lenBit(len(word)))
}

// anyToken reports whether a token of text is one of the lowered single
// words; lens has lenBit set for each word's length.
func anyToken(text string, words []string, lens uint64) bool {
	for pos := 0; ; {
		tok, kind, next := nextToken(text, pos)
		if kind == tokNone {
			return false
		}
		pos = next
		if kind != tokUnicode {
			// A URL or ASCII token matches only a word of its own
			// length, or one byte shorter behind a '#'. (Unicode
			// lower-casing can change a token's length.)
			fit := lenBit(len(tok))
			if tok[0] == '#' {
				fit |= lenBit(len(tok) - 1)
			}
			if lens&fit == 0 {
				continue
			}
		}
		for _, w := range words {
			switch kind {
			case tokURL:
				// Kept whole and case-preserved; never a hashtag.
				if tok == w {
					return true
				}
			case tokASCII:
				if equalFoldASCII(tok, w) || (tok[0] == '#' && equalFoldASCII(tok[1:], w)) {
					return true
				}
			default:
				// Full Unicode lower-casing (İ, the Kelvin sign, …)
				// exactly as Tokenize folds it.
				if equalLower(tok, w) || (tok[0] == '#' && equalLower(tok[1:], w)) {
					return true
				}
			}
		}
	}
}

// tokenKind says how a token nextToken produced compares to Tokenize's:
// a URL verbatim, the others after lower-casing.
type tokenKind int

const (
	tokNone    tokenKind = iota // end of text
	tokURL                      // http(s) URL, whole and case-preserved
	tokASCII                    // edge-trimmed, all ASCII, not yet case-folded
	tokUnicode                  // edge-trimmed, holds non-ASCII bytes, not yet case-folded
)

// nextToken returns the first Tokenize token of text at or after byte
// offset pos, as a substring of text, and the offset to resume from.
// Lower-casing the non-URL tokens yields exactly Tokenize(text), in
// order (FuzzContainsWord pins it, invalid UTF-8 included).
func nextToken(text string, pos int) (tok string, kind tokenKind, next int) {
	for {
		// strings.Fields' split, one field at a time: skip white space,
		// then take everything up to the next white space. ASCII bytes
		// are classified inline; only a non-ASCII byte pays for a decode.
		for pos < len(text) {
			c := text[pos]
			if c < utf8.RuneSelf {
				if !asciiSpace(c) {
					break
				}
				pos++
			} else if w, space := unicodeSpaceAt(text, pos); space {
				pos += w
			} else {
				break
			}
		}
		if pos == len(text) {
			return "", tokNone, pos
		}
		start, ascii := pos, true
		for pos < len(text) {
			c := text[pos]
			if c < utf8.RuneSelf {
				if asciiSpace(c) {
					break
				}
				pos++
			} else if w, space := unicodeSpaceAt(text, pos); !space {
				ascii = false
				pos += w
			} else {
				break
			}
		}
		raw := text[start:pos]
		switch {
		case isURL(raw):
			return raw, tokURL, pos
		case ascii:
			lo, hi := 0, len(raw)
			for lo < hi && !tokenByte(raw[lo]) {
				lo++
			}
			for hi > lo && !tokenByte(raw[hi-1]) {
				hi--
			}
			for i := lo; i < hi; i++ {
				if alnumByte(raw[i]) {
					return raw[lo:hi], tokASCII, pos
				}
			}
		default:
			if tok := strings.TrimFunc(raw, notTokenRune); strings.ContainsFunc(tok, alnumRune) {
				return tok, tokUnicode, pos
			}
		}
		// No letter or digit in the field: Tokenize drops it.
	}
}

func asciiSpace(c byte) bool { return c == ' ' || ('\t' <= c && c <= '\r') }

// unicodeSpaceAt decodes the non-ASCII character at text[pos:],
// reporting its width and whether unicode.IsSpace holds for it.
func unicodeSpaceAt(text string, pos int) (width int, space bool) {
	r, w := utf8.DecodeRuneInString(text[pos:])
	return w, unicode.IsSpace(r)
}

func alnumByte(c byte) bool {
	return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// tokenByte reports an ASCII byte Tokenize keeps at a token's edge.
func tokenByte(c byte) bool {
	return alnumByte(c) || c == '#' || c == '@' || c == '-'
}

// equalFoldASCII reports whether the ASCII token equals the already
// lower-cased word once its A–Z are folded.
func equalFoldASCII(tok, lowered string) bool {
	if len(tok) != len(lowered) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lowered[i] {
			return false
		}
	}
	return true
}

// equalLower reports whether strings.ToLower(tok) equals the already
// lower-cased word, without building it: ToLower maps every rune through
// unicode.ToLower, an invalid byte becoming U+FFFD like the RuneError it
// decodes to.
func equalLower(tok, lowered string) bool {
	j := 0
	for i := 0; i < len(tok); {
		r, n := utf8.DecodeRuneInString(tok[i:])
		i += n
		r = unicode.ToLower(r)
		if r < utf8.RuneSelf {
			if j == len(lowered) || lowered[j] != byte(r) {
				return false
			}
			j++
			continue
		}
		var enc [utf8.UTFMax]byte
		m := utf8.EncodeRune(enc[:], r)
		if len(lowered)-j < m || lowered[j:j+m] != string(enc[:m]) {
			return false
		}
		j += m
	}
	return j == len(lowered)
}

// lenBit is a word length's bit in anyToken's length mask; every length
// from 63 bytes up shares the top bit.
func lenBit(n int) uint64 { return 1 << min(n, 63) }

// maxStackWords is how many lowered keywords ContainsAnyWord keeps
// without allocating; a longer list still works, on the heap.
const maxStackWords = 16

// ContainsAnyWord reports whether the text contains any of the words,
// with ContainsWord semantics, in one pass over the text: a track
// filter's Filter.Matches, and the oracle Keywords is fuzzed against
// (FuzzKeywords). The words are lowered once per call (free when they
// are already lower-case); each token nextToken yields is then compared
// in place against all of them, so an all-ASCII text, or a non-ASCII
// one, allocates nothing. Only a phrase lowers the text, to test it by
// substring.
func ContainsAnyWord(text string, words []string) bool {
	var buf [maxStackWords]string
	single, phrases := buf[:0], false
	var lens uint64 // bit lenBit(len(w)) set for every single word w
	for _, w := range words {
		w = strings.ToLower(strings.TrimSpace(w))
		switch {
		case w == "":
		case strings.ContainsRune(w, ' '):
			phrases = true
		default:
			single = append(single, w)
			lens |= lenBit(len(w))
		}
	}
	if len(single) > 0 && anyToken(text, single, lens) {
		return true
	}
	if !phrases {
		return false
	}
	lowerText := strings.ToLower(text)
	for _, w := range words {
		if w = strings.ToLower(strings.TrimSpace(w)); strings.ContainsRune(w, ' ') && strings.Contains(lowerText, w) {
			return true
		}
	}
	return false
}

// TermSet returns the distinct tokens of text, excluding URLs and
// stopwords — the unit TwitInfo uses for TF-IDF and similarity.
func TermSet(text string) map[string]bool {
	set := make(map[string]bool)
	for _, tok := range Tokenize(text) {
		if term, ok := Term(tok); ok {
			set[term] = true
		}
	}
	return set
}

// Term maps one Tokenize token to the term TermSet keeps for it: the
// token without its hashtag mark, and ok false for URLs and stopwords.
func Term(tok string) (term string, ok bool) {
	if isURL(tok) || Stopword(tok) {
		return "", false
	}
	return strings.TrimPrefix(tok, "#"), true
}

// stopwords is a compact English stopword list tuned for tweet text; it
// includes twitter-isms ("rt") that would otherwise dominate every peak.
var stopwords = map[string]bool{
	"a": true, "about": true, "after": true, "again": true, "all": true,
	"also": true, "am": true, "an": true, "and": true, "any": true,
	"are": true, "as": true, "at": true, "be": true, "because": true,
	"been": true, "before": true, "being": true, "but": true, "by": true,
	"can": true, "cant": true, "could": true, "did": true, "do": true,
	"does": true, "dont": true, "down": true, "for": true, "from": true,
	"get": true, "got": true, "had": true, "has": true, "have": true,
	"he": true, "her": true, "here": true, "him": true, "his": true,
	"how": true, "i": true, "if": true, "im": true, "in": true,
	"into": true, "is": true, "it": true, "its": true, "just": true,
	"like": true, "lol": true, "me": true, "more": true, "most": true,
	"my": true, "no": true, "not": true, "now": true, "of": true,
	"off": true, "on": true, "one": true, "only": true, "or": true,
	"our": true, "out": true, "over": true, "rt": true, "said": true,
	"she": true, "so": true, "some": true, "such": true, "than": true,
	"that": true, "the": true, "their": true, "them": true, "then": true,
	"there": true, "these": true, "they": true, "this": true, "to": true,
	"too": true, "up": true, "us": true, "very": true, "was": true,
	"we": true, "were": true, "what": true, "when": true, "where": true,
	"which": true, "who": true, "why": true, "will": true, "with": true,
	"would": true, "you": true, "your": true,
}

// Stopword reports whether tok (already lower-case) is a stopword.
func Stopword(tok string) bool { return stopwords[strings.TrimPrefix(tok, "#")] }
