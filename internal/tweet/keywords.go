package tweet

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Keywords is a compiled set of keyword lists. Each list has
// ContainsAnyWord's semantics: its words are lowered, trimmed and
// empty-skipped once, at NewKeywords; a single word matches a token of
// the text ("#tag" matching "tag" too, a URL verbatim) and a phrase
// matches the lowered text by substring.
//
// Matching walks the text once with nextToken for all the lists
// together: a token is lowered into a stack buffer and looked up in one
// map from word to the lists holding it, and only when its length (or,
// behind a '#', its length less one) is the length of some word. So a
// tweet costs one pass whatever the number of lists, and an all-ASCII
// or a non-ASCII text allocates nothing; only a phrase lowers the text.
// A Keywords is immutable and safe for concurrent use.
type Keywords struct {
	words   map[string][]int32 // lowered single word → the lists holding it, ascending
	lens    uint64             // lenBit(len(w)) for every single word w
	first   [4]uint64          // bit w[0] set for every single word w
	phrases []phrase
	lists   int
}

// phrase is a lowered multi-word keyword and the lists holding it.
type phrase struct {
	text  string
	lists []int32
}

// NewKeywords compiles the lists; list i of the set is lists[i].
func NewKeywords(lists ...[]string) *Keywords {
	k := &Keywords{words: make(map[string][]int32), lists: len(lists)}
	phraseAt := make(map[string]int)
	for i, list := range lists {
		for _, w := range list {
			w = strings.ToLower(strings.TrimSpace(w))
			switch {
			case w == "":
			case strings.ContainsRune(w, ' '):
				j, ok := phraseAt[w]
				if !ok {
					j = len(k.phrases)
					phraseAt[w] = j
					k.phrases = append(k.phrases, phrase{text: w})
				}
				k.phrases[j].lists = appendList(k.phrases[j].lists, i)
			default:
				k.words[w] = appendList(k.words[w], i)
				k.lens |= lenBit(len(w))
				k.first[w[0]>>6] |= 1 << (w[0] & 63)
			}
		}
	}
	return k
}

// appendList adds list i to a word's ascending lists once.
func appendList(lists []int32, i int) []int32 {
	if n := len(lists); n > 0 && lists[n-1] == int32(i) {
		return lists
	}
	return append(lists, int32(i))
}

// Any reports whether the text matches any of the lists, stopping at
// the first keyword found. For one list it is ContainsAnyWord(text,
// list).
func (k *Keywords) Any(text string) bool { return k.match(text, nil) }

// Match sets hits[i] to whether the text matches list i, for every list,
// in one pass over the text. hits must hold an entry per list.
func (k *Keywords) Match(text string, hits []bool) {
	clear(hits[:k.lists])
	k.match(text, hits)
}

// match walks the text once. With hits nil it reports whether any list
// matches; otherwise it marks each matched list in hits (cleared by the
// caller) and stops once every list has matched.
func (k *Keywords) match(text string, hits []bool) bool {
	need := k.lists // lists not yet marked in hits
	// hit marks the lists a probe found and reports whether the walk is
	// done: at the first hit for Any, at the last unmarked list for
	// Match.
	hit := func(lists []int32) bool {
		if hits == nil {
			return true
		}
		for _, i := range lists {
			if !hits[i] {
				hits[i] = true
				need--
			}
		}
		return need == 0
	}
	if len(k.words) > 0 {
		var buf [64]byte
		for pos := 0; ; {
			tok, kind, next := nextToken(text, pos)
			if kind == tokNone {
				break
			}
			pos = next
			var low []byte
			switch kind {
			case tokURL:
				// Kept whole and case-preserved; never a hashtag.
				if k.may(len(tok), tok[0]) {
					if lists, ok := k.words[tok]; ok && hit(lists) {
						return true
					}
				}
				continue
			case tokASCII:
				if !k.may(len(tok), lowerASCII(tok[0])) && (tok[0] != '#' || !k.may(len(tok)-1, lowerASCII(tok[1]))) {
					continue
				}
				low = appendLowerASCII(buf[:0], tok)
			default:
				// Full Unicode lower-casing (İ, the Kelvin sign, …)
				// exactly as Tokenize folds it, which can change the
				// token's length.
				low = appendLower(buf[:0], tok)
			}
			if k.may(len(low), low[0]) {
				if lists, ok := k.words[string(low)]; ok && hit(lists) {
					return true
				}
			}
			if low[0] == '#' && k.may(len(low)-1, low[1]) {
				if lists, ok := k.words[string(low[1:])]; ok && hit(lists) {
					return true
				}
			}
		}
	}
	if len(k.phrases) == 0 {
		return false
	}
	var lowerText string
	for _, p := range k.phrases {
		if hits != nil && allHit(hits, p.lists) {
			continue
		}
		if lowerText == "" {
			lowerText = strings.ToLower(text)
		}
		if strings.Contains(lowerText, p.text) && hit(p.lists) {
			return true
		}
	}
	return false
}

// may reports whether some single word is n bytes long and starts with
// the byte c: a token that fails it needs no map probe.
func (k *Keywords) may(n int, c byte) bool {
	return k.lens&lenBit(n) != 0 && k.first[c>>6]&(1<<(c&63)) != 0
}

func allHit(hits []bool, lists []int32) bool {
	for _, i := range lists {
		if !hits[i] {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// appendLowerASCII appends the ASCII token with its A–Z folded.
func appendLowerASCII(dst []byte, tok string) []byte {
	for i := 0; i < len(tok); i++ {
		dst = append(dst, lowerASCII(tok[i]))
	}
	return dst
}

// appendLower appends strings.ToLower(tok) without building a string:
// every rune through unicode.ToLower, an invalid byte becoming U+FFFD
// like the RuneError it decodes to.
func appendLower(dst []byte, tok string) []byte {
	for i := 0; i < len(tok); {
		r, n := utf8.DecodeRuneInString(tok[i:])
		i += n
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}
