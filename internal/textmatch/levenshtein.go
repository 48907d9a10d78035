// Package textmatch implements the string-reconciliation substrate of the
// INDICE geospatial cleaning step: Levenshtein edit distance, the
// normalized similarity in [0,1] the paper thresholds with ϕ, address
// normalization for Italian street toponyms, and an n-gram blocking index
// that retrieves candidate referenced addresses without scanning the whole
// street map.
package textmatch

import (
	"strings"
	"sync"
	"unicode"
)

// levBuf is the reusable working memory of the edit distance: the two
// decoded strings and one row of the dynamic program.
type levBuf struct {
	a, b []rune
	row  []int
}

// levBufs backs the package-level Distance and Similarity; an Index
// search carries its own levBuf in its scratch instead.
var levBufs = sync.Pool{New: func() any { return new(levBuf) }}

// decode fills the buffer's two strings and returns them.
func (l *levBuf) decode(a, b string) ([]rune, []rune) {
	l.a, l.b = appendRunes(l.a[:0], a), appendRunes(l.b[:0], b)
	return l.a, l.b
}

func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// distance is the Levenshtein distance between two decoded strings.
func (l *levBuf) distance(ra, rb []rune) int {
	// Keep the shorter string on the column axis to minimize the row.
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	lb := len(rb)
	if lb == 0 {
		return len(ra)
	}
	if cap(l.row) < lb+1 {
		l.row = make([]int, lb+1)
	}
	// row[j] holds the previous row's cell until column j is rewritten;
	// diag carries the previous row's cell of column j-1.
	row := l.row[:lb+1]
	for j := range row {
		row[j] = j
	}
	for i, ai := range ra {
		diag := row[0]
		row[0] = i + 1
		for j := 1; j <= lb; j++ {
			m := diag
			if ai != rb[j-1] {
				m++
			}
			if del := row[j] + 1; del < m {
				m = del
			}
			if ins := row[j-1] + 1; ins < m {
				m = ins
			}
			diag, row[j] = row[j], m
		}
	}
	return row[lb]
}

// similarity is the normalized similarity of two decoded strings.
func (l *levBuf) similarity(ra, rb []rune) float64 {
	max := len(ra)
	if len(rb) > max {
		max = len(rb)
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(l.distance(ra, rb))/float64(max)
}

// Similarity returns the normalized Levenshtein similarity between a and b,
// in [0,1]: 1 - distance/max(len(a), len(b)). Identical strings score 1,
// totally dissimilar strings score 0, exactly as §2.1.1 of the paper
// defines the measure compared against the user threshold ϕ. Two empty
// strings are defined to have similarity 1.
func Similarity(a, b string) float64 {
	l := levBufs.Get().(*levBuf)
	defer levBufs.Put(l)
	return l.similarity(l.decode(a, b))
}

// abbreviations maps common Italian odonym abbreviations to their expanded
// forms; NormalizeAddress applies them token-wise after casefolding.
var abbreviations = map[string]string{
	"c.so":  "corso",
	"cso":   "corso",
	"v.":    "via",
	"v.le":  "viale",
	"vle":   "viale",
	"p.za":  "piazza",
	"p.zza": "piazza",
	"pza":   "piazza",
	"pzza":  "piazza",
	"l.go":  "largo",
	"lgo":   "largo",
	"str.":  "strada",
	"s.":    "san",
	"ss.":   "santi",
	"f.lli": "fratelli",
}

// NormalizeAddress canonicalizes a free-text address for matching:
// casefold, strip accents commonly found in Italian toponyms, expand
// odonym abbreviations, collapse punctuation and whitespace runs.
func NormalizeAddress(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch r {
		case 'à', 'á', 'â':
			b.WriteRune('a')
		case 'è', 'é', 'ê':
			b.WriteRune('e')
		case 'ì', 'í', 'î':
			b.WriteRune('i')
		case 'ò', 'ó', 'ô':
			b.WriteRune('o')
		case 'ù', 'ú', 'û':
			b.WriteRune('u')
		case ',', ';', '/', '\\', '-', '_', '\'', '"':
			b.WriteRune(' ')
		default:
			b.WriteRune(r)
		}
	}
	tokens := strings.Fields(b.String())
	out := make([]string, 0, len(tokens))
	for _, tok := range tokens {
		if exp, ok := abbreviations[tok]; ok {
			tok = exp
		} else {
			// "via." -> "via": trailing dot after a word is noise.
			tok = strings.TrimRight(tok, ".")
			if exp, ok := abbreviations[tok]; ok {
				tok = exp
			}
		}
		if tok != "" {
			out = append(out, tok)
		}
	}
	return strings.Join(out, " ")
}

// SplitHouseNumber separates a normalized address into its street part and
// a trailing house-number token ("via roma 12/b" -> "via roma", "12b").
// When no trailing number exists the house number is empty.
func SplitHouseNumber(addr string) (street, houseNumber string) {
	tokens := strings.Fields(addr)
	if len(tokens) == 0 {
		return "", ""
	}
	last := tokens[len(tokens)-1]
	hasDigit := false
	for _, r := range last {
		if unicode.IsDigit(r) {
			hasDigit = true
			break
		}
	}
	if !hasDigit || len(tokens) == 1 {
		return addr, ""
	}
	var hn strings.Builder
	for _, r := range last {
		if unicode.IsDigit(r) || unicode.IsLetter(r) {
			hn.WriteRune(r)
		}
	}
	return strings.Join(tokens[:len(tokens)-1], " "), hn.String()
}
