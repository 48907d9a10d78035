package textmatch

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"unicode/utf8"
)

// Index is an n-gram blocking index over a set of reference strings. It
// retrieves, for a query string, the reference entries sharing at least one
// n-gram, ranked by shared-gram count, so the expensive Levenshtein
// comparison runs on a short candidate list instead of the whole street
// map. This is the ablation counterpart to the exhaustive scan benchmarked
// in E2.
//
// An Index is immutable after NewIndex and safe for concurrent searches:
// every search borrows its working memory from a pool.
type Index struct {
	n       int
	entries []string
	runes   [][]rune           // entries decoded once, for the edit distance
	grams   map[string][]int32 // n-gram -> sorted entry ids
	scratch sync.Pool          // *searchScratch
}

// searchScratch is the working memory of one search. counts is dense over
// the entries and all zero between searches: a search resets exactly the
// cells it touched.
type searchScratch struct {
	counts  []int32
	touched []int32
	hits    []hit
	grams   gramBuf
	lev     levBuf
}

// hit is one entry sharing grams with the query.
type hit struct {
	id     int32
	shared int32
}

// compareHits orders hits best first: more shared grams first, ties by
// ascending id.
func compareHits(a, b hit) int {
	if a.shared != b.shared {
		return cmp.Compare(b.shared, a.shared)
	}
	return cmp.Compare(a.id, b.id)
}

// NewIndex builds an n-gram index (n ≥ 2) over the given entries. Entries
// are stored as provided; callers normalize beforehand.
func NewIndex(n int, entries []string) *Index {
	if n < 2 {
		n = 2
	}
	idx := &Index{
		n:       n,
		entries: append([]string(nil), entries...),
		runes:   make([][]rune, len(entries)),
		grams:   make(map[string][]int32),
	}
	for i, e := range idx.entries {
		idx.runes[i] = []rune(e)
		seen := make(map[string]struct{})
		for _, g := range ngrams(e, n) {
			if _, dup := seen[g]; dup {
				continue
			}
			seen[g] = struct{}{}
			idx.grams[g] = append(idx.grams[g], int32(i))
		}
	}
	idx.scratch.New = func() any {
		return &searchScratch{counts: make([]int32, len(idx.entries))}
	}
	return idx
}

// Len returns the number of indexed entries.
func (idx *Index) Len() int { return len(idx.entries) }

// gramBuf holds the padded UTF-8 form of one string and the byte offset
// of each of its runes, so gram i is the byte window text[offs[i]:offs[i+n]]
// and looking it up in a map needs no string of its own.
type gramBuf struct {
	text []byte
	offs []int
}

// load pads s with n-1 '\x00' sentinels on both sides — they make prefixes
// and suffixes discriminative — and returns the number of n-grams. Invalid
// UTF-8 decodes to U+FFFD, as []rune(s) does.
func (g *gramBuf) load(s string, n int) int {
	g.text, g.offs = g.text[:0], g.offs[:0]
	if s == "" {
		return 0
	}
	pad := func() {
		for i := 0; i < n-1; i++ {
			g.offs = append(g.offs, len(g.text))
			g.text = append(g.text, 0)
		}
	}
	pad()
	for _, r := range s {
		g.offs = append(g.offs, len(g.text))
		g.text = utf8.AppendRune(g.text, r)
	}
	pad()
	g.offs = append(g.offs, len(g.text))
	return len(g.offs) - n
}

// gram returns the i-th n-gram's bytes.
func (g *gramBuf) gram(i, n int) []byte { return g.text[g.offs[i]:g.offs[i+n]] }

// ngrams returns the padded character n-grams of s.
func ngrams(s string, n int) []string {
	var g gramBuf
	count := g.load(s, n)
	if count == 0 {
		return nil
	}
	out := make([]string, count)
	for i := range out {
		out[i] = string(g.gram(i, n))
	}
	return out
}

// search counts, per entry, the distinct query grams it shares, and
// returns the top limit hits, best first (compareHits): descending shared
// count, ties by ascending id. A non-positive limit means no truncation.
// The result aliases s.
func (idx *Index) search(s *searchScratch, query string, limit int) []hit {
	ngram := s.grams.load(query, idx.n)
	s.touched = s.touched[:0]
	for i := 0; i < ngram; i++ {
		g := s.grams.gram(i, idx.n)
		// A gram repeated in the query counts once. Queries are a few
		// dozen grams, so looking back beats keeping a set.
		dup := false
		for j := 0; j < i && !dup; j++ {
			dup = bytes.Equal(s.grams.gram(j, idx.n), g)
		}
		if dup {
			continue
		}
		for _, id := range idx.grams[string(g)] {
			if s.counts[id] == 0 {
				s.touched = append(s.touched, id)
			}
			s.counts[id]++
		}
	}

	// Keep the best limit hits in a min-heap whose root is the worst hit
	// kept, so most entries cost one comparison; then order the survivors.
	s.hits = s.hits[:0]
	for _, id := range s.touched {
		h := hit{id: id, shared: s.counts[id]}
		s.counts[id] = 0
		switch {
		case limit <= 0 || len(s.hits) < limit:
			s.hits = append(s.hits, h)
			if len(s.hits) == limit {
				for i := limit/2 - 1; i >= 0; i-- {
					siftDown(s.hits, i)
				}
			}
		case compareHits(h, s.hits[0]) < 0:
			s.hits[0] = h
			siftDown(s.hits, 0)
		}
	}
	slices.SortFunc(s.hits, compareHits)
	return s.hits
}

// siftDown restores the heap property below i: every parent compares
// after (is a worse hit than) its children.
func siftDown(h []hit, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if compareHits(h[worst], h[c]) < 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Match is the result of a best-match search.
type Match struct {
	ID         int
	Entry      string
	Similarity float64
}

// Best returns the indexed entry with the highest Levenshtein similarity
// to query, searching only the top beamWidth blocking candidates. The
// boolean is false when the index is empty or no candidate shares any
// n-gram with the query. Ties prefer the lower entry ID.
func (idx *Index) Best(query string, beamWidth int) (Match, bool) {
	s := idx.scratch.Get().(*searchScratch)
	defer idx.scratch.Put(s)
	hits := idx.search(s, query, beamWidth)
	if len(hits) == 0 {
		return Match{}, false
	}
	// A candidate equal to the query has similarity 1, which nothing
	// exceeds; equal entries tie on shared grams, so the first one in
	// candidate order is the lowest id. No distance needs computing.
	for _, h := range hits {
		if idx.entries[h.id] == query {
			return Match{ID: int(h.id), Entry: idx.entries[h.id], Similarity: 1}, true
		}
	}
	q, _ := s.lev.decode(query, "")
	best := Match{ID: -1, Similarity: -1}
	for _, h := range hits {
		sim := s.lev.similarity(q, idx.runes[h.id])
		if sim > best.Similarity || (sim == best.Similarity && int(h.id) < best.ID) {
			best = Match{ID: int(h.id), Entry: idx.entries[h.id], Similarity: sim}
		}
	}
	return best, true
}

// BestExhaustive scans every indexed entry and returns the one with the
// highest Levenshtein similarity to query. It is the reference
// implementation the blocking index is validated and benchmarked against.
func (idx *Index) BestExhaustive(query string) (Match, bool) {
	if len(idx.entries) == 0 {
		return Match{}, false
	}
	best := Match{ID: -1, Similarity: -1}
	for i, e := range idx.entries {
		s := Similarity(query, e)
		if s > best.Similarity {
			best = Match{ID: i, Entry: e, Similarity: s}
		}
	}
	return best, true
}
