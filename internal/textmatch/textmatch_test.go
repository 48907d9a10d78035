package textmatch

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"via roma", "via roma", 0},
		{"via roma", "via rona", 1},
		{"corso duca", "corso ducca", 1},
		{"gatto", "gattò", 1}, // rune-aware
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			return true
		}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceIdentityProperty(t *testing.T) {
	f := func(a string) bool {
		return Distance(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity("", ""); s != 1 {
		t.Fatalf("empty similarity = %v", s)
	}
	if s := Similarity("abc", "abc"); s != 1 {
		t.Fatalf("equal similarity = %v", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Fatalf("disjoint similarity = %v", s)
	}
	// One substitution over 8 runes.
	if s := Similarity("via roma", "via rona"); s != 1-1.0/8 {
		t.Fatalf("similarity = %v", s)
	}
}

func TestSimilarityRangeProperty(t *testing.T) {
	f := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeAddress(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Via Roma, 12", "via roma 12"},
		{"C.so Vittorio Emanuele II", "corso vittorio emanuele ii"},
		{"P.za   Castello", "piazza castello"},
		{"VIA G. VERDI", "via g verdi"},
		{"Città di Torino", "citta di torino"},
		{"v.le dei Tigli", "viale dei tigli"},
		{"Str. del Fortino", "strada del fortino"},
		{"", ""},
	}
	for _, c := range cases {
		if got := NormalizeAddress(c.in); got != c.want {
			t.Errorf("NormalizeAddress(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		once := NormalizeAddress(s)
		return NormalizeAddress(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitHouseNumber(t *testing.T) {
	cases := []struct {
		in, street, hn string
	}{
		{"via roma 12", "via roma", "12"},
		{"via roma 12b", "via roma", "12b"},
		{"via roma", "via roma", ""},
		{"corso duca degli abruzzi 24", "corso duca degli abruzzi", "24"},
		{"", "", ""},
		{"42", "42", ""}, // single token is a street, not a civic
	}
	for _, c := range cases {
		s, h := SplitHouseNumber(c.in)
		if s != c.street || h != c.hn {
			t.Errorf("SplitHouseNumber(%q) = %q, %q; want %q, %q", c.in, s, h, c.street, c.hn)
		}
	}
}

func streetCorpus() []string {
	return []string{
		"via roma",
		"via garibaldi",
		"corso vittorio emanuele ii",
		"corso duca degli abruzzi",
		"piazza castello",
		"piazza san carlo",
		"via po",
		"via nizza",
		"viale dei tigli",
		"largo montebello",
	}
}

func TestIndexBestFindsExact(t *testing.T) {
	idx := NewIndex(3, streetCorpus())
	m, ok := idx.Best("via roma", 10)
	if !ok {
		t.Fatal("no match")
	}
	if m.Entry != "via roma" || m.Similarity != 1 {
		t.Fatalf("match = %+v", m)
	}
}

func TestIndexBestHandlesTypos(t *testing.T) {
	idx := NewIndex(3, streetCorpus())
	queries := map[string]string{
		"via rona":                  "via roma",
		"corso vitorio emanuele ii": "corso vittorio emanuele ii",
		"piaza castello":            "piazza castello",
		"via garibladi":             "via garibaldi",
	}
	for q, want := range queries {
		m, ok := idx.Best(q, 10)
		if !ok {
			t.Fatalf("Best(%q): no match", q)
		}
		if m.Entry != want {
			t.Errorf("Best(%q) = %q, want %q", q, m.Entry, want)
		}
	}
}

func TestIndexEmpty(t *testing.T) {
	idx := NewIndex(3, nil)
	if _, ok := idx.Best("anything", 5); ok {
		t.Fatal("empty index returned a match")
	}
	if got := idx.Candidates("x", 5); len(got) != 0 {
		t.Fatalf("candidates = %v", got)
	}
}

func TestIndexCandidatesOrdering(t *testing.T) {
	idx := NewIndex(2, []string{"abcd", "abxy", "zzzz"})
	cands := idx.Candidates("abcd", 0)
	if len(cands) < 2 {
		t.Fatalf("candidates = %v", cands)
	}
	if cands[0].Entry != "abcd" {
		t.Fatalf("top candidate = %+v", cands[0])
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Shared > cands[i-1].Shared {
			t.Fatalf("not sorted: %v", cands)
		}
	}
}

func TestIndexBeamMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := streetCorpus()
	idx := NewIndex(3, corpus)
	letters := "abcdefghijklmnopqrstuvwxyz"
	for trial := 0; trial < 100; trial++ {
		base := corpus[rng.Intn(len(corpus))]
		// Mutate one character.
		rs := []rune(base)
		pos := rng.Intn(len(rs))
		rs[pos] = rune(letters[rng.Intn(len(letters))])
		q := string(rs)
		beam, ok1 := idx.Best(q, len(corpus))
		exact, ok2 := idx.BestExhaustive(q)
		if !ok1 || !ok2 {
			t.Fatalf("no match for %q", q)
		}
		if beam.Similarity < exact.Similarity {
			t.Errorf("beam found %q (%.3f), exhaustive %q (%.3f) for query %q",
				beam.Entry, beam.Similarity, exact.Entry, exact.Similarity, q)
		}
	}
}

func TestNgrams(t *testing.T) {
	gs := ngrams("ab", 2)
	// padded: \x00 a b \x00 -> {"\x00a", "ab", "b\x00"}
	if len(gs) != 3 {
		t.Fatalf("ngrams = %q", gs)
	}
	if ngrams("", 2) != nil {
		t.Fatal("empty string should yield nil grams")
	}
}

func BenchmarkDistance(b *testing.B) {
	a := "corso vittorio emanuele ii 112"
	c := "corso vitorio emanuelle ii 112"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(a, c)
	}
}

func BenchmarkIndexBest(b *testing.B) {
	// A corpus the size of a city street registry.
	rng := rand.New(rand.NewSource(9))
	base := streetCorpus()
	corpus := make([]string, 0, 5000)
	for i := 0; i < 5000; i++ {
		corpus = append(corpus, base[i%len(base)]+" "+strings.Repeat("x", rng.Intn(4))+string(rune('a'+i%26)))
	}
	idx := NewIndex(3, corpus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Best("via roma xc", 32)
	}
}

func BenchmarkBestExhaustive(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	base := streetCorpus()
	corpus := make([]string, 0, 5000)
	for i := 0; i < 5000; i++ {
		corpus = append(corpus, base[i%len(base)]+" "+strings.Repeat("x", rng.Intn(4))+string(rune('a'+i%26)))
	}
	idx := NewIndex(3, corpus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.BestExhaustive("via roma xc")
	}
}

// Distance returns the Levenshtein edit distance between a and b: the
// minimum number of single-rune insertions, deletions and substitutions
// needed to transform a into b.
func Distance(a, b string) int {
	l := levBufs.Get().(*levBuf)
	defer levBufs.Put(l)
	return l.distance(l.decode(a, b))
}

// Candidate is one blocking-index hit.
type Candidate struct {
	ID     int    // index into the entry list
	Entry  string // the reference string
	Shared int    // number of shared n-grams with the query
}

// Candidates returns up to limit entries sharing the most n-grams with
// query, sorted by descending shared count (ties by ascending ID for
// determinism). A non-positive limit means no truncation.
func (idx *Index) Candidates(query string, limit int) []Candidate {
	s := idx.scratch.Get().(*searchScratch)
	defer idx.scratch.Put(s)
	hits := idx.search(s, query, limit)
	out := make([]Candidate, len(hits))
	for i, h := range hits {
		out[i] = Candidate{ID: int(h.id), Entry: idx.entries[h.id], Shared: int(h.shared)}
	}
	return out
}
