package textmatch

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The functions below are the pre-rewrite bodies of Candidates, Best and
// Distance, kept as oracles: the dense-counter search, the exact-entry
// shortcut and the buffer-reusing distance must reproduce them exactly.

func oracleNgrams(s string, n int) []string {
	rs := []rune(s)
	if len(rs) == 0 {
		return nil
	}
	padded := make([]rune, 0, len(rs)+2*(n-1))
	for i := 0; i < n-1; i++ {
		padded = append(padded, '\x00')
	}
	padded = append(padded, rs...)
	for i := 0; i < n-1; i++ {
		padded = append(padded, '\x00')
	}
	out := make([]string, 0, len(padded)-n+1)
	for i := 0; i+n <= len(padded); i++ {
		out = append(out, string(padded[i:i+n]))
	}
	return out
}

func oracleCandidates(idx *Index, query string, limit int) []Candidate {
	counts := make(map[int32]int)
	seen := make(map[string]struct{})
	for _, g := range oracleNgrams(query, idx.n) {
		if _, dup := seen[g]; dup {
			continue
		}
		seen[g] = struct{}{}
		for _, id := range idx.grams[g] {
			counts[id]++
		}
	}
	out := make([]Candidate, 0, len(counts))
	for id, c := range counts {
		out = append(out, Candidate{ID: int(id), Entry: idx.entries[id], Shared: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shared != out[j].Shared {
			return out[i].Shared > out[j].Shared
		}
		return out[i].ID < out[j].ID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func oracleDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	if la < lb {
		ra, rb = rb, ra
		la, lb = lb, la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		ai := ra[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ai == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if ins := cur[j-1] + 1; ins < m {
				m = ins
			}
			if sub := prev[j-1] + cost; sub < m {
				m = sub
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func oracleSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	max := la
	if lb > max {
		max = lb
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(oracleDistance(a, b))/float64(max)
}

func oracleBest(idx *Index, query string, beamWidth int) (Match, bool) {
	cands := oracleCandidates(idx, query, beamWidth)
	if len(cands) == 0 {
		return Match{}, false
	}
	best := Match{ID: -1, Similarity: -1}
	for _, c := range cands {
		s := oracleSimilarity(query, c.Entry)
		if s > best.Similarity || (s == best.Similarity && c.ID < best.ID) {
			best = Match{ID: c.ID, Entry: c.Entry, Similarity: s}
		}
	}
	return best, true
}

// randomWord draws from a small alphabet with multi-byte runes, a NUL and
// an invalid UTF-8 byte, so grams repeat, collide with the padding and
// exercise the U+FFFD path.
func randomWord(rng *rand.Rand, maxLen int) string {
	alphabet := []string{"a", "b", "c", "a", "b", " ", "é", "ß", "\x00", "\xff", "日"}
	n := rng.Intn(maxLen + 1)
	s := ""
	for i := 0; i < n; i++ {
		s += alphabet[rng.Intn(len(alphabet))]
	}
	return s
}

func TestSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 3, 4} {
		entries := make([]string, 300)
		for i := range entries {
			entries[i] = randomWord(rng, 9)
		}
		// Duplicated entries tie on every count and on similarity.
		entries[17], entries[250] = entries[3], entries[3]
		idx := NewIndex(n, entries)
		queries := append([]string{"", "a", entries[3], entries[40], entries[299]}, streetCorpus()...)
		for i := 0; i < 400; i++ {
			queries = append(queries, randomWord(rng, 12))
		}
		for _, q := range queries {
			for _, beam := range []int{1, 2, 32, 0, -1} {
				got, want := idx.Candidates(q, beam), oracleCandidates(idx, q, beam)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("n=%d Candidates(%q, %d):\n got %v\nwant %v", n, q, beam, got, want)
				}
				gm, gok := idx.Best(q, beam)
				wm, wok := oracleBest(idx, q, beam)
				if gm != wm || gok != wok {
					t.Fatalf("n=%d Best(%q, %d) = %+v %v, want %+v %v", n, q, beam, gm, gok, wm, wok)
				}
			}
		}
	}
}

func TestDistanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		a, b := randomWord(rng, 14), randomWord(rng, 14)
		if got, want := Distance(a, b), oracleDistance(a, b); got != want {
			t.Fatalf("Distance(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got, want := Similarity(a, b), oracleSimilarity(a, b); got != want {
			t.Fatalf("Similarity(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
}

// TestIndexConcurrentSearches pins the read-only contract the cleaner's
// parallel match phase relies on (run under -race).
func TestIndexConcurrentSearches(t *testing.T) {
	idx := NewIndex(3, streetCorpus())
	queries := []string{"via rona", "piaza castello", "via po", "corso duca abruzzi", "zzz"}
	want := make([]Match, len(queries))
	for i, q := range queries {
		want[i], _ = idx.Best(q, 4)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				for i, q := range queries {
					if got, _ := idx.Best(q, 4); got != want[i] {
						t.Errorf("Best(%q) = %+v, want %+v", q, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
