package assoc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"indice/internal/parallel"
)

// This file keeps the pre-rewrite miner as an oracle: transactions held as
// sorted []Item, support counted by comparing attribute and value strings
// (containsAll), every ordering done on rendered string keys. The interned
// tidset miner must return exactly what it returns, in the same order.

// oracleMiner is the old Miner. With exhaustive set it counts every
// combination of observed items instead of the pruned candidates: the
// unpruned Apriori the pruned miner must match.
type oracleMiner struct {
	txs        []Itemset
	n          int
	exhaustive bool
}

func newOracleMiner(txs []Transaction) *oracleMiner {
	m := &oracleMiner{txs: make([]Itemset, len(txs)), n: len(txs)}
	for i, t := range txs {
		m.txs[i] = canon(t)
	}
	return m
}

func less(a, b Item) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	return a.Value < b.Value
}

// canon sorts and deduplicates a copy of the items.
func canon(items []Item) Itemset {
	out := append(Itemset(nil), items...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	dedup := out[:0]
	for i, it := range out {
		if i > 0 && it == out[i-1] {
			continue
		}
		dedup = append(dedup, it)
	}
	return dedup
}

// FrequentItemsets is the pre-rewrite Apriori: it returns every itemset with support ≥
// cfg.MinSupport, sorted by (length, support desc, key).
func (m *oracleMiner) FrequentItemsets(cfg MiningConfig) ([]FrequentItemset, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("assoc: min support %v out of (0,1]", cfg.MinSupport)
	}
	maxLen := cfg.MaxLen
	if maxLen <= 0 {
		maxLen = 4
	}
	minCount := int(math.Ceil(cfg.MinSupport * float64(m.n)))
	if minCount < 1 {
		minCount = 1
	}

	// L1: frequent single items, counted over transaction chunks.
	type l1Part struct {
		counts    map[string]int
		itemByKey map[string]Item
	}
	l1 := parallel.ChunkReduce(len(m.txs), cfg.Parallelism,
		l1Part{counts: make(map[string]int), itemByKey: make(map[string]Item)},
		func(start, end int) l1Part {
			p := l1Part{counts: make(map[string]int), itemByKey: make(map[string]Item)}
			for _, tx := range m.txs[start:end] {
				for _, it := range tx {
					k := it.String()
					p.counts[k]++
					p.itemByKey[k] = it
				}
			}
			return p
		},
		func(acc, part l1Part) l1Part {
			if len(acc.counts) == 0 {
				return part
			}
			for k, c := range part.counts {
				acc.counts[k] += c
				acc.itemByKey[k] = part.itemByKey[k]
			}
			return acc
		})
	counts, itemByKey := l1.counts, l1.itemByKey
	var level []Itemset
	levelCounts := make(map[string]int)
	for k, c := range counts {
		if c >= minCount {
			is := Itemset{itemByKey[k]}
			level = append(level, is)
			levelCounts[is.key()] = c
		}
	}
	sortItemsets(level)

	var result []FrequentItemset
	appendLevel := func(sets []Itemset, counts map[string]int) {
		for _, s := range sets {
			c := counts[s.key()]
			result = append(result, FrequentItemset{
				Items:   s,
				Count:   c,
				Support: float64(c) / float64(m.n),
			})
		}
	}
	appendLevel(level, levelCounts)

	for length := 2; length <= maxLen && len(level) > 0; length++ {
		var candidates []Itemset
		if m.exhaustive {
			candidates = m.allCandidates(length)
		} else {
			candidates = oracleJoinAndPrune(level)
		}
		if len(candidates) == 0 {
			break
		}
		keys := make([]string, len(candidates))
		for i, c := range candidates {
			keys[i] = c.key()
		}
		// Support counting is the Apriori hot loop: transactions partition
		// into chunks, each chunk counts into its own candidate-indexed
		// slice, and the integer merges are exact regardless of chunking.
		candCounts := parallel.ChunkReduce(len(m.txs), cfg.Parallelism,
			make([]int, len(candidates)),
			func(start, end int) []int {
				part := make([]int, len(candidates))
				for _, tx := range m.txs[start:end] {
					if len(tx) < length {
						continue
					}
					for i, c := range candidates {
						if containsAll(tx, c) {
							part[i]++
						}
					}
				}
				return part
			},
			func(acc, part []int) []int {
				if len(acc) == 0 {
					return part
				}
				for i, c := range part {
					acc[i] += c
				}
				return acc
			})
		var next []Itemset
		nextCounts := make(map[string]int)
		for i, c := range candidates {
			if candCounts[i] >= minCount {
				next = append(next, c)
				nextCounts[keys[i]] = candCounts[i]
			}
		}
		sortItemsets(next)
		appendLevel(next, nextCounts)
		level = next
	}

	sort.Slice(result, func(i, j int) bool {
		if len(result[i].Items) != len(result[j].Items) {
			return len(result[i].Items) < len(result[j].Items)
		}
		if result[i].Support != result[j].Support {
			return result[i].Support > result[j].Support
		}
		return result[i].Items.key() < result[j].Items.key()
	})
	return result, nil
}

// oracleJoinAndPrune generates length k+1 candidates from the frequent level-k
// itemsets using the classic Apriori join (shared k-1 prefix) and prunes
// candidates with an infrequent k-subset (anti-monotonicity). Candidates
// pairing two values of the same attribute are impossible in one
// transaction and are dropped immediately.
func oracleJoinAndPrune(level []Itemset) []Itemset {
	freq := make(map[string]bool, len(level))
	for _, s := range level {
		freq[s.key()] = true
	}
	var out []Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			k := len(a)
			// Join condition: identical first k-1 items.
			match := true
			for x := 0; x < k-1; x++ {
				if a[x] != b[x] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			last1, last2 := a[k-1], b[k-1]
			if last1.Attr == last2.Attr {
				continue // same attribute twice: unsatisfiable
			}
			cand := append(append(Itemset(nil), a...), last2)
			sort.Slice(cand, func(x, y int) bool { return less(cand[x], cand[y]) })
			// Prune: all k-subsets must be frequent.
			ok := true
			sub := make(Itemset, k)
			for drop := 0; drop <= k; drop++ {
				sub = sub[:0]
				for x := 0; x <= k; x++ {
					if x != drop {
						sub = append(sub, cand[x])
					}
				}
				if !freq[sub.key()] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, cand)
			}
		}
	}
	sortItemsets(out)
	// Deduplicate (the join can produce the same candidate twice).
	dedup := out[:0]
	var prev string
	for _, c := range out {
		k := c.key()
		if k == prev {
			continue
		}
		dedup = append(dedup, c)
		prev = k
	}
	return dedup
}

// allCandidates enumerates every length-k combination of observed items
// with distinct attributes: the unpruned baseline.
func (m *oracleMiner) allCandidates(k int) []Itemset {
	seen := make(map[string]Item)
	for _, tx := range m.txs {
		for _, it := range tx {
			seen[it.String()] = it
		}
	}
	items := make([]Item, 0, len(seen))
	for _, it := range seen {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return less(items[i], items[j]) })

	var out []Itemset
	var rec func(start int, cur Itemset)
	rec = func(start int, cur Itemset) {
		if len(cur) == k {
			out = append(out, append(Itemset(nil), cur...))
			return
		}
		for i := start; i < len(items); i++ {
			dup := false
			for _, c := range cur {
				if c.Attr == items[i].Attr {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, nil)
	return out
}

// containsAll reports whether the sorted transaction tx contains every
// item of the sorted itemset s.
func containsAll(tx, s Itemset) bool {
	i := 0
	for _, want := range s {
		for i < len(tx) && less(tx[i], want) {
			i++
		}
		if i >= len(tx) || tx[i] != want {
			return false
		}
		i++
	}
	return true
}

func sortItemsets(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].key() < sets[j].key() })
}

// randomTransactions draws transactions over attrs attributes with up to
// values values each. Attribute names are chosen so that the canonical
// (attribute, value) order and the rendered-key order disagree ("a" sorts
// before "a1" as an attribute, but "a1=x" sorts before "a=x" as a key).
// Some transactions are empty, some repeat an item.
func randomTransactions(rng *rand.Rand, n, attrs, values int) []Transaction {
	txs := make([]Transaction, n)
	for i := range txs {
		if rng.Intn(10) == 0 {
			continue // empty transaction
		}
		for a := 0; a < attrs; a++ {
			if rng.Intn(4) == 0 {
				continue
			}
			name := "a"
			if a > 0 {
				name = fmt.Sprintf("a%d", a)
			}
			// A skewed draw keeps some values frequent at any support.
			v := rng.Intn(values)
			if rng.Intn(2) == 0 {
				v = 0
			}
			it := Item{Attr: name, Value: fmt.Sprintf("v%d", v)}
			txs[i] = append(txs[i], it)
			if rng.Intn(8) == 0 {
				txs[i] = append(txs[i], it) // duplicate within the transaction
			}
		}
		rng.Shuffle(len(txs[i]), func(x, y int) { txs[i][x], txs[i][y] = txs[i][y], txs[i][x] })
	}
	return txs
}

func TestMinerMatchesStringOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ n, attrs, values int }{
		{1, 3, 2},
		{63, 4, 3}, {64, 4, 3}, {65, 4, 3}, // tidset word boundaries
		{500, 6, 4},
		{700, 12, 9}, // 108 possible items: more than one word of ids
	}
	for _, sh := range shapes {
		txs := randomTransactions(rng, sh.n, sh.attrs, sh.values)
		m, err := NewMiner(txs)
		if err != nil {
			t.Fatal(err)
		}
		if sh.attrs*sh.values > 64 && len(m.items) <= 64 {
			t.Fatalf("shape %+v interned only %d items, want more than 64", sh, len(m.items))
		}
		oracle := newOracleMiner(txs)
		for _, tc := range []struct {
			cfg        MiningConfig
			exhaustive bool
		}{
			{cfg: MiningConfig{MinSupport: 0.02, MaxLen: 3}},
			{cfg: MiningConfig{MinSupport: 0.1}},
			{cfg: MiningConfig{MinSupport: 0.3, MaxLen: 2, Parallelism: 4}},
			{cfg: MiningConfig{MinSupport: 0.05, MaxLen: 3}, exhaustive: true},
			{cfg: MiningConfig{MinSupport: 1}},
		} {
			if tc.exhaustive && sh.attrs > 6 {
				continue // the exhaustive variant is cubic in the items
			}
			cfg := tc.cfg
			oracle.exhaustive = tc.exhaustive
			want, err := oracle.FrequentItemsets(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.FrequentItemsets(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("shape %+v cfg %+v: Apriori returned %d itemsets, oracle %d (or another order)", sh, cfg, len(got), len(want))
			}
			if tc.exhaustive {
				continue
			}
			wantRules, _ := m.Rules(want, RuleConfig{MinConfidence: 0.3})
			gotRules, _ := m.Rules(got, RuleConfig{MinConfidence: 0.3})
			if !reflect.DeepEqual(gotRules, wantRules) {
				t.Fatalf("shape %+v cfg %+v: rules differ", sh, cfg)
			}
		}
	}
}

// TestMinerSupportMatchesContainsAll checks the popcount support of
// arbitrary itemsets (not only the frequent ones) against the string
// subset test.
func TestMinerSupportMatchesContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	txs := randomTransactions(rng, 333, 8, 5)
	m, _ := NewMiner(txs)
	oracle := newOracleMiner(txs)
	for trial := 0; trial < 500; trial++ {
		var s idset
		for id := range m.items {
			if rng.Intn(len(m.items)/3+1) == 0 {
				s = append(s, int32(id))
			}
		}
		if len(s) == 0 {
			continue
		}
		set := make(Itemset, len(s))
		for i, id := range s {
			set[i] = m.items[id]
		}
		want := 0
		for _, tx := range oracle.txs {
			if containsAll(tx, set) {
				want++
			}
		}
		if got := m.support(s); got != want {
			t.Fatalf("support(%v) = %d, want %d", set, got, want)
		}
	}
}
