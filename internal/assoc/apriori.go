// Package assoc implements the association-rule discovery of the INDICE
// analytics engine (§2.2.2): Apriori frequent-itemset mining over the
// discretized EPC attributes, rule generation, and the four quality
// indices the paper filters on — support, confidence, lift and conviction.
package assoc

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"indice/internal/parallel"
)

// Item is one attribute=value pair of a transactional row.
type Item struct {
	Attr  string
	Value string
}

// String renders the item as attr=value.
func (it Item) String() string { return it.Attr + "=" + it.Value }

// Itemset is a canonical (sorted, deduplicated) set of items.
type Itemset []Item

// key renders a canonical string key for map indexing.
func (s Itemset) key() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.String()
	}
	return strings.Join(parts, "\x00")
}

// String renders the itemset as {a=x, b=y}.
func (s Itemset) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// compareItems is the canonical item order: by attribute, then value.
func compareItems(a, b Item) int {
	if c := cmp.Compare(a.Attr, b.Attr); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// FrequentItemset pairs an itemset with its support count.
type FrequentItemset struct {
	Items   Itemset
	Count   int
	Support float64
}

// MiningConfig bounds the Apriori search.
type MiningConfig struct {
	// MinSupport is the minimum itemset support in [0,1].
	MinSupport float64
	// MaxLen bounds itemset length (default 4: antecedent up to 3 items
	// plus a consequent).
	MaxLen int
	// Parallelism bounds the worker goroutines of the support-counting
	// passes, which fan out over the candidates of a level. 0 or 1 run
	// sequentially; counts are exact, so the mined itemsets are identical
	// at any setting.
	Parallelism int
}

// Miner holds a transactional dataset ready for mining, in vertical form:
// the distinct items are interned to dense ids in canonical order, and
// each item keeps its tidset — one bit per transaction. An itemset is a
// sorted list of ids and its support count is the popcount of the AND of
// its items' tidsets, so mining never compares a string. Memory is
// (distinct items) × ⌈N/64⌉ words, whatever the transactions' lengths.
type Miner struct {
	n     int
	items []Item     // distinct items in compareItems order; the index is the id
	tids  [][]uint64 // tids[id]: bit t is set when transaction t holds the item
}

// idset is an itemset as ascending item ids.
type idset []int32

// NewMinerRows interns the items of n transactions and builds their
// tidsets without a list of the transactions: row(t, add) calls add once
// per item of transaction t, and each item goes straight into its tidset.
// The items of one transaction must have distinct attributes (one value
// per attribute); an item added twice to a transaction counts once, and
// a transaction with no items counts toward N but supports nothing.
func NewMinerRows(n int, row func(t int, add func(Item))) (*Miner, error) {
	if n == 0 {
		return nil, errors.New("assoc: no transactions")
	}
	words := (n + 63) / 64
	ids := make(map[Item]int)
	var items []Item
	var tids [][]uint64
	var t int
	add := func(it Item) {
		id, ok := ids[it]
		if !ok {
			id = len(items)
			ids[it] = id
			items = append(items, it)
			tids = append(tids, make([]uint64, words))
		}
		tids[id][t>>6] |= 1 << (t & 63)
	}
	for t = 0; t < n; t++ {
		row(t, add)
	}
	// Renumber from first-seen to canonical order.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return compareItems(items[a], items[b]) })
	m := &Miner{n: n, items: make([]Item, len(items)), tids: make([][]uint64, len(items))}
	for id, seen := range order {
		m.items[id], m.tids[id] = items[seen], tids[seen]
	}
	return m, nil
}

// support counts the transactions holding every item of s.
func (m *Miner) support(s idset) int {
	n := 0
	for w, x := range m.tids[s[0]] {
		for _, id := range s[1:] {
			x &= m.tids[id][w]
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// minCount converts a support threshold into the smallest qualifying
// count, shared by both miners so they agree on borderline supports.
func (m *Miner) minCount(minSupport float64) int {
	c := int(math.Ceil(minSupport * float64(m.n)))
	if c < 1 {
		c = 1
	}
	return c
}

// FrequentItemsets runs Apriori and returns every itemset with support ≥
// cfg.MinSupport, sorted by (length, support desc, key).
func (m *Miner) FrequentItemsets(cfg MiningConfig) ([]FrequentItemset, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("assoc: min support %v out of (0,1]", cfg.MinSupport)
	}
	maxLen := cfg.MaxLen
	if maxLen <= 0 {
		maxLen = 4
	}
	minCount := m.minCount(cfg.MinSupport)

	var sets []idset
	var counts []int
	// keepFrequent counts the candidates, fanned out over the workers,
	// appends those reaching minCount to the result and returns them as
	// the next level (candidate order is kept, so a sorted candidate list
	// yields a sorted level).
	keepFrequent := func(cands []idset) []idset {
		supports := parallel.Map(len(cands), cfg.Parallelism, func(i int) int { return m.support(cands[i]) })
		var level []idset
		for i, c := range supports {
			if c >= minCount {
				level = append(level, cands[i])
				sets = append(sets, cands[i])
				counts = append(counts, c)
			}
		}
		return level
	}

	singles := make([]idset, len(m.items))
	for i := range singles {
		singles[i] = idset{int32(i)}
	}
	level := keepFrequent(singles)
	for length := 2; length <= maxLen && len(level) > 0; length++ {
		candidates := m.joinAndPrune(level)
		if len(candidates) == 0 {
			break
		}
		level = keepFrequent(candidates)
	}
	return m.frequent(sets, counts), nil
}

// frequent renders mined (idset, count) pairs as the public result,
// sorted by (length, support desc, key).
func (m *Miner) frequent(sets []idset, counts []int) []FrequentItemset {
	type keyed struct {
		FrequentItemset
		key string
	}
	out := make([]keyed, len(sets))
	for i, s := range sets {
		items := make(Itemset, len(s))
		for j, id := range s {
			items[j] = m.items[id]
		}
		out[i] = keyed{
			FrequentItemset: FrequentItemset{Items: items, Count: counts[i], Support: float64(counts[i]) / float64(m.n)},
			key:             items.key(),
		}
	}
	slices.SortFunc(out, func(a, b keyed) int {
		return cmp.Or(
			cmp.Compare(len(a.Items), len(b.Items)),
			cmp.Compare(b.Count, a.Count),
			cmp.Compare(a.key, b.key),
		)
	})
	result := make([]FrequentItemset, len(out))
	for i, k := range out {
		result[i] = k.FrequentItemset
	}
	return result
}

// joinAndPrune generates length k+1 candidates from the frequent level-k
// itemsets using the classic Apriori join (shared k-1 prefix) and prunes
// candidates with an infrequent k-subset (anti-monotonicity). Candidates
// pairing two values of the same attribute are impossible in one
// transaction and are dropped immediately. The level is sorted, so the
// itemsets sharing a prefix are adjacent and the candidates come out
// sorted and distinct.
func (m *Miner) joinAndPrune(level []idset) []idset {
	var out []idset
	k := len(level[0])
	sub := make(idset, k)
	for i, a := range level {
		for _, b := range level[i+1:] {
			if !slices.Equal(a[:k-1], b[:k-1]) {
				break
			}
			if m.items[a[k-1]].Attr == m.items[b[k-1]].Attr {
				continue // same attribute twice: unsatisfiable
			}
			cand := append(append(make(idset, 0, k+1), a...), b[k-1])
			// Prune: all k-subsets must be frequent. Dropping either of
			// the last two items gives back a or b.
			ok := true
			for drop := 0; drop < k-1 && ok; drop++ {
				sub = append(append(sub[:0], cand[:drop]...), cand[drop+1:]...)
				_, ok = slices.BinarySearchFunc(level, sub, slices.Compare[idset])
			}
			if ok {
				out = append(out, cand)
			}
		}
	}
	return out
}
