package assoc

import (
	"cmp"
	"slices"
)

// FP-Growth: the pattern-growth alternative to Apriori, added under the
// paper's future-work plan of integrating further analytics techniques.
// It produces exactly the same frequent itemsets (property-tested against
// Apriori) without candidate generation, and wins on dense collections
// like discretized EPC attributes.

// fpNode is one node of an FP-tree.
type fpNode struct {
	item     int // item id; -1 at the root
	count    int
	parent   *fpNode
	children map[int]*fpNode
	next     *fpNode // header-list chaining
}

// fpTree is an FP-tree with its header table.
type fpTree struct {
	root    *fpNode
	headers map[int]*fpNode // item id -> first node in the chain
	counts  map[int]int     // item id -> total count in this tree
}

func newFPTree() *fpTree {
	return &fpTree{
		root:    &fpNode{item: -1, children: make(map[int]*fpNode)},
		headers: make(map[int]*fpNode),
		counts:  make(map[int]int),
	}
}

// insert adds a (sorted) transaction with the given count.
func (t *fpTree) insert(items []int, count int) {
	cur := t.root
	for _, it := range items {
		child, ok := cur.children[it]
		if !ok {
			child = &fpNode{item: it, parent: cur, children: make(map[int]*fpNode)}
			cur.children[it] = child
			// Chain into the header list.
			child.next = t.headers[it]
			t.headers[it] = child
		}
		child.count += count
		t.counts[it] += count
		cur = child
	}
}

// FrequentItemsetsFP mines the same frequent itemsets as FrequentItemsets
// using FP-Growth. The result ordering matches FrequentItemsets.
func (m *Miner) FrequentItemsetsFP(cfg MiningConfig) ([]FrequentItemset, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, errFPSupport(cfg.MinSupport)
	}
	maxLen := cfg.MaxLen
	if maxLen <= 0 {
		maxLen = 4
	}
	minCount := m.minCount(cfg.MinSupport)

	// Frequency-descending item order (ties by id for determinism);
	// infrequent items are dropped up front.
	counts := make([]int, len(m.items))
	var order []int
	for id := range m.items {
		counts[id] = m.support(idset{int32(id)})
		if counts[id] >= minCount {
			order = append(order, id)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(counts[b], counts[a]) })
	rank := make(map[int]int, len(order))
	for r, id := range order {
		rank[id] = r
	}

	// Build the global tree: each transaction's frequent items in rank
	// order, read off the tidsets.
	tree := newFPTree()
	buf := make([]int, 0, len(order))
	for t := 0; t < m.n; t++ {
		buf = buf[:0]
		for _, id := range order {
			if m.tids[id][t>>6]>>(t&63)&1 != 0 {
				buf = append(buf, id)
			}
		}
		if len(buf) > 0 {
			tree.insert(buf, 1)
		}
	}

	var sets []idset
	var setCounts []int
	var mine func(t *fpTree, suffix []int)
	mine = func(t *fpTree, suffix []int) {
		// Items in this (conditional) tree, processed in reverse rank
		// order so prefixes stay consistent.
		ids := make([]int, 0, len(t.counts))
		for id, c := range t.counts {
			if c >= minCount {
				ids = append(ids, id)
			}
		}
		slices.SortFunc(ids, func(a, b int) int { return cmp.Compare(rank[b], rank[a]) })
		for _, id := range ids {
			pattern := append(append([]int(nil), suffix...), id)
			if len(pattern) > maxLen {
				continue
			}
			// Emit the pattern.
			set := make(idset, len(pattern))
			for i, pid := range pattern {
				set[i] = int32(pid)
			}
			slices.Sort(set)
			sets = append(sets, set)
			setCounts = append(setCounts, t.counts[id])
			if len(pattern) == maxLen {
				continue
			}
			// Conditional tree of the prefix paths above id.
			cond := newFPTree()
			path := make([]int, 0, 16)
			for node := t.headers[id]; node != nil; node = node.next {
				path = path[:0]
				for p := node.parent; p != nil && p.item != -1; p = p.parent {
					path = append(path, p.item)
				}
				// path is leaf→root; reverse into rank order.
				for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
					path[l], path[r] = path[r], path[l]
				}
				if len(path) > 0 {
					cond.insert(path, node.count)
				}
			}
			mine(cond, pattern)
		}
	}
	mine(tree, nil)
	return m.frequent(sets, setCounts), nil
}

type errFPSupport float64

func (e errFPSupport) Error() string {
	return "assoc: min support out of (0,1]"
}
