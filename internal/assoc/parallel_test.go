package assoc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// synthTxs builds a deterministic transactional dataset with planted
// co-occurrence structure so several itemset levels survive the support
// threshold.
func synthTxs(n int, seed int64) []Transaction {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]Transaction, n)
	for i := range txs {
		cls := rng.Intn(3)
		txs[i] = Transaction{
			{Attr: "u_windows", Value: fmt.Sprintf("c%d", cls)},
			{Attr: "u_opaque", Value: fmt.Sprintf("c%d", (cls+rng.Intn(2))%3)},
			{Attr: "etah", Value: fmt.Sprintf("c%d", rng.Intn(3))},
			{Attr: "eph", Value: fmt.Sprintf("c%d", cls)},
		}
		if rng.Intn(4) == 0 {
			txs[i] = append(txs[i], Item{Attr: "era", Value: fmt.Sprintf("e%d", rng.Intn(2))})
		}
	}
	return txs
}

// TestFrequentItemsetsParallelEquivalence verifies that partitioned
// support counting returns exactly the sequential itemsets: counts are
// integers, so the merge is exact at every worker count.
func TestFrequentItemsetsParallelEquivalence(t *testing.T) {
	m, err := NewMiner(synthTxs(2000, 17))
	if err != nil {
		t.Fatal(err)
	}
	base := MiningConfig{MinSupport: 0.02, MaxLen: 3}
	want, err := m.FrequentItemsets(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture mined no itemsets")
	}
	for _, p := range []int{2, 3, 8, 64} {
		cfg := base
		cfg.Parallelism = p
		got, err := m.FrequentItemsets(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d itemsets, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i].Items.key() != want[i].Items.key() || got[i].Count != want[i].Count {
				t.Fatalf("parallelism %d: itemset %d = %v (%d), want %v (%d)",
					p, i, got[i].Items, got[i].Count, want[i].Items, want[i].Count)
			}
		}
	}
}

// TestRulesFromParallelMiningEquivalence runs the full mine-then-rules
// pipeline at both ends of the parallelism range.
func TestRulesFromParallelMiningEquivalence(t *testing.T) {
	m, err := NewMiner(synthTxs(1500, 41))
	if err != nil {
		t.Fatal(err)
	}
	rcfg := RuleConfig{MinConfidence: 0.5, MinLift: 1.05, MaxConsequentLen: 1}
	seqSets, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.02, MaxLen: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqRules, err := m.Rules(seqSets, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	parSets, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.02, MaxLen: 3, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	parRules, err := m.Rules(parSets, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRules) == 0 {
		t.Fatal("fixture mined no rules")
	}
	if len(parRules) != len(seqRules) {
		t.Fatalf("parallel mined %d rules, sequential %d", len(parRules), len(seqRules))
	}
	for i := range seqRules {
		if seqRules[i].String() != parRules[i].String() {
			t.Fatalf("rule %d diverges: %v != %v", i, parRules[i], seqRules[i])
		}
	}
}

// TestRowBuiltMinerMatchesTheTransactionList builds miners with
// NewMinerRows — each row's items added in a shuffled order, some twice,
// a few rows empty — and compares them with the vertical form read off
// the transaction list directly: the same canonically ordered items, and
// each item's tidset bit for bit.
func TestRowBuiltMinerMatchesTheTransactionList(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		txs := synthTxs(130+37*int(seed), seed)
		txs[3], txs[len(txs)-1] = nil, nil
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMinerRows(len(txs), func(tr int, add func(Item)) {
			for _, j := range rng.Perm(len(txs[tr])) {
				add(txs[tr][j])
			}
			if len(txs[tr]) > 0 && rng.Intn(3) == 0 {
				add(txs[tr][0])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		words := (len(txs) + 63) / 64
		tids := make(map[Item][]uint64)
		for tr, tx := range txs {
			for _, it := range tx {
				if tids[it] == nil {
					tids[it] = make([]uint64, words)
				}
				tids[it][tr>>6] |= 1 << (tr & 63)
			}
		}
		var items []Item
		for it := range tids {
			items = append(items, it)
		}
		slices.SortFunc(items, compareItems)
		if m.n != len(txs) || !slices.Equal(m.items, items) {
			t.Fatalf("seed %d: %d transactions, items %v; want %d, %v", seed, m.n, m.items, len(txs), items)
		}
		for id, it := range items {
			if !slices.Equal(m.tids[id], tids[it]) {
				t.Fatalf("seed %d: tidset of %v differs", seed, it)
			}
		}
	}
	if _, err := NewMinerRows(0, func(int, func(Item)) {}); err == nil {
		t.Fatal("a miner over no transactions was built")
	}
}
