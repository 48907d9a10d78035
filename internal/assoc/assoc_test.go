package assoc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// marketData builds the classic structured basket: uw=High strongly
// implies eph=High; other attributes are noise.
func marketData(seed int64, n int) []Transaction {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]Transaction, 0, n)
	for i := 0; i < n; i++ {
		uw := "Low"
		if rng.Float64() < 0.4 {
			uw = "High"
		}
		eph := "Low"
		if uw == "High" {
			if rng.Float64() < 0.9 {
				eph = "High"
			}
		} else if rng.Float64() < 0.15 {
			eph = "High"
		}
		era := []string{"old", "mid", "new"}[rng.Intn(3)]
		txs = append(txs, Transaction{
			{Attr: "uw", Value: uw},
			{Attr: "eph", Value: eph},
			{Attr: "era", Value: era},
		})
	}
	return txs
}

func TestMinerValidation(t *testing.T) {
	if _, err := NewMiner(nil); err == nil {
		t.Fatal("want error for no transactions")
	}
	m, err := NewMiner([]Transaction{{{Attr: "a", Value: "1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.n != 1 {
		t.Fatalf("N = %d", m.n)
	}
}

func TestFrequentItemsetsSmall(t *testing.T) {
	txs := []Transaction{
		{{Attr: "a", Value: "1"}, {Attr: "b", Value: "1"}},
		{{Attr: "a", Value: "1"}, {Attr: "b", Value: "1"}},
		{{Attr: "a", Value: "1"}, {Attr: "b", Value: "2"}},
		{{Attr: "a", Value: "2"}, {Attr: "b", Value: "1"}},
	}
	m, _ := NewMiner(txs)
	fs, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bySupport := map[string]float64{}
	for _, f := range fs {
		bySupport[f.Items.String()] = f.Support
	}
	if bySupport["{a=1}"] != 0.75 {
		t.Fatalf("support(a=1) = %v", bySupport["{a=1}"])
	}
	if bySupport["{b=1}"] != 0.75 {
		t.Fatalf("support(b=1) = %v", bySupport["{b=1}"])
	}
	if bySupport["{a=1, b=1}"] != 0.5 {
		t.Fatalf("support(a=1,b=1) = %v; sets=%v", bySupport["{a=1, b=1}"], bySupport)
	}
	// a=2 (support .25) must be absent.
	if _, ok := bySupport["{a=2}"]; ok {
		t.Fatal("infrequent itemset reported")
	}
}

func TestFrequentItemsetsConfigErrors(t *testing.T) {
	m, _ := NewMiner(marketData(1, 50))
	if _, err := m.FrequentItemsets(MiningConfig{MinSupport: 0}); err == nil {
		t.Fatal("want error for zero support")
	}
	if _, err := m.FrequentItemsets(MiningConfig{MinSupport: 1.5}); err == nil {
		t.Fatal("want error for support > 1")
	}
}

func TestAntiMonotonicityProperty(t *testing.T) {
	// Every subset of a frequent itemset is frequent with at least the
	// same support.
	m, _ := NewMiner(marketData(2, 300))
	fs, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.05, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	sup := map[string]float64{}
	for _, f := range fs {
		sup[f.Items.key()] = f.Support
	}
	for _, f := range fs {
		if len(f.Items) < 2 {
			continue
		}
		for drop := range f.Items {
			sub := append(Itemset(nil), f.Items[:drop]...)
			sub = append(sub, f.Items[drop+1:]...)
			s, ok := sup[sub.key()]
			if !ok {
				t.Fatalf("subset %v of frequent %v missing", sub, f.Items)
			}
			if s < f.Support-1e-12 {
				t.Fatalf("subset %v support %v < superset %v", sub, s, f.Support)
			}
		}
	}
}

func TestPrunedMatchesUnprunedProperty(t *testing.T) {
	f := func(seed int64) bool {
		txs := marketData(seed, 80)
		m, _ := NewMiner(txs)
		a, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.1, MaxLen: 3})
		if err != nil {
			return false
		}
		oracle := newOracleMiner(txs)
		oracle.exhaustive = true
		b, err := oracle.FrequentItemsets(MiningConfig{MinSupport: 0.1, MaxLen: 3})
		if err != nil {
			return false
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Items.key() != b[i].Items.key() || a[i].Count != b[i].Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRulesQualityIndices(t *testing.T) {
	// Deterministic dataset with a known exact rule.
	txs := []Transaction{
		{{Attr: "a", Value: "x"}, {Attr: "b", Value: "y"}},
		{{Attr: "a", Value: "x"}, {Attr: "b", Value: "y"}},
		{{Attr: "a", Value: "x"}, {Attr: "b", Value: "y"}},
		{{Attr: "a", Value: "z"}, {Attr: "b", Value: "y"}},
		{{Attr: "a", Value: "z"}, {Attr: "b", Value: "w"}},
	}
	m, _ := NewMiner(txs)
	fs, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := m.Rules(fs, RuleConfig{MinConfidence: 0.5, MaxConsequentLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	var axby *Rule
	for i := range rules {
		if rules[i].Antecedent.String() == "{a=x}" && rules[i].Consequent.String() == "{b=y}" {
			axby = &rules[i]
		}
	}
	if axby == nil {
		t.Fatalf("rule a=x -> b=y not found in %v", rules)
	}
	if math.Abs(axby.Support-0.6) > 1e-12 {
		t.Fatalf("support = %v", axby.Support)
	}
	if axby.Confidence != 1 {
		t.Fatalf("confidence = %v", axby.Confidence)
	}
	if math.Abs(axby.Lift-1.25) > 1e-12 { // 1 / 0.8
		t.Fatalf("lift = %v", axby.Lift)
	}
	if !math.IsInf(axby.Conviction, 1) {
		t.Fatalf("conviction = %v, want +Inf for exact rule", axby.Conviction)
	}
}

func TestRulesConstraints(t *testing.T) {
	m, _ := NewMiner(marketData(3, 500))
	fs, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.05, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := m.Rules(fs, RuleConfig{MinConfidence: 0.7, MinLift: 1.2, MaxConsequentLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules found")
	}
	for _, r := range rules {
		if r.Confidence < 0.7 || r.Lift < 1.2 {
			t.Fatalf("rule violates constraints: %v", r)
		}
		if len(r.Consequent) != 1 {
			t.Fatalf("consequent too long: %v", r)
		}
	}
	// The planted implication must surface.
	found := false
	for _, r := range rules {
		if strings.Contains(r.Antecedent.String(), "uw=High") &&
			strings.Contains(r.Consequent.String(), "eph=High") {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted rule missing from %v", rules)
	}
}

func TestRulesSortedByLift(t *testing.T) {
	m, _ := NewMiner(marketData(4, 400))
	fs, _ := m.FrequentItemsets(MiningConfig{MinSupport: 0.05, MaxLen: 3})
	rules, err := m.Rules(fs, RuleConfig{MinConfidence: 0.3, MaxConsequentLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Lift > rules[i-1].Lift+1e-12 {
			t.Fatalf("rules not sorted by lift at %d", i)
		}
	}
}

func TestTopK(t *testing.T) {
	m, _ := NewMiner(marketData(5, 400))
	fs, _ := m.FrequentItemsets(MiningConfig{MinSupport: 0.05, MaxLen: 3})
	rules, _ := m.Rules(fs, RuleConfig{MinConfidence: 0.2, MaxConsequentLen: 1})
	if len(rules) < 5 {
		t.Fatalf("need several rules, got %d", len(rules))
	}
	top3 := TopK(rules, ByConfidence, 3)
	if len(top3) != 3 {
		t.Fatalf("topk = %d", len(top3))
	}
	for i := 1; i < len(top3); i++ {
		if top3[i].Confidence > top3[i-1].Confidence {
			t.Fatal("topk not sorted")
		}
	}
	all := TopK(rules, BySupport, 0)
	if len(all) != len(rules) {
		t.Fatalf("k<=0 should return all")
	}
	// The input slice must not be reordered.
	for i := 1; i < len(rules); i++ {
		if rules[i].Lift > rules[i-1].Lift+1e-12 {
			t.Fatal("TopK mutated its input")
		}
	}
}

func TestTemplateFilter(t *testing.T) {
	m, _ := NewMiner(marketData(6, 400))
	fs, _ := m.FrequentItemsets(MiningConfig{MinSupport: 0.05, MaxLen: 3})
	rules, _ := m.Rules(fs, RuleConfig{MinConfidence: 0.2, MaxConsequentLen: 1})
	tpl := Template{ConsequentAttrs: []string{"eph"}}
	got := tpl.Filter(rules)
	if len(got) == 0 {
		t.Fatal("template matched nothing")
	}
	for _, r := range got {
		for _, it := range r.Consequent {
			if it.Attr != "eph" {
				t.Fatalf("rule leaked through template: %v", r)
			}
		}
	}
	both := Template{AntecedentAttrs: []string{"uw"}, ConsequentAttrs: []string{"eph"}}
	for _, r := range both.Filter(rules) {
		if r.Antecedent[0].Attr != "uw" {
			t.Fatalf("antecedent template violated: %v", r)
		}
	}
}

func TestFormatTable(t *testing.T) {
	m, _ := NewMiner(marketData(7, 200))
	fs, _ := m.FrequentItemsets(MiningConfig{MinSupport: 0.1, MaxLen: 2})
	rules, _ := m.Rules(fs, RuleConfig{MinConfidence: 0.5, MaxConsequentLen: 1})
	out := FormatTable(TopK(rules, ByLift, 5))
	if !strings.Contains(out, "ANTECEDENT") || !strings.Contains(out, "LIFT") {
		t.Fatalf("table header missing:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 2 {
		t.Fatalf("table has no rows:\n%s", out)
	}
}

func TestCanonDeduplicates(t *testing.T) {
	tx := Transaction{
		{Attr: "b", Value: "2"},
		{Attr: "a", Value: "1"},
		{Attr: "a", Value: "1"},
	}
	got := canon(tx)
	if len(got) != 2 || got[0].Attr != "a" || got[1].Attr != "b" {
		t.Fatalf("canon = %v", got)
	}
}

func TestContainsAll(t *testing.T) {
	tx := canon(Transaction{
		{Attr: "a", Value: "1"}, {Attr: "b", Value: "2"}, {Attr: "c", Value: "3"},
	})
	if !containsAll(tx, canon(Transaction{{Attr: "a", Value: "1"}, {Attr: "c", Value: "3"}})) {
		t.Fatal("subset not found")
	}
	if containsAll(tx, canon(Transaction{{Attr: "a", Value: "9"}})) {
		t.Fatal("false positive")
	}
}

func BenchmarkFrequentItemsets(b *testing.B) {
	txs := marketData(8, 25000)
	m, _ := NewMiner(txs)
	cfg := MiningConfig{MinSupport: 0.05, MaxLen: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.FrequentItemsets(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRuleQualityInvariantsProperty(t *testing.T) {
	// For every generated rule A -> B over any dataset:
	//   support(A∪B) <= min(support(A), support(B))
	//   confidence = support(A∪B)/support(A) in (0, 1]
	//   lift = confidence / support(B)
	//   conviction >= 0, +Inf iff confidence == 1
	f := func(seed int64) bool {
		txs := marketData(seed, 150)
		m, _ := NewMiner(txs)
		fs, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.05, MaxLen: 3})
		if err != nil {
			return false
		}
		sup := map[string]float64{}
		for _, fi := range fs {
			sup[fi.Items.key()] = fi.Support
		}
		rules, err := m.Rules(fs, RuleConfig{MinConfidence: 0.1, MaxConsequentLen: 1})
		if err != nil {
			return false
		}
		for _, r := range rules {
			supA := sup[r.Antecedent.key()]
			supB := sup[r.Consequent.key()]
			if r.Support > supA+1e-12 || r.Support > supB+1e-12 {
				return false
			}
			if r.Confidence <= 0 || r.Confidence > 1+1e-12 {
				return false
			}
			if math.Abs(r.Confidence-r.Support/supA) > 1e-9 {
				return false
			}
			if math.Abs(r.Lift-r.Confidence/supB) > 1e-9 {
				return false
			}
			if math.IsInf(r.Conviction, 1) != (r.Confidence == 1) {
				return false
			}
			if !math.IsInf(r.Conviction, 1) && r.Conviction < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRulesAntecedentConsequentDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		m, _ := NewMiner(marketData(seed, 100))
		fs, err := m.FrequentItemsets(MiningConfig{MinSupport: 0.08, MaxLen: 3})
		if err != nil {
			return false
		}
		rules, err := m.Rules(fs, RuleConfig{MinConfidence: 0.1, MaxConsequentLen: 2})
		if err != nil {
			return false
		}
		for _, r := range rules {
			if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
				return false
			}
			seen := map[Item]bool{}
			for _, it := range r.Antecedent {
				seen[it] = true
			}
			for _, it := range r.Consequent {
				if seen[it] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
