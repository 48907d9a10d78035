package assoc

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Rule is an association rule A → B with its quality indices.
type Rule struct {
	Antecedent Itemset
	Consequent Itemset
	// Support is the fraction of transactions containing A ∪ B.
	Support float64
	// Confidence is P(B|A).
	Confidence float64
	// Lift is confidence / P(B); 1 means independence.
	Lift float64
	// Conviction is (1-P(B)) / (1-confidence); +Inf for exact rules.
	Conviction float64
	// Count is the absolute support count.
	Count int
}

// String renders the rule with its indices.
func (r Rule) String() string {
	return fmt.Sprintf("%s -> %s (sup=%.3f conf=%.3f lift=%.2f conv=%.2f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift, r.Conviction)
}

// RuleConfig filters generated rules on the paper's indices: support is
// inherited from mining, confidence and lift get a minimum here (a zero
// value disables it), and conviction is reported, never filtered on.
type RuleConfig struct {
	MinConfidence float64
	MinLift       float64
	// MaxConsequentLen bounds the consequent size (default 1, the
	// template INDICE uses for readable tabular rules).
	MaxConsequentLen int
}

// Rules generates every rule A → B with A ∪ B frequent, A, B non-empty
// and disjoint, that satisfies the configured constraints. The frequent
// itemsets must come from FrequentItemsets on the same miner.
func (m *Miner) Rules(frequent []FrequentItemset, cfg RuleConfig) ([]Rule, error) {
	if cfg.MaxConsequentLen <= 0 {
		cfg.MaxConsequentLen = 1
	}
	supByKey := make(map[string]float64, len(frequent))
	countByKey := make(map[string]int, len(frequent))
	for _, f := range frequent {
		supByKey[f.Items.key()] = f.Support
		countByKey[f.Items.key()] = f.Count
	}
	var rules []Rule
	for _, f := range frequent {
		k := len(f.Items)
		if k < 2 {
			continue
		}
		// Enumerate non-empty proper subsets as consequents.
		total := 1 << k
		for mask := 1; mask < total-1; mask++ {
			consLen := popcount(mask)
			if consLen > cfg.MaxConsequentLen {
				continue
			}
			var ante, cons Itemset
			for b := 0; b < k; b++ {
				if mask&(1<<b) != 0 {
					cons = append(cons, f.Items[b])
				} else {
					ante = append(ante, f.Items[b])
				}
			}
			supA, okA := supByKey[ante.key()]
			supB, okB := supByKey[cons.key()]
			if !okA || !okB || supA == 0 {
				// Subsets of a frequent itemset are frequent, so this only
				// happens if the caller passed a foreign itemset list.
				continue
			}
			conf := f.Support / supA
			if conf < cfg.MinConfidence {
				continue
			}
			lift := 0.0
			if supB > 0 {
				lift = conf / supB
			}
			if cfg.MinLift > 0 && lift < cfg.MinLift {
				continue
			}
			conv := math.Inf(1)
			if conf < 1 {
				conv = (1 - supB) / (1 - conf)
			}
			rules = append(rules, Rule{
				Antecedent: ante,
				Consequent: cons,
				Support:    f.Support,
				Confidence: conf,
				Lift:       lift,
				Conviction: conv,
				Count:      countByKey[f.Items.key()],
			})
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Lift != rules[j].Lift {
			return rules[i].Lift > rules[j].Lift
		}
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		return ruleKey(rules[i]) < ruleKey(rules[j])
	})
	return rules, nil
}

func ruleKey(r Rule) string {
	return r.Antecedent.key() + "->" + r.Consequent.key()
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// SortBy identifies a quality index for ranking.
type SortBy string

// Rule ranking keys.
const (
	BySupport    SortBy = "support"
	ByConfidence SortBy = "confidence"
	ByLift       SortBy = "lift"
	ByConviction SortBy = "conviction"
)

// TopK returns the k best rules under the given index (descending), ties
// broken deterministically. k ≤ 0 returns all rules sorted.
func TopK(rules []Rule, by SortBy, k int) []Rule {
	out := append([]Rule(nil), rules...)
	val := func(r Rule) float64 {
		switch by {
		case BySupport:
			return r.Support
		case ByConfidence:
			return r.Confidence
		case ByConviction:
			return r.Conviction
		default:
			return r.Lift
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi, vj := val(out[i]), val(out[j])
		if vi != vj {
			// NaN never occurs; +Inf conviction sorts first as intended.
			return vi > vj
		}
		return ruleKey(out[i]) < ruleKey(out[j])
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Template restricts rules by attribute position, implementing the
// INDICE rule templates ("to characterize the attributes"): a rule
// matches when its consequent attributes are all in ConsequentAttrs (if
// non-empty) and its antecedent attributes are all in AntecedentAttrs
// (if non-empty).
type Template struct {
	AntecedentAttrs []string
	ConsequentAttrs []string
}

// Match reports whether the rule satisfies the template.
func (t Template) Match(r Rule) bool {
	if len(t.ConsequentAttrs) > 0 {
		for _, it := range r.Consequent {
			if !contains(t.ConsequentAttrs, it.Attr) {
				return false
			}
		}
	}
	if len(t.AntecedentAttrs) > 0 {
		for _, it := range r.Antecedent {
			if !contains(t.AntecedentAttrs, it.Attr) {
				return false
			}
		}
	}
	return true
}

// Filter returns the rules matching the template.
func (t Template) Filter(rules []Rule) []Rule {
	var out []Rule
	for _, r := range rules {
		if t.Match(r) {
			out = append(out, r)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// FormatTable renders rules as the fixed-width tabular visualization the
// dashboard embeds.
func FormatTable(rules []Rule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-58s %-28s %8s %8s %8s %8s\n", "ANTECEDENT", "CONSEQUENT", "SUP", "CONF", "LIFT", "CONV")
	for _, r := range rules {
		conv := fmt.Sprintf("%8.2f", r.Conviction)
		if math.IsInf(r.Conviction, 1) {
			conv = "     inf"
		}
		fmt.Fprintf(&b, "%-58s %-28s %8.3f %8.3f %8.2f %s\n",
			r.Antecedent.String(), r.Consequent.String(), r.Support, r.Confidence, r.Lift, conv)
	}
	return b.String()
}
