package assoc_test

import (
	"fmt"

	"indice/internal/assoc"
)

func ExampleMiner_Rules() {
	// Three discretized certificates: poor windows always come with high
	// heating demand.
	uw := []string{"High", "High", "Low"}
	eph := []string{"High", "High", "Low"}
	m, _ := assoc.NewMinerRows(len(uw), func(t int, add func(assoc.Item)) {
		add(assoc.Item{Attr: "uw", Value: uw[t]})
		add(assoc.Item{Attr: "eph", Value: eph[t]})
	})
	frequent, _ := m.FrequentItemsets(assoc.MiningConfig{MinSupport: 0.5})
	rules, _ := m.Rules(frequent, assoc.RuleConfig{MinConfidence: 0.9, MaxConsequentLen: 1})
	for _, r := range rules {
		fmt.Println(r)
	}
	// Output:
	// {eph=High} -> {uw=High} (sup=0.667 conf=1.000 lift=1.50 conv=+Inf)
	// {uw=High} -> {eph=High} (sup=0.667 conf=1.000 lift=1.50 conv=+Inf)
}
