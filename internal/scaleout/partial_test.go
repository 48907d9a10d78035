package scaleout

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"indice/internal/store"
	"indice/internal/table"
)

// partialSchema has two numeric attributes and a grouping column whose
// validity is deliberately spotty, so NULL-heavy groups (groups where an
// attribute has few or zero valid cells) are exercised.
var partialSchema = []table.Field{
	{Name: "id", Type: table.String},
	{Name: "g", Type: table.String},
	{Name: "x", Type: table.Float64},
	{Name: "y", Type: table.Float64},
}

// partialRows builds n rows. Group g4 is NULL-heavy: x is almost never
// valid there, and y never is — its merged means must come only from
// the legs that actually saw valid cells.
func partialRows(t testing.TB, rng *rand.Rand, n int) *table.Table {
	t.Helper()
	tab, err := table.NewWithSchema(partialSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g := fmt.Sprintf("g%d", rng.Intn(5))
		xValid := rng.Intn(8) != 0
		yValid := rng.Intn(3) != 0
		if g == "g4" {
			xValid = rng.Intn(50) == 0
			yValid = false
		}
		cells := []table.Cell{
			{Str: fmt.Sprintf("id-%06d", i), Valid: true},
			{Str: g, Valid: rng.Intn(10) != 0}, // invalid group cells bucket under ""
			{Float: rng.NormFloat64()*50 + 120, Valid: xValid},
			{Float: rng.ExpFloat64() * 3, Valid: yValid},
		}
		if err := tab.AppendRow(cells); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// sameAccum compares a merged accumulator with the single-pass one, bit
// for bit: the count, the extrema, every rank statistic (sketch bucketing
// is deterministic) and the sum, mean and standard deviation (the sums are
// exact, so merging rounds nothing).
func sameAccum(got, want *table.AggAccum) error {
	if got.Count() != want.Count() {
		return fmt.Errorf("count %d, want %d", got.Count(), want.Count())
	}
	if got.Count() == 0 {
		return nil
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.S.Min, want.S.Min) || !same(got.S.Max, want.S.Max) {
		return fmt.Errorf("extrema [%v, %v], want [%v, %v]", got.S.Min, got.S.Max, want.S.Min, want.S.Max)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		if g, w := got.S.Quantile(q), want.S.Quantile(q); !same(g, w) {
			return fmt.Errorf("quantile(%v) = %v, want %v", q, g, w)
		}
	}
	if !same(got.Sum(), want.Sum()) || !same(got.Mean(), want.Mean()) || !same(got.StdDev(), want.StdDev()) {
		return fmt.Errorf("sum %v mean %v sd %v, want %v, %v, %v", got.Sum(), got.Mean(), got.StdDev(), want.Sum(), want.Mean(), want.StdDev())
	}
	return nil
}

// renderResult prints what an answer renders of an aggregate, each float
// by its bits, so that two compare by value whatever digits their exact
// sums carry.
func renderResult(res *store.AggResult) string {
	var b strings.Builder
	acc := func(a *table.AggAccum) {
		fmt.Fprintf(&b, " %d", a.Count())
		for _, v := range []float64{a.Sum(), a.Mean(), a.StdDev(), a.S.Min, a.S.Max, a.S.Quantile(0.25), a.S.Quantile(0.5), a.S.Quantile(0.75)} {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
	}
	fmt.Fprintf(&b, "matched %d;", res.Matched)
	for k := range res.Totals {
		acc(&res.Totals[k])
	}
	for _, g := range res.Groups {
		fmt.Fprintf(&b, "; %q %d", g.Key, g.Rows)
		for k := range g.Attrs {
			acc(&g.Attrs[k])
		}
	}
	return b.String()
}

// sameResult compares a merged answer with the row-wise single pass.
func sameResult(got *store.AggResult, rows int, wantTotals []table.AggAccum, wantGroups []*table.GroupAccum) error {
	if got.Matched != rows {
		return fmt.Errorf("matched %d, want %d", got.Matched, rows)
	}
	if len(got.Totals) != len(wantTotals) {
		return fmt.Errorf("%d totals, want %d", len(got.Totals), len(wantTotals))
	}
	for k := range wantTotals {
		if err := sameAccum(&got.Totals[k], &wantTotals[k]); err != nil {
			return fmt.Errorf("totals[%d]: %w", k, err)
		}
	}
	if len(got.Groups) != len(wantGroups) {
		return fmt.Errorf("%d groups, want %d", len(got.Groups), len(wantGroups))
	}
	for i, g := range got.Groups {
		w := wantGroups[i]
		if g.Key != w.Key || g.Rows != w.Rows {
			return fmt.Errorf("group %q/%d, want %q/%d", g.Key, g.Rows, w.Key, w.Rows)
		}
		// NULL-heavy invariant: an attribute with zero valid cells in a
		// group must stay at count 0 (sameAccum compares counts first).
		for k := range w.Attrs {
			if err := sameAccum(&g.Attrs[k], &w.Attrs[k]); err != nil {
				return fmt.Errorf("group %q attr %d: %w", g.Key, k, err)
			}
		}
	}
	return nil
}

// legOf is the partial a replica would answer for one leg's rows,
// computed by the row-wise oracle.
func legOf(t testing.TB, tab *table.Table, spec QuerySpec) *Partial {
	t.Helper()
	totals, groups, err := BuildPartial(tab, spec.Attrs, spec.By)
	if err != nil {
		t.Fatal(err)
	}
	p := &Partial{Epoch: spec.Epoch, StoreRows: tab.NumRows(), Agg: table.AggPartial{Rows: tab.NumRows(), Groups: groups}}
	if spec.By == "" {
		p.Agg.Totals = totals
	}
	return p
}

// TestMergePartialsMatchesSinglePass is the randomized equivalence
// property: for arbitrary row partitions into 1, 2 and 4 legs, the
// coordinator-merged aggregates equal a single pass over all rows —
// counts, extrema and quartiles bitwise, means and deviations within 1e-9
// relative — including group counts and per-group accumulators with
// NULL-heavy groups.
func TestMergePartialsMatchesSinglePass(t *testing.T) {
	for _, by := range []string{"g", ""} {
		spec := QuerySpec{Epoch: 7, Attrs: []string{"x", "y"}, By: by}
		for trial := 0; trial < 5; trial++ {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			whole := partialRows(t, rng, 600+rng.Intn(900))

			wantTotals, wantGroups, err := BuildPartial(whole, spec.Attrs, spec.By)
			if err != nil {
				t.Fatal(err)
			}

			for _, legs := range []int{1, 2, 4} {
				// Arbitrary (not round-robin, not contiguous) partition: each
				// row lands on a random leg, so legs have uneven sizes and
				// some may miss entire groups.
				assign := make([][]int, legs)
				for i := 0; i < whole.NumRows(); i++ {
					l := rng.Intn(legs)
					assign[l] = append(assign[l], i)
				}
				parts := make([]*Partial, legs)
				for l, rows := range assign {
					tab, err := table.NewWithSchema(partialSchema)
					if err != nil {
						t.Fatal(err)
					}
					if err := tab.AppendTaken(whole, rows); err != nil {
						t.Fatal(err)
					}
					parts[l] = legOf(t, tab, spec)
				}

				m, err := MergePartials(spec, parts)
				if err != nil {
					t.Fatal(err)
				}
				if m.StoreRows != whole.NumRows() {
					t.Fatalf("by=%q legs=%d: merged %d store rows, want %d", by, legs, m.StoreRows, whole.NumRows())
				}
				if err := sameResult(m.Agg, whole.NumRows(), wantTotals, wantGroups); err != nil {
					t.Fatalf("by=%q legs=%d: %v", by, legs, err)
				}
			}
		}
	}
}

// TestMergePartialsErrors: a merge of nothing, a leg at another epoch and
// every malformed accumulator shape fail the merge with an error — the
// coordinator answers 502 for them — and never panic.
func TestMergePartialsErrors(t *testing.T) {
	spec := QuerySpec{Epoch: 3, Attrs: []string{"x"}}
	if _, err := MergePartials(spec, nil); err == nil {
		t.Fatal("merge of zero partials succeeded")
	}
	var one table.AggAccum
	one.Observe(1)
	sketchless := one
	sketchless.S = nil
	grouped := QuerySpec{Epoch: 3, Attrs: []string{"x"}, By: "g"}
	for name, tt := range map[string]struct {
		spec QuerySpec
		leg  Partial
	}{
		"other epoch":            {spec, Partial{Epoch: 4, Agg: table.AggPartial{Rows: 1, Totals: []table.AggAccum{one}}}},
		"no accumulators":        {spec, Partial{Epoch: 3, Agg: table.AggPartial{Rows: 1}}},
		"too many accumulators":  {spec, Partial{Epoch: 3, Agg: table.AggPartial{Rows: 1, Totals: []table.AggAccum{one, one}}}},
		"count without a sketch": {spec, Partial{Epoch: 3, Agg: table.AggPartial{Rows: 1, Totals: []table.AggAccum{sketchless}}}},
		"null group":             {grouped, Partial{Epoch: 3, Agg: table.AggPartial{Rows: 1, Groups: []*table.GroupAccum{nil}}}},
		"group accumulators":     {grouped, Partial{Epoch: 3, Agg: table.AggPartial{Rows: 1, Groups: []*table.GroupAccum{{Key: "a", Rows: 1}}}}},
		"group without a sketch": {grouped, Partial{Epoch: 3, Agg: table.AggPartial{Rows: 1, Groups: []*table.GroupAccum{{Key: "a", Rows: 1, Attrs: []table.AggAccum{sketchless}}}}}},
	} {
		good := Partial{Epoch: 3, Agg: table.AggPartial{Rows: 1, Totals: []table.AggAccum{one}}}
		if tt.spec.By != "" {
			good.Agg = table.AggPartial{Rows: 1, Groups: []*table.GroupAccum{{Key: "a", Rows: 1, Attrs: []table.AggAccum{one}}}}
		}
		if _, err := MergePartials(tt.spec, []*Partial{&good}); err != nil {
			t.Fatalf("%s: the well-formed leg alone: %v", name, err)
		}
		leg := tt.leg
		if _, err := MergePartials(tt.spec, []*Partial{&good, &leg}); err == nil {
			t.Errorf("%s: malformed leg merged", name)
		}
	}
}

// TestMergeForwardsEncodedRows: a leg's rows cross the wire and the merge
// as the bytes the replica encoded, in leg order, and a leg answered
// without the field — a stats-only leg, or one that matched nothing —
// still merges.
func TestMergeForwardsEncodedRows(t *testing.T) {
	legs := []string{
		`{"epoch":4,"store_rows":10,"query":"","agg":{"rows":2},"rows":[{"id":"a","x":1.5,"y":null},{"id":"b \u003c\u0026","x":1e-7,"y":2}],"plan":{}}`,
		`{"epoch":4,"store_rows":7,"query":"","agg":{"rows":0},"plan":{}}`,
		`{"epoch":4,"store_rows":5,"query":"","agg":{"rows":1},"rows":[{"id":"c","x":-0,"y":3}],"plan":{}}`,
	}
	parts := make([]*Partial, len(legs))
	for i, leg := range legs {
		parts[i] = new(Partial)
		if err := json.Unmarshal([]byte(leg), parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := MergePartials(QuerySpec{Epoch: 4}, parts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"id":"a","x":1.5,"y":null}`, `{"id":"b \u003c\u0026","x":1e-7,"y":2}`, `{"id":"c","x":-0,"y":3}`}
	if len(m.Rows) != len(want) || m.Agg.Matched != 3 || m.StoreRows != 22 {
		t.Fatalf("merged %d rows, matched %d of %d", len(m.Rows), m.Agg.Matched, m.StoreRows)
	}
	for i, row := range m.Rows {
		if string(row) != want[i] {
			t.Fatalf("row %d = %s, want %s", i, row, want[i])
		}
	}
	// Re-encoding a leg keeps the row bytes too (what a replica writes).
	enc, err := json.Marshal(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	var again Partial
	if err := json.Unmarshal(enc, &again); err != nil || string(again.Rows[1]) != want[1] {
		t.Fatalf("round trip: %v, row %s", err, again.Rows[1])
	}
}

// TestAggPartialWireRoundTrip: the store's accumulators are their own wire
// form — a leg decoded from its JSON holds exactly the state that was
// encoded (exact sums, sketch buckets; an attribute with no valid cell in
// a group stays an empty accumulator), grouped and ungrouped: it encodes
// to the same bytes and renders the same statistics.
func TestAggPartialWireRoundTrip(t *testing.T) {
	tab := partialRows(t, rand.New(rand.NewSource(5)), 800)
	for _, by := range []string{"g", ""} {
		spec := QuerySpec{Epoch: 2, Attrs: []string{"x", "y"}, By: by}
		leg := legOf(t, tab, spec)
		enc, err := json.Marshal(leg)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(enc), "Inf") || strings.Contains(string(enc), "NaN") {
			t.Fatalf("by=%q: non-finite value on the wire: %.200s", by, enc)
		}
		var back Partial
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(enc) {
			t.Fatalf("by=%q: the decoded leg encodes differently", by)
		}
		if err := sameResult(&store.AggResult{Matched: back.Agg.Rows, Totals: back.Agg.Totals, Groups: back.Agg.Groups},
			leg.Agg.Rows, leg.Agg.Totals, leg.Agg.Groups); err != nil {
			t.Fatalf("by=%q: %v", by, err)
		}
	}
}

// TestPushdownLegsMatchBuildPartial is pushdown ≡ row-wise oracle through
// the wire: the store aggregates each shard range in place
// (QueryShardsPage, what a replica leg runs), the legs cross JSON, and the
// merge must equal BuildPartial over the materialized match set.
func TestPushdownLegsMatchBuildPartial(t *testing.T) {
	st, err := store.New(store.Config{Shards: 4, SegmentRows: 128, Schema: partialSchema, KeyAttr: "id"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(partialRows(t, rand.New(rand.NewSource(9)), 1500)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	for _, by := range []string{"g", ""} {
		spec := QuerySpec{Epoch: snap.Epoch(), Attrs: []string{"x", "y"}, By: by}
		matched, _, err := snap.Query(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantTotals, wantGroups, err := BuildPartial(matched, spec.Attrs, spec.By)
		if err != nil {
			t.Fatal(err)
		}
		var parts []*Partial
		for from := 0; from < snap.NumShards(); from += 2 {
			res, _, ps, err := snap.QueryShardsPage(nil, from, from+2, 1, store.AggSpec{By: by, Attrs: spec.Attrs}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			leg := Partial{Epoch: spec.Epoch, Agg: table.AggPartial{Rows: res.Matched, Groups: res.Groups}, Plan: ps}
			if by == "" {
				leg.Agg.Totals = res.Totals
			}
			enc, err := json.Marshal(&leg)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, new(Partial))
			if err := json.Unmarshal(enc, parts[len(parts)-1]); err != nil {
				t.Fatal(err)
			}
		}
		m, err := MergePartials(spec, parts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(m.Agg, matched.NumRows(), wantTotals, wantGroups); err != nil {
			t.Fatalf("by=%q: %v", by, err)
		}
		if m.Plan.Shards != snap.NumShards() || m.Plan.MatchedRows != matched.NumRows() {
			t.Fatalf("by=%q: merged plan %+v", by, m.Plan)
		}
	}
}
