package scaleout

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indice/internal/stats"
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

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestMergePartialsMatchesSinglePass is the randomized equivalence
// property: for arbitrary row partitions into 1, 2 and 4 legs, the
// coordinator-merged aggregates equal a single pass over all rows within
// 1e-9 relative — including group counts and per-group means with
// NULL-heavy groups.
func TestMergePartialsMatchesSinglePass(t *testing.T) {
	attrs := []string{"x", "y"}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		whole := partialRows(t, rng, 600+rng.Intn(900))

		wantAttrs, wantGroups, err := BuildPartial(whole, attrs, "g")
		if err != nil {
			t.Fatal(err)
		}

		for _, legs := range []int{1, 2, 4} {
			// Arbitrary (not round-robin, not contiguous) partition: each
			// row lands on a random leg, so legs have uneven sizes and
			// some may miss entire groups.
			split := make([]*table.Table, legs)
			for i := range split {
				tab, err := table.NewWithSchema(partialSchema)
				if err != nil {
					t.Fatal(err)
				}
				split[i] = tab
			}
			assign := make([][]int, legs)
			for i := 0; i < whole.NumRows(); i++ {
				l := rng.Intn(legs)
				assign[l] = append(assign[l], i)
			}
			parts := make([]*Partial, legs)
			for l, rows := range assign {
				if err := split[l].AppendTaken(whole, rows); err != nil {
					t.Fatal(err)
				}
				pa, pg, err := BuildPartial(split[l], attrs, "g")
				if err != nil {
					t.Fatal(err)
				}
				parts[l] = &Partial{
					Epoch:     7,
					StoreRows: split[l].NumRows(),
					Matched:   split[l].NumRows(),
					Attrs:     pa,
					Groups:    pg,
				}
			}

			m, err := MergePartials(parts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Matched != whole.NumRows() || m.StoreRows != whole.NumRows() {
				t.Fatalf("legs=%d: merged %d/%d rows, want %d", legs, m.Matched, m.StoreRows, whole.NumRows())
			}
			for _, attr := range attrs {
				got, want := m.Attrs[attr], wantAttrs[attr].Running()
				if got.Count != want.Count {
					t.Fatalf("legs=%d %s: count %d, want %d", legs, attr, got.Count, want.Count)
				}
				if !relClose(got.Mean, want.Mean) || !relClose(got.StdDev(), want.StdDev()) ||
					got.Min != want.Min || got.Max != want.Max {
					t.Fatalf("legs=%d %s: merged %+v, want %+v", legs, attr, got, want)
				}
			}
			if len(m.Groups) != len(wantGroups) {
				t.Fatalf("legs=%d: %d groups, want %d", legs, len(m.Groups), len(wantGroups))
			}
			for i, g := range m.Groups {
				w := wantGroups[i]
				if g.Value != w.Value || g.Count != w.Count {
					t.Fatalf("legs=%d group %q count %d, want %q count %d", legs, g.Value, g.Count, w.Value, w.Count)
				}
				for attr, wa := range w.Attrs {
					if !relClose(g.Means[attr], wa.Mean) {
						t.Fatalf("legs=%d group %q %s mean %v, want %v", legs, g.Value, attr, g.Means[attr], wa.Mean)
					}
				}
				// NULL-heavy invariant: an attribute with zero valid cells
				// in a group must be absent, not reported as mean 0.
				for attr := range g.Means {
					if _, ok := w.Attrs[attr]; !ok {
						t.Fatalf("legs=%d group %q reports mean for all-NULL attr %s", legs, g.Value, attr)
					}
				}
			}
		}
	}
}

func TestMergePartialsErrors(t *testing.T) {
	if _, err := MergePartials(nil); err == nil {
		t.Fatal("merge of zero partials succeeded")
	}
	var a stats.Running
	a.Add(1)
	parts := []*Partial{
		{Epoch: 3, Attrs: map[string]AttrPartial{"x": PartialOf(a)}},
		{Epoch: 4},
	}
	if _, err := MergePartials(parts); err == nil {
		t.Fatal("epoch-mismatched partials merged")
	}
}

// TestMergeForwardsEncodedRows: a leg's rows cross the wire and the merge
// as the bytes the replica encoded, in leg order, and a leg answered
// without the field — a stats-only leg, or a replica predating encoded
// rows that matched nothing — still merges.
func TestMergeForwardsEncodedRows(t *testing.T) {
	legs := []string{
		`{"epoch":4,"store_rows":10,"matched":2,"query":"","rows":[{"id":"a","x":1.5,"y":null},{"id":"b \u003c\u0026","x":1e-7,"y":2}],"plan":{}}`,
		`{"epoch":4,"store_rows":7,"matched":0,"query":"","plan":{}}`,
		`{"epoch":4,"store_rows":5,"matched":1,"query":"","rows":[{"id":"c","x":-0,"y":3}],"plan":{}}`,
	}
	parts := make([]*Partial, len(legs))
	for i, leg := range legs {
		parts[i] = new(Partial)
		if err := json.Unmarshal([]byte(leg), parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"id":"a","x":1.5,"y":null}`, `{"id":"b \u003c\u0026","x":1e-7,"y":2}`, `{"id":"c","x":-0,"y":3}`}
	if len(m.Rows) != len(want) || m.Matched != 3 || m.StoreRows != 22 {
		t.Fatalf("merged %d rows, matched %d of %d", len(m.Rows), m.Matched, m.StoreRows)
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

func TestAttrPartialWireSymmetry(t *testing.T) {
	var r stats.Running
	for _, v := range []float64{3, -1, 4, 1, -5, 9, 2.5} {
		r.Add(v)
	}
	back := PartialOf(r).Running()
	if back != r {
		t.Fatalf("wire round-trip changed accumulator: %+v != %+v", back, r)
	}
}

// TestPartialFromAgg pins the pushdown-leg conversion: an AggResult's
// accumulators land on the wire exactly as BuildPartial's would —
// Welford state plus sketch per attribute and per group, zero-count
// group attributes absent, ungrouped results carrying no groups.
func TestPartialFromAgg(t *testing.T) {
	mk := func(vals ...float64) table.AggAccum {
		var a table.AggAccum
		for _, v := range vals {
			a.Observe(v)
		}
		return a
	}
	res := &store.AggResult{
		Matched: 5,
		Totals:  []table.AggAccum{mk(1, 3, 10), mk(-2, 4)},
		Groups: []*table.GroupAccum{
			{Key: "", Rows: 2, Attrs: []table.AggAccum{mk(1, 3), {}}},
			{Key: "a", Rows: 3, Attrs: []table.AggAccum{mk(10), mk(-2, 4)}},
		},
	}
	attrs, groups := PartialFromAgg(res, []string{"x", "y"}, "g")
	if tx := attrs["x"]; tx.Count != 3 || tx.Max != 10 || tx.Sketch.Count() != 3 {
		t.Fatalf("totals x = %+v", tx)
	}
	if len(groups) != 2 || groups[0].Value != "" || groups[1].Value != "a" {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].Count != 2 || groups[1].Count != 3 {
		t.Fatalf("group counts = %d/%d", groups[0].Count, groups[1].Count)
	}
	// Zero-count attribute y of group "" must be absent from the wire.
	if _, ok := groups[0].Attrs["y"]; ok {
		t.Fatalf("empty accumulator made it onto the wire: %+v", groups[0].Attrs)
	}
	gx := groups[0].Attrs["x"]
	if gx.Count != 2 || gx.Min != 1 || gx.Max != 3 || gx.Sketch.Count() != 2 {
		t.Fatalf("group \"\" x = %+v", gx)
	}
	ay := groups[1].Attrs["y"]
	if ay.Count != 2 || ay.Mean != 1 || ay.Sketch == nil {
		t.Fatalf("group a y = %+v", ay)
	}

	// Ungrouped: totals only, no groups.
	tot := mk(2, 6)
	res = &store.AggResult{Matched: 2, Totals: []table.AggAccum{tot}}
	attrs, groups = PartialFromAgg(res, []string{"x"}, "")
	if groups != nil {
		t.Fatalf("ungrouped result carried groups: %+v", groups)
	}
	ax := attrs["x"]
	if ax.Count != 2 || ax.Mean != 4 || ax.Sketch.Count() != 2 {
		t.Fatalf("totals x = %+v", ax)
	}

	// Merged through the standard path, the converted partial behaves
	// like any other leg.
	m, err := MergePartials([]*Partial{{Attrs: attrs, Matched: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Attrs["x"].Count != 2 || m.AttrSketches["x"].Count() != 2 {
		t.Fatalf("merged converted partial: %+v", m.Attrs["x"])
	}
}
