package table

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// aggOracle is the naive row-order reference the kernels must match: group
// cells read as strings ("" when invalid), value cells folded in row order
// when valid and finite.
type aggOracle struct {
	keys   []string
	rows   map[string]int
	counts map[string][]int
	vals   map[string][][]float64
	mins   map[string][]float64
	maxs   map[string][]float64
}

func oracleOf(t *testing.T, tab *Table, by string, attrs []string, rows []int) *aggOracle {
	t.Helper()
	o := &aggOracle{
		rows:   map[string]int{},
		counts: map[string][]int{},
		vals:   map[string][][]float64{},
		mins:   map[string][]float64{},
		maxs:   map[string][]float64{},
	}
	var keys []string
	var gvalid []bool
	if by != "" {
		var err error
		keys, err = tab.Strings(by)
		if err != nil {
			t.Fatal(err)
		}
		gvalid, _ = tab.ValidMask(by)
	}
	type col struct {
		vals []float64
		mask []bool
	}
	cols := make([]col, len(attrs))
	for k, attr := range attrs {
		vals, err := tab.Floats(attr)
		if err != nil {
			t.Fatal(err)
		}
		mask, _ := tab.ValidMask(attr)
		cols[k] = col{vals, mask}
	}
	if rows == nil {
		rows = make([]int, tab.NumRows())
		for i := range rows {
			rows[i] = i
		}
	}
	for _, r := range rows {
		key := ""
		if by != "" && gvalid[r] {
			key = keys[r]
		}
		if _, ok := o.rows[key]; !ok {
			o.keys = append(o.keys, key)
			o.counts[key] = make([]int, len(attrs))
			o.vals[key] = make([][]float64, len(attrs))
			o.mins[key] = make([]float64, len(attrs))
			o.maxs[key] = make([]float64, len(attrs))
			for k := range attrs {
				o.mins[key][k] = math.Inf(1)
				o.maxs[key][k] = math.Inf(-1)
			}
		}
		o.rows[key]++
		for k, c := range cols {
			if !c.mask[r] {
				continue
			}
			v := c.vals[r]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			o.counts[key][k]++
			o.vals[key][k] = append(o.vals[key][k], v)
			if v < o.mins[key][k] {
				o.mins[key][k] = v
			}
			if v > o.maxs[key][k] {
				o.maxs[key][k] = v
			}
		}
	}
	return o
}

// checkAgainstOracle pins the kernel's groups bitwise against the oracle
// for count/sum/mean/variance/min/max and loosely for sketch quantiles.
func checkAgainstOracle(t *testing.T, g *GroupAggregator, o *aggOracle, wantRows int) {
	t.Helper()
	if g.Rows() != wantRows {
		t.Fatalf("Rows() = %d, want %d", g.Rows(), wantRows)
	}
	groups := g.Groups()
	if len(groups) != len(o.keys) {
		t.Fatalf("got %d groups, oracle has %d", len(groups), len(o.keys))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i-1].Key >= groups[i].Key {
			t.Fatalf("groups not sorted: %q before %q", groups[i-1].Key, groups[i].Key)
		}
	}
	for _, gp := range groups {
		wantR, ok := o.rows[gp.Key]
		if !ok {
			t.Fatalf("unexpected group %q", gp.Key)
		}
		if gp.Rows != wantR {
			t.Fatalf("group %q: Rows = %d, want %d", gp.Key, gp.Rows, wantR)
		}
		for k, a := range gp.Attrs {
			checkExact(t, fmt.Sprintf("group %q attr %d", gp.Key, k), &a, oracleOfValues(o.vals[gp.Key][k]))
			if o.counts[gp.Key][k] == 0 {
				continue
			}
			if a.S.Min != o.mins[gp.Key][k] || a.S.Max != o.maxs[gp.Key][k] {
				t.Fatalf("group %q attr %d: extremes [%v, %v], want [%v, %v]",
					gp.Key, k, a.S.Min, a.S.Max, o.mins[gp.Key][k], o.maxs[gp.Key][k])
			}
			med := a.S.Quantile(0.5)
			if med < o.mins[gp.Key][k] || med > o.maxs[gp.Key][k] {
				t.Fatalf("group %q attr %d: median %v outside extremes", gp.Key, k, med)
			}
		}
	}
}

// buildAggTable generates a randomized EPC-shaped table. Integral values
// keep sums exact so means compare bitwise. mode selects the encodings the
// group column lands in.
func buildAggTable(t *testing.T, rng *rand.Rand, rows int, mode string) *Table {
	t.Helper()
	tab := New()
	keys := make([]string, rows)
	kvalid := make([]bool, rows)
	vals := make([]float64, rows)
	vvalid := make([]bool, rows)
	second := make([]float64, rows)
	svalid := make([]bool, rows)
	for i := 0; i < rows; i++ {
		switch mode {
		case "rawstring":
			// Cardinality above rows/4 declines dictionary encoding.
			keys[i] = fmt.Sprintf("K%03d", rng.Intn(rows/2+20))
		case "allinvalid":
			keys[i] = "ignored"
		default:
			keys[i] = fmt.Sprintf("D%02d", rng.Intn(7))
			if rng.Intn(10) == 0 {
				keys[i] = "" // empty-string group, distinct from invalid
			}
		}
		kvalid[i] = mode != "allinvalid" && rng.Intn(12) != 0
		vals[i] = float64(rng.Intn(800))
		vvalid[i] = rng.Intn(3) != 0           // NULL-heavy value column
		second[i] = float64(rng.Intn(100)) / 4 // fractional → raw float
		if rng.Intn(20) == 0 {
			second[i] = math.NaN()
		}
		svalid[i] = rng.Intn(5) != 0
	}
	if err := tab.AddStringsValid("g", keys, kvalid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloatsValid("x", vals, vvalid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloatsValid("y", second, svalid); err != nil {
		t.Fatal(err)
	}
	return tab
}

// wordsOf is the selection words of the given rows of an n-row segment.
func wordsOf(rows []int, n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	for _, r := range rows {
		words[r>>6] |= 1 << (r & 63)
	}
	return words
}

func TestGroupAggregatorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	attrs := []string{"x", "y"}
	// Word-boundary row counts stress the packed-validity fold.
	for _, rows := range []int{1, 63, 64, 65, 128, 500} {
		for _, mode := range []string{"dict", "rawstring", "allinvalid"} {
			t.Run(fmt.Sprintf("rows=%d/%s", rows, mode), func(t *testing.T) {
				tab := buildAggTable(t, rng, rows, mode)
				enc := Encode(tab)
				oracle := oracleOf(t, tab, "g", attrs, nil)

				ge := NewGroupAggregator("g", attrs)
				if err := ge.AddEncoded(enc, nil); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, ge, oracle, rows)

				// Ordinal-subset path (the pushdown feed from predicate matches).
				var sel []int
				for i := 0; i < rows; i++ {
					if rng.Intn(3) != 0 {
						sel = append(sel, i)
					}
				}
				sub := oracleOf(t, tab, "g", attrs, sel)
				gs := NewGroupAggregator("g", attrs)
				if err := gs.AddEncoded(enc, wordsOf(sel, rows)); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, gs, sub, len(sel))

				// Split into per-"segment" aggregators, freeze, merge: must
				// equal the single pass bitwise for count/min/max and exactly
				// for sketches (sums are order-sensitive only across splits,
				// and splits here preserve row order).
				cut := rows / 2
				left := NewGroupAggregator("g", attrs)
				right := NewGroupAggregator("g", attrs)
				leftRows := make([]int, 0, cut)
				rightRows := make([]int, 0, rows-cut)
				for i := 0; i < cut; i++ {
					leftRows = append(leftRows, i)
				}
				for i := cut; i < rows; i++ {
					rightRows = append(rightRows, i)
				}
				if err := left.AddEncoded(enc, wordsOf(leftRows, rows)); err != nil {
					t.Fatal(err)
				}
				if err := right.AddEncoded(enc, wordsOf(rightRows, rows)); err != nil {
					t.Fatal(err)
				}
				merged := NewGroupAggregator("g", attrs)
				lp, rp := left.Partial(), right.Partial()
				if err := merged.AddPartial(lp); err != nil {
					t.Fatal(err)
				}
				if err := merged.AddPartial(rp); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, merged, oracle, rows)

				// AddPartial must not mutate its (cached, shared) argument.
				lp2 := left.Partial()
				for _, gp := range lp.Groups {
					for _, gp2 := range lp2.Groups {
						if gp.Key == gp2.Key && gp.Attrs[0].Count() != gp2.Attrs[0].Count() {
							t.Fatalf("AddPartial mutated source partial for group %q", gp.Key)
						}
					}
				}
			})
		}
	}
}

func TestGroupAggregatorUngrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := buildAggTable(t, rng, 200, "dict")
	enc := Encode(tab)
	attrs := []string{"x", "y"}
	oracle := oracleOf(t, tab, "", attrs, nil)

	g := NewGroupAggregator("", attrs)
	if err := g.AddEncoded(enc, nil); err != nil {
		t.Fatal(err)
	}
	if g.Groups() != nil {
		t.Fatal("ungrouped aggregator must report no groups")
	}
	tot := g.Totals()
	for k := range attrs {
		checkExact(t, fmt.Sprintf("attr %d", k), &tot[k], oracleOfValues(oracle.vals[""][k]))
	}

	// Grouped Totals() folds groups deterministically and agrees on counts.
	gg := NewGroupAggregator("g", attrs)
	if err := gg.AddEncoded(enc, nil); err != nil {
		t.Fatal(err)
	}
	gtot := gg.Totals()
	for k := range attrs {
		checkExact(t, fmt.Sprintf("grouped total %d", k), &gtot[k], oracleOfValues(oracle.vals[""][k]))
		if gtot[k].S.Min != tot[k].S.Min || gtot[k].S.Max != tot[k].S.Max {
			t.Fatalf("attr %d: grouped-total extremes differ", k)
		}
	}

	// AddRows-only counting.
	fast := NewGroupAggregator("", nil)
	fast.AddRows(137)
	if fast.Rows() != 137 || len(fast.Totals()) != 0 {
		t.Fatal("AddRows fast path broken")
	}
}

func TestGroupAggregatorErrors(t *testing.T) {
	tab := New()
	if err := tab.AddStrings("g", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	enc := Encode(tab)

	for _, tc := range []struct {
		by    string
		attrs []string
	}{
		{"missing", []string{"x"}},
		{"g", []string{"missing"}},
		{"x", []string{"x"}}, // group column must be a string column
		{"g", []string{"g"}}, // value column must be float
	} {
		g := NewGroupAggregator(tc.by, tc.attrs)
		if err := g.AddEncoded(enc, nil); err == nil {
			t.Fatalf("AddEncoded(by=%q attrs=%v): want error", tc.by, tc.attrs)
		}
		g = NewGroupAggregator(tc.by, tc.attrs)
		if err := g.AddEncoded(enc, []uint64{2}); err == nil {
			t.Fatalf("AddEncoded(by=%q attrs=%v, rows [1]): want error", tc.by, tc.attrs)
		}
	}

	// Mismatched partial shapes are rejected, not silently misfolded.
	a := NewGroupAggregator("g", []string{"x"})
	if err := a.AddEncoded(enc, nil); err != nil {
		t.Fatal(err)
	}
	b := NewGroupAggregator("g", []string{"x", "x"})
	if err := b.AddPartial(a.Partial()); err == nil {
		t.Fatal("want error folding 1-attr partial into 2-attr aggregator")
	}
	c := NewGroupAggregator("", []string{"x", "x"})
	u := NewGroupAggregator("", []string{"x"})
	if err := u.AddEncoded(enc, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPartial(u.Partial()); err == nil {
		t.Fatal("want error folding 1-attr totals into 2-attr aggregator")
	}
}

func TestAggAccumObserveMeanMerge(t *testing.T) {
	var a AggAccum
	if m := a.Mean(); m != 0 {
		t.Fatalf("empty mean = %v, want 0", m)
	}
	a.Observe(2)
	a.Observe(4)
	a.Observe(math.NaN())   // skipped
	a.Observe(math.Inf(1))  // skipped
	a.Observe(math.Inf(-1)) // skipped
	if a.Count() != 2 || a.Sum() != 6 {
		t.Fatalf("accumulated %d/%v, want 2/6", a.Count(), a.Sum())
	}
	if m := a.Mean(); m != 3 {
		t.Fatalf("mean = %v, want 3", m)
	}

	// Merge into a sketchless destination.
	var b AggAccum
	b.Observe(10)
	a.MergeAccum(&b)
	if a.Count() != 3 || a.Sum() != 16 {
		t.Fatalf("after merge: %d/%v", a.Count(), a.Sum())
	}
	var dst AggAccum
	dst.MergeAccum(&a)
	if dst.Count() != 3 || dst.Sum() != 16 {
		t.Fatalf("merge into empty: %d/%v", dst.Count(), dst.Sum())
	}
	// The merged state must be a fresh copy, not an alias of a's.
	dst.S.Add(1)
	dst.Observe(5)
	if a.Count() != 3 || a.Sum() != 16 {
		t.Fatalf("merge aliased the source accumulator")
	}
}

// FuzzAddEncodedSelection pins the selection kernel against Observe. The
// table is random, of any row count up to 700 (rarely a multiple of 64):
// a group column that encodes to a dictionary or stays raw, with invalid
// cells; a decimal column of 0 to 3 fraction digits that packs, negative
// values and invalid cells included; and a column that stays raw, with
// NaN, ±Inf and non-decimal values. The selection words are random at a
// random density, or nil for every row. The frozen partial of AddEncoded
// must equal, group by group, the Observe fold of the decoded selected
// rows in row order: the row counts, each sketch's JSON byte for byte
// (reserved sketches trim to the buckets their values reached) and the
// exact sums.
func FuzzAddEncodedSelection(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(i), uint16(1+i*97), uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, shape uint8) {
		n := 1 + int(rows)%700
		rng := rand.New(rand.NewSource(seed))
		keys, kvalid := make([]string, n), make([]bool, n)
		dec, dvalid := make([]float64, n), make([]bool, n)
		raw, rvalid := make([]float64, n), make([]bool, n)
		for i := 0; i < n; i++ {
			keys[i] = fmt.Sprintf("K%d", rng.Intn(5))
			if shape&1 != 0 {
				keys[i] = fmt.Sprintf("R%d", rng.Intn(n+10)) // declines the dictionary
			}
			kvalid[i] = rng.Intn(8) != 0
			dec[i] = float64(rng.Intn(20001)-5000) / pow10[shape>>1&3]
			dvalid[i] = rng.Intn(6) != 0
			switch rng.Intn(10) {
			case 0:
				raw[i] = math.NaN()
			case 1:
				raw[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				raw[i] = rng.NormFloat64() * 1e3
			}
			rvalid[i] = rng.Intn(6) != 0
		}
		tab := New()
		for _, err := range []error{
			tab.AddStringsValid("g", keys, kvalid),
			tab.AddFloatsValid("d", dec, dvalid),
			tab.AddFloatsValid("r", raw, rvalid),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		enc := Encode(tab)
		var sel []uint64
		if shape&8 == 0 {
			sel = make([]uint64, (n+63)/64)
			density := 1 + rng.Intn(4)
			for r := 0; r < n; r++ {
				if rng.Intn(density) == 0 {
					sel[r>>6] |= 1 << (r & 63)
				}
			}
		}
		by := "g"
		if shape&16 != 0 {
			by = ""
		}
		attrs := []string{"d", "r"}
		g := NewGroupAggregator(by, attrs)
		if err := g.AddEncoded(enc, sel); err != nil {
			t.Fatal(err)
		}
		got := g.Partial()

		// The oracle: Observe over the decoded cells of the selected rows.
		dtab := enc.Decode()
		dkeys, _ := dtab.Strings("g")
		dkvalid, _ := dtab.ValidMask("g")
		want := NewGroupAggregator(by, attrs)
		for r := 0; r < n; r++ {
			if sel != nil && sel[r>>6]&(1<<(r&63)) == 0 {
				continue
			}
			want.rows++
			accs := want.totals
			if by != "" {
				key := ""
				if dkvalid[r] {
					key = dkeys[r]
				}
				gp := want.group(key)
				gp.Rows++
				accs = gp.Attrs
			}
			for k, attr := range attrs {
				vals, _ := dtab.Floats(attr)
				if valid, _ := dtab.ValidMask(attr); valid[r] {
					accs[k].Observe(vals[r])
				}
			}
		}
		wp := want.Partial()
		if got.Rows != wp.Rows || len(got.Groups) != len(wp.Groups) || len(got.Totals) != len(wp.Totals) {
			t.Fatalf("%d rows in %d groups, want %d in %d", got.Rows, len(got.Groups), wp.Rows, len(wp.Groups))
		}
		same := func(label string, a, b []AggAccum) {
			for k := range a {
				ga, _ := json.Marshal(a[k].S)
				wa, _ := json.Marshal(b[k].S)
				if !bytes.Equal(ga, wa) {
					t.Fatalf("%s attr %d: sketch %s, Observe's %s", label, k, ga, wa)
				}
				gs, gq := a[k].exact()
				ws, wq := b[k].exact()
				if gs.Cmp(ws) != 0 || gq.Cmp(wq) != 0 {
					t.Fatalf("%s attr %d: sums %v, %v; Observe's %v, %v", label, k, gs, gq, ws, wq)
				}
			}
		}
		same("totals", got.Totals, wp.Totals)
		for i, gp := range got.Groups {
			if w := wp.Groups[i]; gp.Key != w.Key || gp.Rows != w.Rows {
				t.Fatalf("group %q of %d rows, want %q of %d", gp.Key, gp.Rows, w.Key, w.Rows)
			}
			same(fmt.Sprintf("group %q", gp.Key), gp.Attrs, wp.Groups[i].Attrs)
		}
	})
}
