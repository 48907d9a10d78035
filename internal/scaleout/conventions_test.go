package scaleout

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"indice/internal/stats"
	"indice/internal/table"
)

// TestEdgeConventionsAgree pins, once and for every summary the system
// renders, what the edges mean: the exact batch summary (stats.Describe),
// the pushdown accumulator (table.AggAccum), the quantile sketch
// (stats.Sketch) and the row-wise oracle (BuildPartial) must read one
// column the same way.
//
//   - NULL, NaN and ±Inf cells are missing: they count nowhere. Sketch
//     drops NaN itself; dropping ±Inf is its feeder's job
//     (AggAccum.Observe, BuildPartial, stats.Clean all do it).
//   - Nothing to summarize is count 0 and zeros everywhere a number is
//     rendered (JSON cannot carry NaN); Describe says so with ErrEmpty.
//   - One value has standard deviation 0, and is its own minimum, maximum
//     and every quantile.
//   - Quantiles are monotone in q, q=0 and q=1 are the exact extremes, and
//     the sketch's answer lies within its ±1.6 % bucket tolerance of the
//     two order statistics Describe interpolates between.
//   - Merging with an empty side changes nothing, from either side.
func TestEdgeConventionsAgree(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	seq := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		vals []float64
		null []int // row ordinals whose cell is NULL
	}{
		{name: "empty"},
		{name: "all NULL", vals: []float64{1, 2, 3}, null: []int{0, 1, 2}},
		{name: "nothing finite", vals: []float64{nan, inf, -inf, nan}},
		{name: "single", vals: []float64{42.5}},
		{name: "single among the missing", vals: []float64{nan, 7, inf, 99, -inf}, null: []int{3}},
		{name: "pair", vals: []float64{1, 100}},
		{name: "zeros", vals: []float64{0, 0, math.Copysign(0, -1), 0}},
		{name: "constant", vals: seq(9, func(int) float64 { return 3.25 })},
		{name: "ramp", vals: seq(100, func(i int) float64 { return float64(i + 1) })},
		{name: "signed with gaps", vals: []float64{-120.5, nan, -3, 0, 0.001, inf, 8, 8, 8, 1e6, -inf, 77}, null: []int{6}},
		{name: "wide magnitudes", vals: []float64{1e-9, 2.5e-3, 1, 4e3, 7e9, 1.5e12}},
		{name: "skewed", vals: seq(257, func(i int) float64 { return math.Exp(float64(i%37) / 5) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := table.NewWithSchema([]table.Field{{Name: "x", Type: table.Float64}})
			if err != nil {
				t.Fatal(err)
			}
			isNull := make(map[int]bool, len(tc.null))
			for _, r := range tc.null {
				isNull[r] = true
			}
			var cells []float64 // the non-NULL cells, NaN and ±Inf included
			for r, v := range tc.vals {
				if err := tab.AppendRow([]table.Cell{{Float: v, Valid: !isNull[r]}}); err != nil {
					t.Fatal(err)
				}
				if !isNull[r] {
					cells = append(cells, v)
				}
			}
			finite := stats.Clean(cells)
			sort.Float64s(finite)

			desc, descErr := stats.Describe(cells)
			sk := &stats.Sketch{}
			for _, v := range cells {
				if !math.IsInf(v, 0) { // NaN goes in: the sketch must drop it itself
					sk.Add(v)
				}
			}
			var acc table.AggAccum
			for _, v := range cells {
				acc.Observe(v)
			}
			totals, _, err := BuildPartial(tab, []string{"x"}, "")
			if err != nil {
				t.Fatal(err)
			}
			oracle := totals[0]

			n := len(finite)
			for who, got := range map[string]int{
				"Describe": desc.Count, "Sketch": sk.Count(),
				"AggAccum": acc.Count(), "BuildPartial": oracle.Count(),
			} {
				if got != n {
					t.Errorf("%s counts %d values, want %d", who, got, n)
				}
			}
			if !reflect.DeepEqual(acc, oracle) {
				t.Errorf("AggAccum %+v and the BuildPartial oracle %+v differ", acc, oracle)
			}

			if n == 0 {
				if !errors.Is(descErr, stats.ErrEmpty) || desc != (stats.Description{}) {
					t.Errorf("Describe of nothing = %+v, %v; want the zero value and ErrEmpty", desc, descErr)
				}
				if acc.Mean() != 0 || acc.Sum() != 0 || acc.StdDev() != 0 {
					t.Errorf("AggAccum over nothing = %+v", acc)
				}
				for _, q := range []float64{0, 0.25, 0.5, 1} {
					if v := sk.Quantile(q); v != 0 {
						t.Errorf("empty Sketch.Quantile(%v) = %v, want 0", q, v)
					}
				}
				return
			}
			if descErr != nil {
				t.Fatalf("Describe: %v", descErr)
			}

			// Extremes: the same bits everywhere.
			for who, got := range map[string][2]float64{
				"Sketch":       {sk.Min, sk.Max},
				"Sketch q=0,1": {sk.Quantile(0), sk.Quantile(1)}, "AggAccum": {acc.S.Min, acc.S.Max},
			} {
				if math.Float64bits(got[0]) != math.Float64bits(desc.Min) && !(got[0] == 0 && desc.Min == 0) ||
					math.Float64bits(got[1]) != math.Float64bits(desc.Max) && !(got[1] == 0 && desc.Max == 0) {
					t.Errorf("%s extremes %v, Describe's [%v %v]", who, got, desc.Min, desc.Max)
				}
			}
			// Mean and deviation: one value per statistic, to rounding.
			near := func(a, b float64) bool {
				return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
			}
			if !near(acc.Mean(), desc.Mean) || !near(acc.StdDev(), desc.StdDev) {
				t.Errorf("AggAccum mean %v sd %v, Describe's %v and %v", acc.Mean(), acc.StdDev(), desc.Mean, desc.StdDev)
			}
			if n == 1 {
				if desc.StdDev != 0 || acc.StdDev() != 0 {
					t.Errorf("single-element sd: Describe %v, AggAccum %v; want 0", desc.StdDev, acc.StdDev())
				}
				for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
					exact, _ := stats.Quantile(cells, q)
					if exact != finite[0] || sk.Quantile(q) != finite[0] {
						t.Errorf("single-element quantile(%v): exact %v, sketch %v, want %v", q, exact, sk.Quantile(q), finite[0])
					}
				}
			}

			// Quantiles: monotone, and the sketch within its tolerance of the
			// order statistics the exact quantile interpolates between.
			lastExact, lastSketch := math.Inf(-1), math.Inf(-1)
			for i := 0; i <= 40; i++ {
				q := float64(i) / 40
				exact, err := stats.Quantile(cells, q)
				if err != nil {
					t.Fatal(err)
				}
				approx := sk.Quantile(q)
				if exact < lastExact || approx < lastSketch {
					t.Errorf("quantile decreases at q=%v: exact %v after %v, sketch %v after %v", q, exact, lastExact, approx, lastSketch)
				}
				lastExact, lastSketch = exact, approx
				h := q * float64(n-1)
				lo, hi := finite[int(math.Floor(h))], finite[int(math.Ceil(h))]
				const tol = 0.016
				if approx < lo-tol*math.Abs(lo) || approx > hi+tol*math.Abs(hi) {
					t.Errorf("sketch quantile(%v) = %v outside [%v, %v] ± 1.6 %%", q, approx, lo, hi)
				}
				if g := acc.S.Quantile(q); math.Float64bits(g) != math.Float64bits(approx) {
					t.Errorf("AggAccum sketch quantile(%v) = %v, a Sketch fed the same values %v", q, g, approx)
				}
			}

			// An empty side merges to the other side, whichever side it is.
			skInto := &stats.Sketch{}
			skInto.Merge(sk)
			skInto.Merge(&stats.Sketch{})
			skInto.Merge(nil)
			if !reflect.DeepEqual(skInto, sk) {
				t.Errorf("Sketch merged with empty differs from the sketch")
			}
			var accInto table.AggAccum
			accInto.MergeAccum(&acc)
			accInto.MergeAccum(&table.AggAccum{})
			if err := sameAccum(&accInto, &acc); err != nil {
				t.Errorf("AggAccum merged with empty: %v", err)
			}
			empty, err := table.NewWithSchema(tab.Schema())
			if err != nil {
				t.Fatal(err)
			}
			spec := QuerySpec{Epoch: 1, Attrs: []string{"x"}}
			m, err := MergePartials(spec, []*Partial{legOf(t, empty, spec), legOf(t, tab, spec), legOf(t, empty, spec)})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAccum(&m.Agg.Totals[0], &oracle); err != nil || m.Agg.Matched != tab.NumRows() {
				t.Errorf("legs merged with empty legs: %v (matched %d of %d)", err, m.Agg.Matched, tab.NumRows())
			}
		})
	}
}
