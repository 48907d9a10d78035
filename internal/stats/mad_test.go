package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The non-parametric screen's oracles: the sort-based MAD and modified
// z-scores the screen computed before it selected its fences. MedianMAD
// and ModifiedZ must reproduce them.

// Median returns the median of the finite values in xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// MAD returns the median absolute deviation of xs: the median of the
// absolute deviations from the sample median. It is the robust dispersion
// measure INDICE uses for the non-parametric univariate outlier test.
func MAD(xs []float64) (float64, error) {
	c := Clean(xs)
	if len(c) == 0 {
		return 0, ErrEmpty
	}
	med, _ := Median(c)
	devs := make([]float64, len(c))
	for i, x := range c {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// ModifiedZScores returns the Iglewicz-Hoaglin modified z-scores
// 0.6745*(x-median)/MAD for every value in xs. Non-finite inputs map to
// NaN scores. When the MAD is zero the scores are reported as +Inf for any
// value different from the median (a degenerate but well-defined outcome).
func ModifiedZScores(xs []float64) ([]float64, error) {
	med, err := Median(xs)
	if err != nil {
		return nil, err
	}
	mad, err := MAD(xs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			out[i] = math.NaN()
			continue
		}
		if mad == 0 {
			if x == med {
				out[i] = 0
			} else {
				out[i] = math.Inf(1)
			}
			continue
		}
		out[i] = 0.6745 * (x - med) / mad
	}
	return out, nil
}

// screenBySelection is the screen's route over xs (outlier.detectMAD's):
// one copy of the finite values, MedianMAD on it, then ModifiedZ of every
// finite value, flagged above cut.
func screenBySelection(xs []float64, cut float64) (med, mad float64, flagged []int, err error) {
	finite := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}
	if med, mad, err = MedianMAD(finite); err != nil {
		return 0, 0, nil, err
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if math.Abs(ModifiedZ(x, med, mad)) > cut {
			flagged = append(flagged, i)
		}
	}
	return med, mad, flagged, nil
}

// screenByScores is the route it replaced: Median, MAD and the
// ModifiedZScores array, each sorting a cleaned copy.
func screenByScores(xs []float64, cut float64) (med, mad float64, flagged []int, err error) {
	if med, err = Median(xs); err != nil {
		return 0, 0, nil, err
	}
	if mad, err = MAD(xs); err != nil {
		return 0, 0, nil, err
	}
	zs, err := ModifiedZScores(xs)
	if err != nil {
		return 0, 0, nil, err
	}
	for i, z := range zs {
		if !math.IsNaN(z) && math.Abs(z) > cut {
			flagged = append(flagged, i)
		}
	}
	return med, mad, flagged, nil
}

// checkScreen fails unless both routes agree on xs: the same error, the
// median and the MAD equal by == (a zero may differ in sign) and the same
// rows flagged at every cutoff.
func checkScreen(t *testing.T, xs []float64) {
	t.Helper()
	for _, cut := range []float64{3.5, 1, 0} {
		wantMed, wantMAD, want, wantErr := screenByScores(xs, cut)
		gotMed, gotMAD, got, gotErr := screenBySelection(slices.Clone(xs), cut)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%v: selection err %v, sort err %v", xs, gotErr, wantErr)
		}
		if gotMed != wantMed || gotMAD != wantMAD {
			t.Fatalf("%v: selection median %v MAD %v, sort %v and %v", xs, gotMed, gotMAD, wantMed, wantMAD)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v, cut %v: selection flags %v, sort %v", xs, cut, got, want)
		}
	}
}

func TestMedianMADEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name     string
		xs       []float64
		med, mad float64
		flagged  []int // at the 3.5 cutoff
	}{
		{name: "n=1", xs: []float64{7}, med: 7, mad: 0},
		{name: "n=2", xs: []float64{4, 1}, med: 2.5, mad: 1.5},
		{name: "odd n", xs: []float64{5, 1, 4, 2, 3}, med: 3, mad: 1},
		{name: "even n", xs: []float64{6, 1, 5, 2, 4, 3}, med: 3.5, mad: 1.5},
		// MAD 0: every value off the median scores +Inf.
		{name: "all equal", xs: []float64{2, 2, 2, 2}, med: 2, mad: 0},
		{name: "MAD 0 flags every other value", xs: []float64{5, 5, 5, 5, 9, 5, 4}, med: 5, mad: 0, flagged: []int{4, 6}},
		{name: "heavy duplicates", xs: []float64{1, 1, 1, 2, 2, 2, 2, 3, 3, 40}, med: 2, mad: 1, flagged: []int{9}},
		{name: "non-finite cells", xs: []float64{nan, 1, inf, 2, -inf, 3, 100}, med: 2.5, mad: 1, flagged: []int{6}},
		{name: "signed zeros", xs: []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 1}, med: 0, mad: 0, flagged: []int{3}},
		// |x − med| overflows for the two extremes: they take no part in
		// the median of the deviations.
		{name: "overflowing deviations", xs: []float64{-math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}, med: math.MaxFloat64, mad: 0, flagged: []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			med, mad, flagged, err := screenBySelection(slices.Clone(tc.xs), 3.5)
			if err != nil {
				t.Fatal(err)
			}
			if med != tc.med || mad != tc.mad || !slices.Equal(flagged, tc.flagged) {
				t.Fatalf("median %v MAD %v flagged %v, want %v, %v and %v", med, mad, flagged, tc.med, tc.mad, tc.flagged)
			}
			checkScreen(t, tc.xs)
		})
	}
	for _, xs := range [][]float64{nil, {}, {nan}, {inf, -inf, nan}} {
		if _, _, err := MedianMAD(Clean(xs)); err != ErrEmpty {
			t.Fatalf("MedianMAD of the finite values of %v: err %v, want ErrEmpty", xs, err)
		}
		checkScreen(t, xs)
	}
}

// TestMedianMADMatchesSort is the property: on samples of every size up
// to a few thousand, drawn continuous, from a handful of levels and as
// decimals, with non-finite cells planted, selection and sort agree.
func TestMedianMADMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	draws := []func() float64{
		rng.NormFloat64,
		func() float64 { return float64(rng.Intn(4)) },                   // heavy duplicates
		func() float64 { return math.Round(rng.ExpFloat64()*1e3) / 100 }, // decimals, skewed
	}
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(40)
		if trial%50 == 0 {
			n = 1000 + rng.Intn(4000)
		}
		draw := draws[trial%len(draws)]
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
			switch rng.Intn(30) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		checkScreen(t, xs)
	}
}

// FuzzMedianMAD checks the screen's selection against the sort on
// arbitrary samples: with small set, every byte is a value of a few
// levels (127 is +Inf, −128 NaN); otherwise every 8 bytes are a float64's
// bits.
func FuzzMedianMAD(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 2, 127, 0x80, 9}, true)
	f.Add([]byte{5, 5, 5, 5}, true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40}, false)
	f.Fuzz(func(t *testing.T, data []byte, small bool) {
		var xs []float64
		if small {
			for _, b := range data {
				switch v := int8(b); v {
				case 127:
					xs = append(xs, math.Inf(1))
				case -128:
					xs = append(xs, math.NaN())
				default:
					xs = append(xs, float64(v%8)/2)
				}
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				var bits uint64
				for k := 0; k < 8; k++ {
					bits |= uint64(data[k]) << (8 * k)
				}
				xs = append(xs, math.Float64frombits(bits))
			}
		}
		checkScreen(t, xs)
	})
}
