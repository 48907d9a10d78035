// Package stats provides the statistical substrate used throughout INDICE:
// descriptive statistics, quantiles, histograms, robust dispersion measures
// (MAD), the generalized ESD outlier test, and Pearson correlation.
//
// All functions operate on plain []float64 slices and ignore NaN values
// unless stated otherwise, mirroring how the INDICE pre-processing layer
// treats missing measurements in Energy Performance Certificates.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by functions that require at least one finite value.
var ErrEmpty = errors.New("stats: empty input")

// ErrShort is returned when the input has too few values for the statistic.
var ErrShort = errors.New("stats: input too short")

// Clean returns a copy of xs with NaN and Inf values removed.
func Clean(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// Mean returns the arithmetic mean of the finite values in xs.
// It returns ErrEmpty when xs holds no finite value.
func Mean(xs []float64) (float64, error) {
	var s float64
	var n int
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return s / float64(n), nil
}

// Variance returns the unbiased sample variance (divisor n-1) of the finite
// values in xs. It returns ErrShort when fewer than two finite values exist.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	var n int
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		d := x - m
		ss += d * d
		n++
	}
	if n < 2 {
		return 0, ErrShort
	}
	return ss / float64(n-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the minimum and maximum finite values in xs.
func MinMax(xs []float64) (min, max float64, err error) {
	min, max = math.Inf(1), math.Inf(-1)
	var n int
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		n++
	}
	if n == 0 {
		return 0, 0, ErrEmpty
	}
	return min, max, nil
}

// Description summarizes a numeric attribute the way the INDICE frequency
// distribution panel reports it: count, mean, standard deviation and the
// three quartiles, plus the extremes.
type Description struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Describe computes the Description of xs, ignoring non-finite values.
func Describe(xs []float64) (Description, error) {
	c := Clean(xs)
	if len(c) == 0 {
		return Description{}, ErrEmpty
	}
	var d Description
	d.Count = len(c)
	d.Mean, _ = Mean(c)
	if len(c) > 1 {
		d.StdDev, _ = StdDev(c)
	}
	sort.Float64s(c)
	d.Min = c[0]
	d.Max = c[len(c)-1]
	d.Q1 = quantileSorted(c, 0.25)
	d.Median = quantileSorted(c, 0.50)
	d.Q3 = quantileSorted(c, 0.75)
	return d, nil
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of the finite values of xs
// using linear interpolation between order statistics (the same convention
// as numpy's default, "type 7"), which is what the Python INDICE prototype
// used for its quartile summaries.
func Quantile(xs []float64, p float64) (float64, error) {
	if p < 0 || p > 1 {
		return 0, errors.New("stats: quantile p out of range [0,1]")
	}
	c := Clean(xs)
	if len(c) == 0 {
		return 0, ErrEmpty
	}
	sort.Float64s(c)
	return quantileSorted(c, p), nil
}

// quantileSorted computes the type-7 p-quantile of an already-sorted,
// NaN-free slice.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileSelect computes quantileSorted's p-quantile of a NaN-free slice
// without sorting it: it selects the lower order statistic, takes the
// smallest value of the part above it as the upper one and combines the
// two with quantileSorted's formula. xs is left reordered.
func quantileSelect(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	selectNth(xs, lo)
	if hi >= n {
		return xs[n-1]
	}
	frac := h - float64(lo)
	return xs[lo]*(1-frac) + slices.Min(xs[hi:])*frac
}

// selectNth reorders a NaN-free slice so that xs[k] holds the value a
// sort would put there, with no greater value before it and no smaller
// one after. It is a quickselect with a median-of-three pivot and a
// three-way partition, so a run of equal values costs one pass; a range
// still longer than a few values after 2·log2(n) partitions is sorted
// instead, which bounds the worst case by a sort's.
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12 && budget > 0; budget-- {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// [lo,lt) < pivot, [lt,i) == pivot, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	slices.Sort(xs[lo:hi])
}

// BoxplotFences holds the Tukey boxplot whisker bounds: values outside
// [Lower, Upper] are flagged as outliers by the graphic boxplot method.
type BoxplotFences struct {
	Q1, Q3       float64
	Lower, Upper float64
}

// Fences computes the Tukey boxplot fences with whisker factor k
// (conventionally 1.5). Values below Lower or above Upper are outliers.
func Fences(xs []float64, k float64) (BoxplotFences, error) {
	c := Clean(xs)
	if len(c) == 0 {
		return BoxplotFences{}, ErrEmpty
	}
	sort.Float64s(c)
	q1 := quantileSorted(c, 0.25)
	q3 := quantileSorted(c, 0.75)
	iqr := q3 - q1
	return BoxplotFences{
		Q1:    q1,
		Q3:    q3,
		Lower: q1 - k*iqr,
		Upper: q3 + k*iqr,
	}, nil
}

// MedianMAD returns the median of xs and their median absolute
// deviation — the median of the absolute deviations from it, the robust
// dispersion measure INDICE's non-parametric univariate outlier test
// divides by — using xs, which must hold finite values only, as its
// scratch: it selects the median, overwrites xs with the deviations from
// it and selects again, so it neither copies nor sorts. Each value equals
// by == the median a sort finds, Quantile(xs, 0.5) and the same of the
// deviations (a zero may differ in sign). xs is left reordered and
// overwritten. It returns ErrEmpty when xs is empty.
func MedianMAD(xs []float64) (med, mad float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	med = quantileSelect(xs, 0.5)
	devs := xs[:0]
	for _, x := range xs {
		// A deviation that overflows to +Inf is not a finite value: it
		// takes no part in the median of the deviations.
		if d := math.Abs(x - med); !math.IsInf(d, 0) {
			devs = append(devs, d)
		}
	}
	if len(devs) == 0 {
		return 0, 0, ErrEmpty
	}
	return med, quantileSelect(devs, 0.5), nil
}

// ModifiedZ returns the Iglewicz-Hoaglin modified z-score
// 0.6745*(x-med)/mad of a finite value x, given the median and the MAD of
// its sample (MedianMAD). When the MAD is zero the score is +Inf for any
// value different from the median (a degenerate but well-defined outcome)
// and 0 at the median.
func ModifiedZ(x, med, mad float64) float64 {
	if mad == 0 {
		if x == med {
			return 0
		}
		return math.Inf(1)
	}
	return 0.6745 * (x - med) / mad
}
