package stats

import (
	"errors"
	"sort"
)

// Histogram is an equal-width binning of a numeric attribute, the data
// structure behind the INDICE frequency-distribution panels.
type Histogram struct {
	// Edges has len(Counts)+1 entries; bin i covers [Edges[i], Edges[i+1])
	// except the last bin, which is closed on the right.
	Edges  []float64
	Counts []int
	// Total is the number of finite values binned.
	Total int
}

// NewHistogram bins the finite values of xs into the given number of
// equal-width bins spanning [min, max]. With a constant input all values
// land in a single bin. It reads xs in place: a panel bins a whole column
// without a cleaned copy of it.
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	min, max, err := MinMax(xs)
	if err != nil {
		return nil, err
	}
	if min == max {
		bins = 1
	}
	h := &Histogram{
		Edges:  make([]float64, bins+1),
		Counts: make([]int, bins),
	}
	width := (max - min) / float64(bins)
	for i := 0; i <= bins; i++ {
		h.Edges[i] = min + float64(i)*width
	}
	h.Edges[bins] = max // avoid FP drift on the last edge
	for _, x := range xs {
		if !finite(x) {
			continue
		}
		h.Total++
		if width == 0 {
			h.Counts[0]++
			continue
		}
		i := int((x - min) / width)
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h, nil
}

// MaxCount returns the largest bin count (used for chart scaling).
func (h *Histogram) MaxCount() int {
	var m int
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// CategoryCount pairs a categorical value with its number of occurrences.
type CategoryCount struct {
	Value string
	Count int
}

// CategoricalDescription summarizes a categorical attribute: total count,
// the mode and its frequency, and the top-k most frequent values, as the
// paper specifies for categorical frequency panels.
type CategoricalDescription struct {
	Count    int
	Distinct int
	Mode     string
	ModeFreq int
	TopK     []CategoryCount
}

// DescribeCategorical computes the CategoricalDescription of vs, keeping
// the k most frequent values (ties broken lexicographically for
// determinism). Empty strings are counted as the category "" like any
// other value.
func DescribeCategorical(vs []string, k int) CategoricalDescription {
	counts := make(map[string]int)
	for _, v := range vs {
		counts[v]++
	}
	return DescribeCounts(counts, k)
}

// DescribeCounts is DescribeCategorical over how often each value occurs
// (counts[v] ≥ 1): what a reader counting a dictionary-coded column's
// codes hands in instead of one string per cell.
func DescribeCounts(counts map[string]int, k int) CategoricalDescription {
	n := 0
	all := make([]CategoryCount, 0, len(counts))
	for v, c := range counts {
		all = append(all, CategoryCount{Value: v, Count: c})
		n += c
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Value < all[j].Value
	})
	d := CategoricalDescription{
		Count:    n,
		Distinct: len(all),
	}
	if len(all) > 0 {
		d.Mode = all[0].Value
		d.ModeFreq = all[0].Count
	}
	if k > len(all) {
		k = len(all)
	}
	if k > 0 {
		d.TopK = append([]CategoryCount(nil), all[:k]...)
	}
	return d
}
