package cart

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Binning is the discretization of one continuous attribute: the ordered
// edges and the class labels assigned to each interval. With k edges there
// are k+1 classes. Intervals follow the paper's footnote-4 convention:
// the first class is closed [lo, e1], later classes are half-open (ei,
// ei+1].
type Binning struct {
	Attr string
	// Edges are the interior cut points, ascending.
	Edges []float64
	// Labels name each class, ordered from the lowest interval up.
	Labels []string
	// Lo and Hi are the observed attribute extremes, kept for rendering
	// interval strings.
	Lo, Hi float64
}

// classNames provides the paper-style ordered labels.
var classNames = []string{"Low", "Medium", "High", "Very high", "Extreme"}

// NewBinning builds a Binning from interior edges; at most 5 classes are
// labelled with the paper's vocabulary, beyond that classes are numbered.
func NewBinning(attr string, edges []float64, lo, hi float64) (*Binning, error) {
	if attr == "" {
		return nil, fmt.Errorf("cart: binning needs an attribute name")
	}
	es := append([]float64(nil), edges...)
	sort.Float64s(es)
	// Drop edges outside (lo, hi) and duplicates.
	uniq := es[:0]
	for _, e := range es {
		if e <= lo || e >= hi {
			continue
		}
		if len(uniq) > 0 && e == uniq[len(uniq)-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	es = uniq
	k := len(es) + 1
	labels := make([]string, k)
	for i := range labels {
		if k <= len(classNames) {
			labels[i] = classNames[i]
		} else {
			labels[i] = fmt.Sprintf("C%02d", i+1)
		}
	}
	return &Binning{Attr: attr, Edges: es, Labels: labels, Lo: lo, Hi: hi}, nil
}

// Classes returns the number of classes.
func (b *Binning) Classes() int { return len(b.Labels) }

// Assign returns the class label of value x. Values below the observed
// minimum fall into the first class, above the maximum into the last, and
// NaN returns the empty string.
func (b *Binning) Assign(x float64) string {
	if math.IsNaN(x) {
		return ""
	}
	for i, e := range b.Edges {
		if x <= e {
			return b.Labels[i]
		}
	}
	return b.Labels[len(b.Labels)-1]
}

// Interval renders the class interval in the paper's footnote notation,
// e.g. "Low = [0.15, 0.45]" then "Medium = (0.45, 0.65]".
func (b *Binning) Interval(class string) (string, bool) {
	idx := -1
	for i, l := range b.Labels {
		if l == class {
			idx = i
			break
		}
	}
	if idx < 0 {
		return "", false
	}
	lo, hi := b.Lo, b.Hi
	open := "["
	if idx > 0 {
		lo = b.Edges[idx-1]
		open = "("
	}
	if idx < len(b.Edges) {
		hi = b.Edges[idx]
	}
	return fmt.Sprintf("%s%s, %s]", open, trimFloat(lo), trimFloat(hi)), true
}

// String renders the whole binning in footnote-4 style.
func (b *Binning) String() string {
	parts := make([]string, 0, len(b.Labels))
	for _, l := range b.Labels {
		iv, _ := b.Interval(l)
		parts = append(parts, fmt.Sprintf("%s = %s", l, iv))
	}
	return fmt.Sprintf("%d classes for %s (%s)", b.Classes(), b.Attr, strings.Join(parts, ", "))
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Discretize fits a CART tree of xs against the response ys and returns
// the resulting Binning for the attribute. This is the paper's
// discretization: "creating a decision CART for each variable, using as
// response variable the annual primary energy demand normalized on the
// floor area; the tree splits are used as bins".
func Discretize(attr string, xs, ys []float64, cfg Config) (*Binning, error) {
	t, err := Fit(xs, ys, cfg)
	if err != nil {
		return nil, fmt.Errorf("cart: discretizing %q: %w", attr, err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if !finite(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return NewBinning(attr, t.SplitPoints(), lo, hi)
}
