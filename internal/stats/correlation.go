package stats

import (
	"errors"
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient ρ between xs and ys,
// defined as cov(X,Y)/(σX·σY) as in the INDICE correlation-matrix panel.
// Pairs with non-finite values are skipped pairwise. When either variable
// is constant the coefficient is reported as 0 (no linear association can
// be measured), matching how the dashboard renders degenerate attributes.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: pearson length mismatch")
	}
	var sx, sy float64
	var n int
	for i := range xs {
		if !finite(xs[i]) || !finite(ys[i]) {
			continue
		}
		sx += xs[i]
		sy += ys[i]
		n++
	}
	if n < 2 {
		return 0, ErrShort
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	for i := range xs {
		if !finite(xs[i]) || !finite(ys[i]) {
			continue
		}
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Guard against rounding slightly outside [-1, 1].
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// CorrelationMatrix holds the pairwise Pearson coefficients over a set of
// named numeric attributes, in the order given by Names.
type CorrelationMatrix struct {
	Names []string
	// Coef[i][j] is the Pearson correlation between attribute i and j.
	Coef [][]float64
}

// NewCorrelationMatrix computes the full pairwise Pearson correlation
// matrix of the named columns. Columns must all have the same length.
func NewCorrelationMatrix(names []string, cols [][]float64) (*CorrelationMatrix, error) {
	if len(names) != len(cols) {
		return nil, errors.New("stats: names/columns length mismatch")
	}
	k := len(names)
	m := &CorrelationMatrix{
		Names: append([]string(nil), names...),
		Coef:  make([][]float64, k),
	}
	for i := range m.Coef {
		m.Coef[i] = make([]float64, k)
		m.Coef[i][i] = 1
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			r, err := Pearson(cols[i], cols[j])
			if err != nil {
				return nil, err
			}
			m.Coef[i][j] = r
			m.Coef[j][i] = r
		}
	}
	return m, nil
}

// MaxAbsOffDiagonal returns the strongest absolute pairwise correlation in
// the matrix, ignoring the diagonal. The INDICE analytics engine uses this
// to decide whether an attribute subset is "eligible for the analytic
// task" (no evident linear correlation).
func (m *CorrelationMatrix) MaxAbsOffDiagonal() float64 {
	var best float64
	for i := range m.Coef {
		for j := range m.Coef[i] {
			if i == j {
				continue
			}
			if a := math.Abs(m.Coef[i][j]); a > best {
				best = a
			}
		}
	}
	return best
}

// WeaklyCorrelated reports whether every off-diagonal coefficient has
// absolute value strictly below threshold.
func (m *CorrelationMatrix) WeaklyCorrelated(threshold float64) bool {
	return m.MaxAbsOffDiagonal() < threshold
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Spearman returns the Spearman rank correlation between xs and ys: the
// Pearson coefficient of the value ranks, robust to monotone nonlinear
// association and to the heavy tails of EPC attributes. Ties receive
// their average rank; pairs with non-finite values are skipped.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: spearman length mismatch")
	}
	var fx, fy []float64
	for i := range xs {
		if finite(xs[i]) && finite(ys[i]) {
			fx = append(fx, xs[i])
			fy = append(fy, ys[i])
		}
	}
	if len(fx) < 2 {
		return 0, ErrShort
	}
	return Pearson(ranks(fx), ranks(fy))
}

// ranks returns average ranks (1-based) of xs.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank over the tie run [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
