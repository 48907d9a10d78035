// Package supervised implements the supervised techniques INDICE offers
// energy scientists for benchmarking analysis (§2.2.1 mentions supervised
// and unsupervised characterization; the future work plans more): a
// k-nearest-neighbour regressor over the thermo-physical attributes plus
// the evaluation utilities (deterministic train/test split, R², MAE).
package supervised

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// KNN is a k-nearest-neighbour model over min-max normalized features.
// The zero value is unusable; construct with NewKNN.
type KNN struct {
	k      int
	feats  [][]float64
	mins   []float64
	spans  []float64
	target []float64
}

// NewKNN validates k and the training features and returns an un-fitted
// model skeleton; use FitRegression.
func NewKNN(k int) (*KNN, error) {
	if k < 1 {
		return nil, fmt.Errorf("supervised: k must be >= 1, got %d", k)
	}
	return &KNN{k: k}, nil
}

// fitFeatures normalizes and stores the training features.
func (m *KNN) fitFeatures(X [][]float64) error {
	if len(X) == 0 {
		return errors.New("supervised: empty training set")
	}
	dim := len(X[0])
	if dim == 0 {
		return errors.New("supervised: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != dim {
			return fmt.Errorf("supervised: row %d has dim %d, want %d", i, len(row), dim)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("supervised: row %d holds a non-finite value", i)
			}
		}
	}
	if m.k > len(X) {
		return fmt.Errorf("supervised: k=%d exceeds training size %d", m.k, len(X))
	}
	m.mins = make([]float64, dim)
	m.spans = make([]float64, dim)
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range X {
			if row[d] < lo {
				lo = row[d]
			}
			if row[d] > hi {
				hi = row[d]
			}
		}
		m.mins[d] = lo
		if hi > lo {
			m.spans[d] = hi - lo
		} else {
			m.spans[d] = 1
		}
	}
	m.feats = make([][]float64, len(X))
	for i, row := range X {
		m.feats[i] = m.normalize(row)
	}
	return nil
}

func (m *KNN) normalize(row []float64) []float64 {
	out := make([]float64, len(row))
	for d, v := range row {
		out[d] = (v - m.mins[d]) / m.spans[d]
	}
	return out
}

// FitRegression trains the model on numeric targets.
func (m *KNN) FitRegression(X [][]float64, y []float64) error {
	if len(X) != len(y) {
		return errors.New("supervised: features/targets length mismatch")
	}
	if err := m.fitFeatures(X); err != nil {
		return err
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("supervised: target %d is non-finite", i)
		}
	}
	m.target = append([]float64(nil), y...)
	return nil
}

// neighbour pairs a training index with its distance to the query.
type neighbour struct {
	idx int
	d   float64
}

// nearest returns the k nearest training rows to x (normalized space).
func (m *KNN) nearest(x []float64) ([]neighbour, error) {
	if len(m.feats) == 0 {
		return nil, errors.New("supervised: model not fitted")
	}
	if len(x) != len(m.mins) {
		return nil, fmt.Errorf("supervised: query dim %d, want %d", len(x), len(m.mins))
	}
	q := m.normalize(x)
	ns := make([]neighbour, len(m.feats))
	for i, row := range m.feats {
		var s float64
		for d := range row {
			diff := row[d] - q[d]
			s += diff * diff
		}
		ns[i] = neighbour{idx: i, d: s}
	}
	sort.Slice(ns, func(a, b int) bool {
		if ns[a].d != ns[b].d {
			return ns[a].d < ns[b].d
		}
		return ns[a].idx < ns[b].idx
	})
	return ns[:m.k], nil
}

// PredictValue returns the mean target of the k nearest neighbours.
func (m *KNN) PredictValue(x []float64) (float64, error) {
	if m.target == nil {
		return 0, errors.New("supervised: model not fitted for regression")
	}
	ns, err := m.nearest(x)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, n := range ns {
		s += m.target[n.idx]
	}
	return s / float64(len(ns)), nil
}

// SplitIndices returns a deterministic shuffled train/test index split
// with the given test fraction.
func SplitIndices(n int, testFrac float64, seed int64) (train, test []int, err error) {
	if n < 2 {
		return nil, nil, errors.New("supervised: need at least two rows to split")
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("supervised: test fraction %v out of (0,1)", testFrac)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	nTest := int(float64(n) * testFrac)
	if nTest < 1 {
		nTest = 1
	}
	if nTest >= n {
		nTest = n - 1
	}
	return perm[nTest:], perm[:nTest], nil
}

// R2 returns the coefficient of determination of predictions vs truth.
func R2(truth, pred []float64) (float64, error) {
	if len(truth) != len(pred) || len(truth) == 0 {
		return 0, errors.New("supervised: R2 needs matching non-empty slices")
	}
	var mean float64
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		r := truth[i] - pred[i]
		ssRes += r * r
		d := truth[i] - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}

// MAE returns the mean absolute error.
func MAE(truth, pred []float64) (float64, error) {
	if len(truth) != len(pred) || len(truth) == 0 {
		return 0, errors.New("supervised: MAE needs matching non-empty slices")
	}
	var s float64
	for i := range truth {
		s += math.Abs(truth[i] - pred[i])
	}
	return s / float64(len(truth)), nil
}
