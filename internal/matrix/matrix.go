// Package matrix implements the dense row-major float64 matrix the
// compute layer of INDICE operates on, plus the reusable numeric kernels
// the clustering, outlier and query stages share.
//
// A Matrix is one flat []float64 with an explicit row stride, so a row is
// a contiguous sub-slice and iterating points walks memory linearly
// instead of chasing [][]float64 row pointers. The stride may exceed the
// column count, which makes zero-copy strided views possible (e.g. every
// s-th row of another matrix, used by the outlier stage's deterministic
// parameter-estimation sample).
//
// Two arithmetic regimes coexist deliberately:
//
//   - SqDist is the exact reference loop (sum of squared differences in
//     index order). Every result that must be bitwise-reproducible —
//     K-means assignments, DBSCAN neighbourhoods, silhouette scores —
//     bottoms out in this loop.
//   - SqDistsTo uses the |x|²+|c|²−2·x·c expansion with precomputed
//     norms. It is faster (norms amortize across calls) but rounded
//     differently; SqDistErrorBound bounds the divergence so
//     callers can screen with the fast kernel and confirm with the exact
//     one when the margin is too small to decide.
package matrix

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix: element (i, j) lives at
// data[i*stride+j]. Rows are contiguous; stride >= cols.
type Matrix struct {
	rows, cols, stride int
	data               []float64
}

// New allocates a zeroed rows×cols matrix with stride == cols.
func New(rows, cols int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: negative shape %dx%d", rows, cols)
	}
	if cols > 0 && rows > (1<<48)/cols {
		return nil, fmt.Errorf("matrix: shape %dx%d overflows", rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, stride: cols, data: make([]float64, rows*cols)}, nil
}

// FromRows copies a [][]float64 point set into a fresh contiguous matrix.
// All rows must have equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m, err := New(len(rows), cols)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// FromData wraps an existing backing slice as a rows×cols matrix with the
// given stride, without copying. The shape must be consistent: stride >=
// cols and data long enough to hold the last row.
func FromData(data []float64, rows, cols, stride int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: negative shape %dx%d", rows, cols)
	}
	if stride < cols {
		return nil, fmt.Errorf("matrix: stride %d < cols %d", stride, cols)
	}
	if rows > 0 {
		// The last row's slice [off, off+cols) must lie inside data even
		// when cols == 0 (Row still computes the offset).
		if rows > 1 && stride > 0 && (rows-1) > (1<<48)/stride {
			return nil, fmt.Errorf("matrix: shape %dx%d stride %d overflows", rows, cols, stride)
		}
		need := (rows-1)*stride + cols
		if need > len(data) {
			return nil, fmt.Errorf("matrix: %dx%d stride %d needs %d elements, have %d",
				rows, cols, stride, need, len(data))
		}
	}
	return &Matrix{rows: rows, cols: cols, stride: stride, data: data}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Data returns the backing slice. Shared, not a copy: callers must treat
// it as read-only unless they own the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// Row returns row i as a length- and capacity-capped sub-slice of the
// backing data (no copy).
func (m *Matrix) Row(i int) []float64 {
	off := i * m.stride
	return m.data[off : off+m.cols : off+m.cols]
}

// CopyRow copies src into row i.
func (m *Matrix) CopyRow(i int, src []float64) { copy(m.Row(i), src) }

// StrideView returns a zero-copy view of every step-th row of m (rows 0,
// step, 2·step, …), capped at maxRows (unlimited when maxRows <= 0).
func (m *Matrix) StrideView(step, maxRows int) (*Matrix, error) {
	if step < 1 {
		return nil, fmt.Errorf("matrix: stride-view step %d < 1", step)
	}
	rows := (m.rows + step - 1) / step
	if maxRows > 0 && rows > maxRows {
		rows = maxRows
	}
	return FromData(m.data, rows, m.cols, step*m.stride)
}

// Finite reports the index of the first row holding a NaN or Inf entry,
// or -1 when every element is finite.
func (m *Matrix) Finite() int {
	for i := 0; i < m.rows; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return i
			}
		}
	}
	return -1
}

// SqDist is the exact squared Euclidean distance: the sum of squared
// coordinate differences folded in index order. This is the reference
// arithmetic every bitwise-reproducible result bottoms out in.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// RowNorms writes the squared Euclidean norm of every row into dst
// (grown if needed) and returns it.
func (m *Matrix) RowNorms(dst []float64) []float64 {
	if cap(dst) < m.rows {
		dst = make([]float64, m.rows)
	}
	dst = dst[:m.rows]
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v * v
		}
		dst[i] = s
	}
	return dst
}

// SqDistsTo writes into dst the approximate squared distance from x to
// every row of c via the |x|²+|c|²−2·x·c expansion, with xn = |x|² and
// cn[j] = |c_j|² precomputed. dst is grown if needed and returned.
//
// The expansion is rounded differently from SqDist; the divergence per
// entry is bounded by SqDistErrorBound(len(x), xn, cn[j]). Results can be
// slightly negative for (near-)coincident points.
func SqDistsTo(dst []float64, x []float64, xn float64, c *Matrix, cn []float64) []float64 {
	k := c.rows
	if cap(dst) < k {
		dst = make([]float64, k)
	}
	dst = dst[:k]
	for j := 0; j < k; j++ {
		row := c.Row(j)
		var dot float64
		for d := range x {
			dot += x[d] * row[d]
		}
		dst[j] = xn + cn[j] - 2*dot
	}
	return dst
}

// SqDistErrorBound returns a conservative bound on the absolute
// divergence between SqDistsTo's expanded computation and the exact
// SqDist loop for vectors with squared norms xn and cn over cols
// coordinates. The bound is deliberately loose (a few orders of magnitude
// above the worst-case rounding noise) so screening with it errs on the
// side of confirming with the exact kernel.
func SqDistErrorBound(cols int, xn, cn float64) float64 {
	return 4e-15 * float64(cols+8) * (xn + cn + 1)
}

// ColMinMax computes per-column minima and maxima over every row. A
// matrix without rows reports +Inf/-Inf. Iteration is row-major, matching
// the reference two-level loop bitwise.
func (m *Matrix) ColMinMax() (mins, maxs []float64) {
	mins, maxs = make([]float64, m.cols), make([]float64, m.cols)
	for d := 0; d < m.cols; d++ {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
	}
	for i := 0; i < m.rows; i++ {
		for d, v := range m.Row(i) {
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	return mins, maxs
}

// Normalize min-max scales every column of m to [0, 1] in place
// (constant columns map to 0) and returns the per-column bounds it scaled
// with: the normalization the clustering and multivariate-outlier stages
// share, whose bounds map centroids back to raw attribute space. The
// arithmetic matches the historical per-row loop bitwise: bounds come
// from row-major ColMinMax and each cell maps through (v-min)/span. An
// empty matrix has no bounds.
func (m *Matrix) Normalize() (mins, maxs []float64) {
	if m.rows == 0 || m.cols == 0 {
		return nil, nil
	}
	mins, maxs = m.ColMinMax()
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for d, v := range row {
			row[d] = 0
			if span := maxs[d] - mins[d]; span > 0 {
				row[d] = (v - mins[d]) / span
			}
		}
	}
	return mins, maxs
}
