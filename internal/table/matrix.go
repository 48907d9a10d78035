package table

import "indice/internal/matrix"

// DenseMatrix extracts the named numeric columns as one flat row-major
// matrix.Matrix. Rows with any invalid cell among the selected columns
// are skipped; the second return value maps matrix rows back to table
// rows. This is the zero-pointer-chasing counterpart of Matrix: the
// analytics stages build it once per snapshot and share it (read-only)
// across clustering, outlier detection and the quality indexes.
func (t *Table) DenseMatrix(names ...string) (*matrix.Matrix, []int, error) {
	cols := make([][]float64, len(names))
	masks := make([][]bool, len(names))
	for i, n := range names {
		v, err := t.Floats(n)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = v
		masks[i], _ = t.ValidMask(n)
	}
	// First pass: count complete rows so the matrix allocates once.
	complete := 0
	for r := 0; r < t.rows; r++ {
		ok := true
		for _, m := range masks {
			if !m[r] {
				ok = false
				break
			}
		}
		if ok {
			complete++
		}
	}
	m, err := matrix.New(complete, len(names))
	if err != nil {
		return nil, nil, err
	}
	rowIdx := make([]int, 0, complete)
	for r := 0; r < t.rows; r++ {
		ok := true
		for _, mask := range masks {
			if !mask[r] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row := m.Row(len(rowIdx))
		for i := range cols {
			row[i] = cols[i][r]
		}
		rowIdx = append(rowIdx, r)
	}
	return m, rowIdx, nil
}
