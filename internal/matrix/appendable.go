package matrix

import "fmt"

// Appendable is a growable row-major point buffer: the incremental
// counterpart of Matrix. Rows append at the end into one flat []float64
// whose capacity doubles on exhaustion, so appending d rows to an n-row
// buffer costs amortized O(d) — never O(n) — and the previous epoch's rows
// are reused in place, zero-copy.
//
// Matrix() returns a view over the current rows sharing the backing
// slice. Because rows are only ever appended (never rewritten), a view
// taken at an earlier length stays valid and immutable while later
// appends extend the buffer: either the appends land beyond the view's
// rows, or a reallocation leaves the view pointing at the old, now-frozen
// array. This is what lets a refresh lineage keep serving epoch N's
// matrix while epoch N+1 materializes only its delta.
type Appendable struct {
	cols int
	rows int
	data []float64
}

// NewAppendable returns an empty appendable point buffer with the given
// column count.
func NewAppendable(cols int) (*Appendable, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("matrix: appendable with %d columns", cols)
	}
	return &Appendable{cols: cols}, nil
}

// Cols returns the column count.
func (a *Appendable) Cols() int { return a.cols }

// ensure grows the backing slice to hold extra more rows, at least
// doubling the capacity so a long append sequence costs amortized O(1)
// per element.
func (a *Appendable) ensure(extra int) {
	need := (a.rows + extra) * a.cols
	if need <= cap(a.data) {
		return
	}
	newCap := 2 * cap(a.data)
	if newCap < need {
		newCap = need
	}
	if newCap < 16*a.cols {
		newCap = 16 * a.cols
	}
	grown := make([]float64, len(a.data), newCap)
	copy(grown, a.data)
	a.data = grown
}

// AppendRow copies one row (len == Cols) onto the end of the buffer.
func (a *Appendable) AppendRow(row []float64) error {
	if len(row) != a.cols {
		return fmt.Errorf("matrix: appending %d-wide row to %d-column buffer", len(row), a.cols)
	}
	a.ensure(1)
	a.data = append(a.data, row...)
	a.rows++
	return nil
}

// Matrix returns a zero-copy view over the current rows. The view must be
// treated as read-only; it stays valid across later appends.
func (a *Appendable) Matrix() *Matrix {
	return &Matrix{rows: a.rows, cols: a.cols, stride: a.cols, data: a.data[:a.rows*a.cols]}
}
