// Package table implements the in-memory columnar dataset INDICE operates
// on. An EPC collection is loaded into a Table of typed columns (float64 or
// string) with per-cell validity masks, and every downstream stage —
// geospatial cleaning, outlier removal, querying, clustering, rule mining,
// rendering — works against this representation.
//
// The design favours column-at-a-time access: analytics read whole columns
// as slices, and row-level operations (filters, selections) materialize new
// tables by copying the surviving rows.
package table

import (
	"errors"
	"fmt"
	"math"
)

// Type enumerates the supported column types.
type Type int

const (
	// Float64 is a numeric (quantitative) column.
	Float64 Type = iota
	// String is a categorical column.
	String
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Field describes one column of a schema.
type Field struct {
	Name string
	Type Type
}

// Column is a typed column with a validity mask. A Float64 column holds
// its cells in Floats; a String column holds one code per row in Codes,
// each the position of the cell's value in Dict (see dict.go for the
// dictionary's sharing rules). Valid[i] reports whether row i holds a
// value; invalid float cells also carry NaN so accidental reads are loud,
// and an invalid string cell still has a code — of "" unless a binary file
// smuggled a payload in.
type Column struct {
	Name   string
	Typ    Type
	Floats []float64
	Codes  []uint32
	Dict   []string
	Valid  []bool

	// index is the value → code scratch of whoever appends by value.
	index map[string]uint32
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.Typ == Float64 {
		return len(c.Floats)
	}
	return len(c.Codes)
}

// clone copies the column's cells; the dictionary is shared.
func (c *Column) clone() *Column {
	out := &Column{Name: c.Name, Typ: c.Typ, Dict: c.sharedDict()}
	out.Valid = append([]bool(nil), c.Valid...)
	if c.Typ == Float64 {
		out.Floats = append([]float64(nil), c.Floats...)
	} else {
		out.Codes = append([]uint32(nil), c.Codes...)
	}
	return out
}

// take materializes a new column containing the given rows, in order; the
// dictionary is shared.
func (c *Column) take(rows []int) *Column {
	out := &Column{Name: c.Name, Typ: c.Typ, Dict: c.sharedDict(), Valid: make([]bool, len(rows))}
	if c.Typ == Float64 {
		out.Floats = make([]float64, len(rows))
		for i, r := range rows {
			out.Floats[i] = c.Floats[r]
			out.Valid[i] = c.Valid[r]
		}
	} else {
		out.Codes = make([]uint32, len(rows))
		for i, r := range rows {
			out.Codes[i] = c.Codes[r]
			out.Valid[i] = c.Valid[r]
		}
	}
	return out
}

// Table is an ordered collection of equal-length columns.
type Table struct {
	cols  []*Column
	index map[string]int
	rows  int

	// memo is code-translation scratch of appends into this table (rebase).
	memo []uint32
}

// New returns an empty table with no columns and no rows.
func New() *Table {
	return &Table{index: make(map[string]int)}
}

// ErrNoColumn is wrapped by errors returned for unknown column names.
var ErrNoColumn = errors.New("table: no such column")

// ErrTypeMismatch is wrapped by errors returned when a column is accessed
// with the wrong type.
var ErrTypeMismatch = errors.New("table: column type mismatch")

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Schema returns the ordered field list.
func (t *Table) Schema() []Field {
	out := make([]Field, len(t.cols))
	for i, c := range t.cols {
		out[i] = Field{Name: c.Name, Type: c.Typ}
	}
	return out
}

// ColumnNames returns the column names in schema order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.index[name]
	return ok
}

// TypeOf returns the type of the named column.
func (t *Table) TypeOf(name string) (Type, error) {
	i, ok := t.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	return t.cols[i].Typ, nil
}

// AddFloats appends a numeric column. Cells holding NaN are marked invalid.
// The column length must match the table's row count unless the table has
// no columns yet.
func (t *Table) AddFloats(name string, vals []float64) error {
	if err := t.checkAdd(name, len(vals)); err != nil {
		return err
	}
	valid := make([]bool, len(vals))
	data := append([]float64(nil), vals...)
	for i, v := range data {
		valid[i] = !math.IsNaN(v)
	}
	t.push(&Column{Name: name, Typ: Float64, Floats: data, Valid: valid})
	return nil
}

// AddFloatsValid appends a numeric column with an explicit validity mask.
func (t *Table) AddFloatsValid(name string, vals []float64, valid []bool) error {
	if len(vals) != len(valid) {
		return errors.New("table: values/validity length mismatch")
	}
	if err := t.checkAdd(name, len(vals)); err != nil {
		return err
	}
	data := append([]float64(nil), vals...)
	mask := append([]bool(nil), valid...)
	for i := range data {
		if !mask[i] {
			data[i] = math.NaN()
		}
	}
	t.push(&Column{Name: name, Typ: Float64, Floats: data, Valid: mask})
	return nil
}

// AddStrings appends a categorical column; every cell is valid.
func (t *Table) AddStrings(name string, vals []string) error {
	if err := t.checkAdd(name, len(vals)); err != nil {
		return err
	}
	valid := make([]bool, len(vals))
	for i := range valid {
		valid[i] = true
	}
	t.push(newStringColumn(name, vals, valid))
	return nil
}

// AddStringsValid appends a categorical column with an explicit validity mask.
func (t *Table) AddStringsValid(name string, vals []string, valid []bool) error {
	if len(vals) != len(valid) {
		return errors.New("table: values/validity length mismatch")
	}
	if err := t.checkAdd(name, len(vals)); err != nil {
		return err
	}
	t.push(newStringColumn(name, vals, append([]bool(nil), valid...)))
	return nil
}

func (t *Table) checkAdd(name string, n int) error {
	if name == "" {
		return errors.New("table: empty column name")
	}
	if _, dup := t.index[name]; dup {
		return fmt.Errorf("table: duplicate column %q", name)
	}
	if len(t.cols) > 0 && n != t.rows {
		return fmt.Errorf("table: column %q has %d rows, table has %d", name, n, t.rows)
	}
	return nil
}

func (t *Table) push(c *Column) {
	if len(t.cols) == 0 {
		t.rows = c.Len()
	}
	t.index[c.Name] = len(t.cols)
	t.cols = append(t.cols, c)
}

// Floats returns the backing slice of the named numeric column. The slice
// is shared with the table; callers must not modify it. Invalid cells hold
// NaN.
func (t *Table) Floats(name string) ([]float64, error) {
	i, ok := t.index[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	c := t.cols[i]
	if c.Typ != Float64 {
		return nil, fmt.Errorf("%w: %q is %v, want float64", ErrTypeMismatch, name, c.Typ)
	}
	return c.Floats, nil
}

// Strings returns the cells of the named categorical column as a fresh
// slice the caller owns: 16 bytes per row, each call. Code that runs per
// request or per batch reads StringCodes instead.
func (t *Table) Strings(name string) ([]string, error) {
	codes, dict, err := t.StringCodes(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(codes))
	for i, k := range codes {
		out[i] = dict[k]
	}
	return out, nil
}

// StringCodes returns the named categorical column as it is held: row i's
// value is dict[codes[i]]. Both slices are shared with the table; callers
// must not modify them. dict may hold entries no row uses, and a value
// more than once: it is not the column's set of levels (see dict.go).
func (t *Table) StringCodes(name string) (codes []uint32, dict []string, err error) {
	i, ok := t.index[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	c := t.cols[i]
	if c.Typ != String {
		return nil, nil, fmt.Errorf("%w: %q is %v, want string", ErrTypeMismatch, name, c.Typ)
	}
	return c.Codes, c.Dict, nil
}

// ValidMask returns the validity mask of the named column (shared slice).
func (t *Table) ValidMask(name string) ([]bool, error) {
	i, ok := t.index[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	return t.cols[i].Valid, nil
}

// SetFloat writes a value to a numeric cell and marks it valid.
func (t *Table) SetFloat(name string, row int, v float64) error {
	i, ok := t.index[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	c := t.cols[i]
	if c.Typ != Float64 {
		return fmt.Errorf("%w: %q is %v, want float64", ErrTypeMismatch, name, c.Typ)
	}
	if row < 0 || row >= t.rows {
		return fmt.Errorf("table: row %d out of range [0,%d)", row, t.rows)
	}
	c.Floats[row] = v
	c.Valid[row] = !math.IsNaN(v)
	return nil
}

// SetString writes a value to a categorical cell and marks it valid.
func (t *Table) SetString(name string, row int, v string) error {
	i, ok := t.index[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	c := t.cols[i]
	if c.Typ != String {
		return fmt.Errorf("%w: %q is %v, want string", ErrTypeMismatch, name, c.Typ)
	}
	if row < 0 || row >= t.rows {
		return fmt.Errorf("table: row %d out of range [0,%d)", row, t.rows)
	}
	c.Codes[row] = c.code(v)
	c.Valid[row] = true
	return nil
}

// SetInvalid marks a cell as missing.
func (t *Table) SetInvalid(name string, row int) error {
	i, ok := t.index[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	if row < 0 || row >= t.rows {
		return fmt.Errorf("table: row %d out of range [0,%d)", row, t.rows)
	}
	c := t.cols[i]
	c.Valid[row] = false
	if c.Typ == Float64 {
		c.Floats[row] = math.NaN()
	} else {
		c.Codes[row] = c.code("")
	}
	return nil
}

// Clone copies the table's cells into one the caller may rewrite.
func (t *Table) Clone() *Table {
	out := New()
	for _, c := range t.cols {
		out.push(c.clone())
	}
	return out
}

// Select returns a new table holding only the named columns, in the given
// order. Columns are copied as Clone copies them.
func (t *Table) Select(names ...string) (*Table, error) {
	out := New()
	for _, n := range names {
		i, ok := t.index[n]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoColumn, n)
		}
		out.push(t.cols[i].clone())
	}
	return out, nil
}

// Take returns a new table containing the given row indices, in order.
// Indices may repeat. Out-of-range indices are an error.
func (t *Table) Take(rows []int) (*Table, error) {
	for _, r := range rows {
		if r < 0 || r >= t.rows {
			return nil, fmt.Errorf("table: row %d out of range [0,%d)", r, t.rows)
		}
	}
	out := New()
	for _, c := range t.cols {
		out.push(c.take(rows))
	}
	if len(t.cols) == 0 {
		out.rows = 0
	}
	return out, nil
}

// FilterMask returns a new table containing the rows where keep[i] is true.
func (t *Table) FilterMask(keep []bool) (*Table, error) {
	if len(keep) != t.rows {
		return nil, fmt.Errorf("table: mask has %d entries, table has %d rows", len(keep), t.rows)
	}
	rows := make([]int, 0, t.rows)
	for i, k := range keep {
		if k {
			rows = append(rows, i)
		}
	}
	return t.Take(rows)
}

// DropRows returns a new table without the given row indices.
func (t *Table) DropRows(drop []int) (*Table, error) {
	mask := make([]bool, t.rows)
	for i := range mask {
		mask[i] = true
	}
	for _, r := range drop {
		if r < 0 || r >= t.rows {
			return nil, fmt.Errorf("table: row %d out of range [0,%d)", r, t.rows)
		}
		mask[r] = false
	}
	return t.FilterMask(mask)
}

// GroupByString partitions rows by the values of the named categorical
// column. The returned map's slices hold row indices in ascending order.
// Invalid cells group under the empty string.
func (t *Table) GroupByString(name string) (map[string][]int, error) {
	vals, err := t.Strings(name)
	if err != nil {
		return nil, err
	}
	valid, _ := t.ValidMask(name)
	groups := make(map[string][]int)
	for i, v := range vals {
		key := v
		if !valid[i] {
			key = ""
		}
		groups[key] = append(groups[key], i)
	}
	return groups, nil
}

// ValidFloats returns the valid values of a numeric column (no NaN).
func (t *Table) ValidFloats(name string) ([]float64, error) {
	vals, err := t.Floats(name)
	if err != nil {
		return nil, err
	}
	valid, _ := t.ValidMask(name)
	out := make([]float64, 0, len(vals))
	for i, v := range vals {
		if valid[i] {
			out = append(out, v)
		}
	}
	return out, nil
}

// NumericColumns returns the names of all Float64 columns in schema order.
func (t *Table) NumericColumns() []string {
	var out []string
	for _, c := range t.cols {
		if c.Typ == Float64 {
			out = append(out, c.Name)
		}
	}
	return out
}

// CategoricalColumns returns the names of all String columns in schema order.
func (t *Table) CategoricalColumns() []string {
	var out []string
	for _, c := range t.cols {
		if c.Typ == String {
			out = append(out, c.Name)
		}
	}
	return out
}

// Matrix extracts the named numeric columns as a row-major matrix. Rows
// with any invalid cell among the selected columns are skipped; the second
// return value maps matrix rows back to table rows.
func (t *Table) Matrix(names ...string) ([][]float64, []int, error) {
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
	var mat [][]float64
	var rowIdx []int
	for r := 0; r < t.rows; r++ {
		ok := true
		for _, m := range masks {
			if !m[r] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row := make([]float64, len(names))
		for i := range names {
			row[i] = cols[i][r]
		}
		mat = append(mat, row)
		rowIdx = append(rowIdx, r)
	}
	return mat, rowIdx, nil
}
