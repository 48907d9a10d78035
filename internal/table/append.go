package table

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Row-growth support for the streaming store: tables can be created empty
// from a schema and grown row-at-a-time or batch-at-a-time, and a batch can
// be split into per-shard sub-tables. Growth mutates the receiver in place;
// tables handed to readers must therefore be frozen by convention (the
// store seals them into immutable segments before sharing).

// NewWithSchema returns an empty (zero-row) table with the given columns.
func NewWithSchema(fields []Field) (*Table, error) {
	t := New()
	for _, f := range fields {
		if f.Name == "" {
			return nil, errors.New("table: empty column name in schema")
		}
		if _, dup := t.index[f.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q in schema", f.Name)
		}
		c := &Column{Name: f.Name, Typ: f.Type}
		if f.Type != Float64 && f.Type != String {
			return nil, fmt.Errorf("table: unknown type %v for column %q", f.Type, f.Name)
		}
		t.push(c)
	}
	t.rows = 0
	return t, nil
}

// Reset truncates the table to zero rows in place, keeping every column's
// cell capacity — the pooling primitive of the streaming ingest path,
// where per-batch scratch tables are recycled instead of reallocated.
// Safe only on tables no View shares cells with (Reset-and-refill would
// rewrite memory the view still reads). Dictionaries are dropped, not
// truncated: tables taken from this one, and an empty table that adopted
// its dictionary, go on reading the old array.
func (t *Table) Reset() {
	for _, c := range t.cols {
		c.Floats = c.Floats[:0]
		c.Codes = c.Codes[:0]
		c.Valid = c.Valid[:0]
		c.Dict, c.index = nil, nil
	}
	t.rows = 0
}

// SchemaEquals reports whether t and o have identical schemas: the same
// column names with the same types in the same order.
func (t *Table) SchemaEquals(o *Table) bool {
	if len(t.cols) != len(o.cols) {
		return false
	}
	for i, c := range t.cols {
		if o.cols[i].Name != c.Name || o.cols[i].Typ != c.Typ {
			return false
		}
	}
	return true
}

// SchemaMatches reports whether the table's schema is exactly the given
// field list — the allocation-free form of SchemaEquals for hot ingest
// paths that hold a schema, not a table.
func (t *Table) SchemaMatches(fields []Field) bool {
	if len(t.cols) != len(fields) {
		return false
	}
	for i, c := range t.cols {
		if fields[i].Name != c.Name || fields[i].Type != c.Typ {
			return false
		}
	}
	return true
}

// Cell is one value of a row being appended. The column's type selects
// which field is read; invalid cells ignore both.
type Cell struct {
	Float float64
	Str   string
	Valid bool
}

// AppendRow appends one row to the table in place. Cells are given in
// schema order; a float cell holding NaN is stored invalid regardless of
// its Valid flag.
func (t *Table) AppendRow(cells []Cell) error {
	if len(cells) != len(t.cols) {
		return fmt.Errorf("table: row has %d cells, schema has %d", len(cells), len(t.cols))
	}
	for i, c := range t.cols {
		cell := cells[i]
		if c.Typ == Float64 {
			valid := cell.Valid && !math.IsNaN(cell.Float)
			v := cell.Float
			if !valid {
				v = math.NaN()
			}
			c.Floats = append(c.Floats, v)
			c.Valid = append(c.Valid, valid)
		} else {
			s := cell.Str
			if !cell.Valid {
				s = ""
			}
			c.Codes = append(c.Codes, c.code(s))
			c.Valid = append(c.Valid, cell.Valid)
		}
	}
	t.rows++
	return nil
}

// AppendTable appends all rows of o to t in place. Each column of t is
// found in o by name and must have the same type there; o may carry more
// columns, which are skipped — how a table narrowed to the columns its
// readers name takes the rows of a full-width one. On a missing or
// mistyped column t is unchanged.
func (t *Table) AppendTable(o *Table) error {
	src, err := t.sources(o)
	if err != nil {
		return err
	}
	for i, c := range t.cols {
		oc := src[i]
		if c.Typ == Float64 {
			c.Floats = append(c.Floats, oc.Floats...)
		} else {
			at := len(c.Codes)
			c.Codes = append(c.Codes, oc.Codes...)
			c.rebase(at, oc.Dict, &t.memo)
		}
		c.Valid = append(c.Valid, oc.Valid...)
	}
	t.rows += o.rows
	return nil
}

// sources returns, for each column of t, the column of o with its name,
// checking the types once per call.
func (t *Table) sources(o *Table) ([]*Column, error) {
	if t.SchemaEquals(o) {
		return o.cols, nil
	}
	src := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		j, ok := o.index[c.Name]
		if !ok || o.cols[j].Typ != c.Typ {
			return nil, fmt.Errorf("table: appending rows without column %s %q (%d cols vs %d)",
				c.Typ, c.Name, o.NumCols(), t.NumCols())
		}
		src[i] = o.cols[j]
	}
	return src, nil
}

// Grow reserves capacity for at least n additional rows in every
// column, so a following sequence of appends reallocates at most once.
func (t *Table) Grow(n int) {
	if n <= 0 {
		return
	}
	for _, c := range t.cols {
		if c.Typ == Float64 {
			c.Floats = slices.Grow(c.Floats, n)
		} else {
			c.Codes = slices.Grow(c.Codes, n)
		}
		c.Valid = slices.Grow(c.Valid, n)
	}
}

// AppendTaken appends the given rows of o, in order — the single-copy
// form of Take + AppendTable, matching columns by name as AppendTable
// does. On a missing or mistyped column or an out-of-range row t is
// unchanged.
func (t *Table) AppendTaken(o *Table, rows []int) error {
	src, err := t.sources(o)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r < 0 || r >= o.rows {
			return fmt.Errorf("table: row %d out of range [0,%d)", r, o.rows)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	t.Grow(len(rows))
	for i, c := range t.cols {
		oc := src[i]
		if c.Typ == Float64 {
			for _, r := range rows {
				c.Floats = append(c.Floats, oc.Floats[r])
			}
		} else {
			at := len(c.Codes)
			for _, r := range rows {
				c.Codes = append(c.Codes, oc.Codes[r])
			}
			c.rebase(at, oc.Dict, &t.memo)
		}
		for _, r := range rows {
			c.Valid = append(c.Valid, oc.Valid[r])
		}
	}
	t.rows += len(rows)
	return nil
}

// View returns rows [lo, hi) as a table that shares t's column storage:
// every column is a slice header over the same backing arrays (cells and
// dictionary alike), pinned to cap == len, so building one costs
// O(columns) and an append through a view reallocates instead of writing
// memory t may still grow into. The rows a view sees never change as long
// as t only appends — cells below a length someone has captured are never
// rewritten — which is the rule the store's tails keep. A view is
// read-only: Set* on it writes t's cells.
func (t *Table) View(lo, hi int) (*Table, error) {
	if lo < 0 || hi < lo || hi > t.rows {
		return nil, fmt.Errorf("table: view [%d,%d) out of range [0,%d]", lo, hi, t.rows)
	}
	out := &Table{cols: make([]*Column, len(t.cols)), index: make(map[string]int, len(t.cols)), rows: hi - lo}
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		v := &cols[i]
		v.Name, v.Typ, v.Valid = c.Name, c.Typ, c.Valid[lo:hi:hi]
		if c.Typ == Float64 {
			v.Floats = c.Floats[lo:hi:hi]
		} else {
			v.Codes, v.Dict = c.Codes[lo:hi:hi], c.sharedDict()
		}
		out.cols[i] = v
		out.index[c.Name] = i
	}
	return out, nil
}

// Slice returns a new table holding a copy of rows [lo, hi) — the batch
// form used when chunking a table for streaming ingestion.
func (t *Table) Slice(lo, hi int) (*Table, error) {
	v, err := t.View(lo, hi)
	if err != nil {
		return nil, err
	}
	return v.Clone(), nil
}

// Partition splits the table's rows into n new tables according to
// key(row) ∈ [0, n). Row order is preserved within each part; parts with
// no rows come back as empty tables with the same schema.
func (t *Table) Partition(n int, key func(row int) int) ([]*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("table: partition into %d parts", n)
	}
	rowsOf := make([][]int, n)
	for r := 0; r < t.rows; r++ {
		k := key(r)
		if k < 0 || k >= n {
			return nil, fmt.Errorf("table: partition key %d for row %d out of range [0,%d)", k, r, n)
		}
		rowsOf[k] = append(rowsOf[k], r)
	}
	out := make([]*Table, n)
	for k := range out {
		part, err := t.Take(rowsOf[k])
		if err != nil {
			return nil, err
		}
		if part.NumCols() == 0 {
			part.rows = 0
		}
		out[k] = part
	}
	return out, nil
}
