package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The CSV codec persists tables with a typed header: each header cell is
// "name:type" where type is "f" (float64) or "s" (string). Missing cells
// are encoded as the empty string for both types; a string column therefore
// cannot round-trip a valid empty string distinct from a missing value,
// which matches how the open-data EPC dumps encode absent fields.

// WriteCSV writes the table to w in the typed CSV format.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.cols))
	for i, c := range t.cols {
		tag := "s"
		if c.Typ == Float64 {
			tag = "f"
		}
		header[i] = c.Name + ":" + tag
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("table: writing CSV header: %w", err)
	}
	rec := make([]string, len(t.cols))
	for r := 0; r < t.rows; r++ {
		for i, c := range t.cols {
			switch {
			case !c.Valid[r]:
				rec[i] = ""
			case c.Typ == Float64:
				rec[i] = strconv.FormatFloat(c.Floats[r], 'g', -1, 64)
			default:
				rec[i] = c.Dict[c.Codes[r]]
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("table: writing CSV row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table from the typed CSV format produced by WriteCSV.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// Cells are parsed or copied out of each record before the next Read.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	cols := make([]*Column, len(header))
	for i, h := range header {
		idx := strings.LastIndexByte(h, ':')
		if idx < 0 {
			return nil, fmt.Errorf("table: header cell %q lacks :type suffix", h)
		}
		name, tag := strings.Clone(h[:idx]), h[idx+1:]
		switch tag {
		case "f":
			cols[i] = &Column{Name: name, Typ: Float64}
		case "s":
			cols[i] = &Column{Name: name, Typ: String}
		default:
			return nil, fmt.Errorf("table: header cell %q has unknown type %q", h, tag)
		}
	}

	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: reading CSV row %d: %w", rows, err)
		}
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("table: row %d has %d cells, want %d", rows, len(rec), len(cols))
		}
		for i, cell := range rec {
			c := cols[i]
			if c.Typ == Float64 {
				if cell == "" {
					c.Floats = append(c.Floats, math.NaN())
					c.Valid = append(c.Valid, false)
					continue
				}
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("table: row %d column %q: %w", rows, c.Name, err)
				}
				c.Floats = append(c.Floats, v)
				c.Valid = append(c.Valid, !math.IsNaN(v))
			} else {
				// The dictionary keeps one private copy per distinct value,
				// so no cell keeps the CSV line it was parsed from alive.
				k, ok := c.find(cell)
				if !ok {
					k = c.add(strings.Clone(cell))
				}
				c.Codes = append(c.Codes, k)
				c.Valid = append(c.Valid, cell != "")
			}
		}
		rows++
	}

	// A header-only file yields a table with columns but zero rows.
	t := New()
	for _, c := range cols {
		if err := t.checkAdd(c.Name, rows); err != nil {
			return nil, err
		}
		c.index = nil
		t.push(c)
	}
	return t, nil
}
