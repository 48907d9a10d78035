package server

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strconv"

	"indice/internal/table"
)

// rowEncoder renders table rows as JSON objects straight into a response
// body, column by column, without building a map per row. Its output is
// byte for byte what encoding/json emits for the row as a
// map[string]any: keys in sorted order, floats in json's ES6-style
// format, strings with json's (HTML-safe) escaping, and invalid or
// non-finite cells as null.
type rowEncoder struct {
	cols []rowColumn // sorted by name, like encoding/json sorts map keys
}

type rowColumn struct {
	key     []byte // `,"name":` — the first column's starts with `{` instead
	numeric bool
	valid   []bool
	floats  []float64
	codes   []uint32 // categorical cells: dict[codes[r]]
	dict    []string
}

func newRowEncoder(tab *table.Table) *rowEncoder {
	schema := tab.Schema()
	sort.Slice(schema, func(i, j int) bool { return schema[i].Name < schema[j].Name })
	e := &rowEncoder{cols: make([]rowColumn, len(schema))}
	for i, f := range schema {
		c := &e.cols[i]
		c.key = append(c.key, ',')
		if i == 0 {
			c.key[0] = '{'
		}
		c.key = append(appendJSONString(c.key, f.Name), ':')
		c.valid, _ = tab.ValidMask(f.Name)
		if c.numeric = f.Type == table.Float64; c.numeric {
			c.floats, _ = tab.Floats(f.Name)
		} else {
			c.codes, c.dict, _ = tab.StringCodes(f.Name)
		}
	}
	return e
}

// appendRow appends row r as one JSON object. A table with rows has at
// least one column, so the object is never empty.
func (e *rowEncoder) appendRow(dst []byte, r int) []byte {
	for i := range e.cols {
		c := &e.cols[i]
		dst = append(dst, c.key...)
		switch {
		case !c.valid[r]:
			dst = append(dst, "null"...)
		case c.numeric:
			dst = appendJSONFloat(dst, c.floats[r])
		default:
			dst = appendJSONString(dst, c.dict[c.codes[r]])
		}
	}
	return append(dst, '}')
}

// appendRows appends rows [from, to) of tab as comma-separated objects —
// the contents of a "rows" array; nothing when the range is empty.
func appendRows(dst []byte, tab *table.Table, from, to int) []byte {
	if to > tab.NumRows() {
		to = tab.NumRows()
	}
	if from >= to {
		return dst
	}
	e := newRowEncoder(tab)
	start := len(dst)
	dst = e.appendRow(dst, from)
	// Rows of one table are about the same size: reserve the rest of the
	// page by the first row's, with an eighth to spare.
	rowLen := len(dst) - start + 1
	dst = slices.Grow(dst, (to-from-1)*(rowLen+rowLen/8))
	for r := from + 1; r < to; r++ {
		dst = append(dst, ',')
		dst = e.appendRow(dst, r)
	}
	return dst
}

// encodeRows renders every row of tab as its own JSON object, all
// sharing one backing buffer: the form a replica leg ships and a
// coordinator slices and forwards without decoding.
func encodeRows(tab *table.Table) []json.RawMessage {
	n := tab.NumRows()
	e := newRowEncoder(tab)
	ends := make([]int, n)
	var buf []byte
	for r := 0; r < n; r++ {
		buf = e.appendRow(buf, r)
		ends[r] = len(buf)
	}
	rows := make([]json.RawMessage, n)
	start := 0
	for r, end := range ends {
		rows[r] = buf[start:end:end]
		start = end
	}
	return rows
}

// appendJSONFloat formats v as encoding/json formats a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with a
// two-digit exponent's leading zero dropped; NaN and ±Inf, which JSON
// cannot carry, render as null.
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a JSON string. Strings of printable ASCII
// with nothing json escapes (quotes, backslashes, <, > and &) — every
// value the certificates carry in practice — are copied between quotes;
// anything else goes through encoding/json itself, so control bytes,
// U+2028/2029 and invalid UTF-8 come out exactly as json renders them
// under whichever toolchain built the binary.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= 0x7f || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
