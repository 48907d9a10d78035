package server

import (
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"indice/internal/store"
	"indice/internal/table"
)

// Row pages are rendered straight from the encodings that hold them: a
// page is runs of segment encodings with the words that select their rows
// (store.PageRun), and each cell is read from its column — dictionary
// entry, packed integer or raw value — and written into the body. The
// bytes are exactly what encoding/json emits for the row as a
// map[string]any: keys in sorted order, floats in json's ES6-style
// format, strings with json's (HTML-safe) escaping, and invalid or
// non-finite cells as null.

// rowLayout is the key order and the rendered keys of one schema, built
// once and reused while the encodings carry that schema.
type rowLayout struct {
	names []string // the columns in schema order
	order []int    // schema positions in key order
	keys  [][]byte // `,"name":` in key order — the first starts with `{`
}

// lastLayout holds the layout of the schema rendered last: a store's
// encodings all carry its schema, so it is built once per process.
var lastLayout atomic.Pointer[rowLayout]

// layoutOf returns the layout of enc's schema.
func layoutOf(enc *table.Encoded) *rowLayout {
	cols := enc.Columns()
	if l := lastLayout.Load(); l != nil && slices.EqualFunc(l.names, cols, func(n string, c *table.EncodedColumn) bool {
		return n == c.Name()
	}) {
		return l
	}
	l := &rowLayout{names: make([]string, len(cols)), order: make([]int, len(cols)), keys: make([][]byte, len(cols))}
	for i, c := range cols {
		l.names[i], l.order[i] = c.Name(), i
	}
	sort.Slice(l.order, func(i, j int) bool { return l.names[l.order[i]] < l.names[l.order[j]] })
	for i, pos := range l.order {
		key := []byte{','}
		if i == 0 {
			key[0] = '{'
		}
		l.keys[i] = append(appendJSONString(key, l.names[pos]), ':')
	}
	lastLayout.Store(l)
	return l
}

// appendRow appends row r of the columns as one JSON object. A page with
// rows has at least one column, so the object is never empty.
func (l *rowLayout) appendRow(dst []byte, cols []*table.EncodedColumn, r int) []byte {
	for i, pos := range l.order {
		c := cols[pos]
		dst = append(dst, l.keys[i]...)
		switch {
		case !c.ValidAt(r):
			dst = append(dst, "null"...)
		case c.Kind() == table.KindPacked:
			dst = appendJSONDecimal(dst, c, r)
		case c.Type() == table.Float64:
			dst = appendJSONFloat(dst, c.FloatAt(r))
		default:
			dst = appendJSONString(dst, c.StringAt(r))
		}
	}
	return append(dst, '}')
}

// appendRows appends the page's rows as comma-separated objects — the
// contents of a "rows" array; nothing when the page is empty.
func appendRows(dst []byte, page []store.PageRun) []byte {
	dst, _ = renderRows(dst, page, ',')
	return dst
}

// encodeRows renders every row of the page as its own JSON object, all
// sharing one backing buffer: the form a replica leg ships and a
// coordinator slices and forwards without decoding.
func encodeRows(page []store.PageRun) []json.RawMessage {
	buf, ends := renderRows(nil, page, 0)
	rows := make([]json.RawMessage, len(ends))
	start := 0
	for r, end := range ends {
		rows[r] = buf[start:end:end]
		start = end
	}
	return rows
}

// renderRows appends the page's rows, each but the first after sep when
// sep is not 0, and returns where each ends.
func renderRows(dst []byte, page []store.PageRun, sep byte) ([]byte, []int) {
	n := 0
	for _, run := range page {
		for _, w := range run.Words {
			n += bits.OnesCount64(w)
		}
	}
	ends := make([]int, 0, n)
	for _, run := range page {
		l, cols := layoutOf(run.Enc), run.Enc.Columns()
		for w, word := range run.Words {
			for ; word != 0; word &= word - 1 {
				start := len(dst)
				if len(ends) > 0 && sep != 0 {
					dst = append(dst, sep)
				}
				dst = l.appendRow(dst, cols, w<<6+bits.TrailingZeros64(word))
				if len(ends) == 0 {
					// Rows of one page are about the same size: reserve the
					// rest by the first row's, with an eighth to spare.
					rowLen := len(dst) - start + 1
					dst = slices.Grow(dst, (n-1)*(rowLen+rowLen/8))
				}
				ends = append(ends, len(dst))
			}
		}
	}
	return dst, ends
}

// appendJSONDecimal formats a packed cell n / 10^scale as encoding/json
// formats its float64. A decimal of at most 15 significant digits is the
// correctly rounded value of its double and the only decimal of so few
// digits that rounds to it, so its digits are strconv's shortest form:
// they print from the integer, in json's fixed notation when the value is
// in [1e-6, 1e21). Anything else takes strconv.
func appendJSONDecimal(dst []byte, c *table.EncodedColumn, r int) []byte {
	n, scale := c.Decimal(r)
	u := uint64(n)
	if n < 0 {
		u = -u
	}
	for scale > 0 && u%10 == 0 {
		u /= 10
		scale--
	}
	if u == 0 || u >= 1e15 || scale > 15 || scale > 6 && u < uint64(math.Pow10(scale-6)) {
		return appendJSONFloat(dst, c.FloatAt(r))
	}
	if n < 0 {
		dst = append(dst, '-')
	}
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], u, 10)
	switch point := len(digits) - scale; {
	case scale == 0:
		return append(dst, digits...)
	case point > 0:
		dst = append(dst, digits[:point]...)
		dst = append(dst, '.')
		return append(dst, digits[point:]...)
	default: // 0.000ddd: point is -14 at least, as scale is 15 at most
		return append(append(dst, "0.00000000000000"[:2-point]...), digits...)
	}
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

// plainJSON marks the bytes a JSON string carries as themselves.
var plainJSON = func() (t [256]bool) {
	for b := 0x20; b < 0x7f; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendJSONString appends s as a JSON string. Strings of printable ASCII
// with nothing json escapes (quotes, backslashes, <, > and &) — every
// value the certificates carry in practice — are copied between quotes;
// anything else goes through encoding/json itself, so control bytes,
// U+2028/2029 and invalid UTF-8 come out exactly as json renders them
// under whichever toolchain built the binary.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
