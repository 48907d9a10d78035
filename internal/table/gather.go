package table

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Encoding in code space. A live node's next serving table is rows taken,
// in order, from encodings it already holds: the previous serving table,
// the rows it dropped, the rows that arrived since. EncodeRows builds the
// encoding of such rows straight from their sources' codes — byte for
// byte what Encode returns for the same rows decoded — so that no row is
// decoded to be encoded again:
//
//   - a string column unions the sources' dictionaries over the codes the
//     taken rows use and remaps each source's codes through a rank table,
//     or, past dictMaxCardinality values, copies the cells out raw;
//   - a packed column keeps the largest source scale when it is still the
//     smallest every taken value round-trips at, rebasing and repacking
//     the integers.
//
// A float column whose layout the codes do not prove (a raw source, a
// scale the taken rows no longer need) is encoded from its cells decoded
// into a scratch, by Encode's own float encoder, so the result is
// Encode's in every case.

// Gather names rows of several sources, in order: the rows EncodeRows
// takes. It holds them as spans of consecutive rows of one source, so a
// gather of whole runs costs a few words, not one per row. The zero value
// is empty.
type Gather struct {
	spans []span
	rows  int
}

// span is n consecutive rows of one source, from row from on.
type span struct{ src, from, n int }

// Add appends row of source src.
func (g *Gather) Add(src, row int) { g.AddRange(src, row, row+1) }

// AddRange appends rows lo to hi−1 of source src.
func (g *Gather) AddRange(src, lo, hi int) {
	if hi <= lo {
		return
	}
	g.rows += hi - lo
	if k := len(g.spans) - 1; k >= 0 && g.spans[k].src == src && g.spans[k].from+g.spans[k].n == lo {
		g.spans[k].n += hi - lo
		return
	}
	g.spans = append(g.spans, span{src, lo, hi - lo})
}

// EncodeRows returns the encoding, with the columns of schema, of the
// rows g names — its source s is srcs[s] — byte for byte what Encode
// returns for the same rows decoded, built in code space. A column of a
// row is read from its source's column of that name and type; a source
// that g takes no row of need not hold it. An out-of-range source or row
// is an error.
func EncodeRows(schema []Field, srcs []*Encoded, g *Gather) (*Encoded, error) {
	used := make([]bool, len(srcs))
	for _, sp := range g.spans {
		if sp.src < 0 || sp.src >= len(srcs) {
			return nil, fmt.Errorf("table: gathered source %d of %d", sp.src, len(srcs))
		}
		if n := srcs[sp.src].rows; sp.from < 0 || sp.from+sp.n > n {
			return nil, fmt.Errorf("table: rows [%d,%d) of source %d out of range [0,%d)", sp.from, sp.from+sp.n, sp.src, n)
		}
		used[sp.src] = true
	}
	e := &Encoded{rows: g.rows, index: make(map[string]int, len(schema))}
	w := &spanWriter{spans: g.spans, rows: g.rows, codes: make([]uint64, g.rows)}
	cols := make([]*EncodedColumn, len(srcs))
	for i, f := range schema {
		if f.Type != Float64 && f.Type != String {
			return nil, fmt.Errorf("table: unknown type %v for column %q", f.Type, f.Name)
		}
		if _, dup := e.index[f.Name]; dup || f.Name == "" {
			return nil, fmt.Errorf("table: duplicate or empty column %q in schema", f.Name)
		}
		for s, src := range srcs {
			cols[s] = nil
			if !used[s] {
				continue
			}
			if cols[s] = src.Column(f.Name); cols[s] == nil || cols[s].typ != f.Type {
				return nil, fmt.Errorf("table: source %d has no %s column %q", s, f.Type, f.Name)
			}
		}
		e.index[f.Name] = i
		e.cols = append(e.cols, w.column(f, cols))
	}
	return e, nil
}

// Join returns the encoding with the columns of schema, each the column
// of that name of the first of parts holding it, shared: the parts side
// by side. They must have one row count.
func Join(schema []Field, parts ...*Encoded) (*Encoded, error) {
	e := &Encoded{index: make(map[string]int, len(schema))}
	for i, f := range schema {
		var c *EncodedColumn
		for _, p := range parts {
			if c = p.Column(f.Name); c != nil {
				if i > 0 && p.rows != e.rows {
					return nil, fmt.Errorf("table: joining %d rows to %d", p.rows, e.rows)
				}
				e.rows = p.rows
				break
			}
		}
		if c == nil || c.typ != f.Type {
			return nil, fmt.Errorf("table: join without %s column %q", f.Type, f.Name)
		}
		if _, dup := e.index[f.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q in schema", f.Name)
		}
		e.index[f.Name] = i
		e.cols = append(e.cols, c)
	}
	return e, nil
}

// spanWriter encodes the columns of gathered rows, one at a time, from
// their spans. codes is its scratch, one word per row: the column's
// source codes, read a word at a time, then what they become; floats and
// valid hold a column's cells decoded, when its codes do not decide.
type spanWriter struct {
	spans  []span
	rows   int
	codes  []uint64
	floats []float64
	valid  []bool
}

// column encodes the gathered cells of one column, src[s] holding source
// s's (nil for a source no row is taken from).
func (w *spanWriter) column(f Field, src []*EncodedColumn) *EncodedColumn {
	ec := &EncodedColumn{name: f.Name, typ: f.Type, rows: w.rows, valid: w.validity(src)}
	if f.Type == String {
		w.dictCodes(ec, src)
		return ec
	}
	if w.scaledCodes(ec, src) {
		return ec
	}
	// The codes do not prove the layout: Encode the cells decoded.
	if w.floats == nil {
		w.floats, w.valid = make([]float64, 0, w.rows), make([]bool, 0, w.rows)
	}
	w.floats, w.valid = w.floats[:0], w.valid[:0]
	for _, sp := range w.spans {
		c := src[sp.src]
		for r := sp.from; r < sp.from+sp.n; r++ {
			w.floats = append(w.floats, c.cell(r))
			w.valid = append(w.valid, c.ValidAt(r))
		}
	}
	return encodeFloats(f.Name, w.floats, w.valid, w.rows)
}

// validity returns the packed validity of the gathered cells, nil when
// every one is valid (packValidity's form).
func (w *spanWriter) validity(src []*EncodedColumn) []uint64 {
	var out []uint64
	i := 0
	for _, sp := range w.spans {
		c := src[sp.src]
		if c.valid == nil && out == nil {
			i += sp.n
			continue
		}
		for r := sp.from; r < sp.from+sp.n; r++ {
			switch {
			case c.ValidAt(r):
				if out != nil {
					out[i>>6] |= 1 << (i & 63)
				}
			case out == nil:
				// The first invalid cell: every one before it was valid.
				out = make([]uint64, (w.rows+63)/64)
				for k := 0; k < i>>6; k++ {
					out[k] = ^uint64(0)
				}
				out[i>>6] = 1<<(i&63) - 1
			}
			i++
		}
	}
	return out
}

// unpack reads the codes of every packed or dictionary source's rows into
// w.codes, at their rows' positions.
func (w *spanWriter) unpack(src []*EncodedColumn) {
	at := 0
	for _, sp := range w.spans {
		if c := src[sp.src]; c.kind == KindPacked || c.kind == KindDict {
			c.codes.unpack(sp.from, w.codes[at:at+sp.n])
		}
		at += sp.n
	}
}

// pack returns w.codes less off packed at width, the code of every row ec
// holds no value in 0.
func (w *spanWriter) pack(ec *EncodedColumn, width int, off uint64) packed {
	p := packer{p: newPacked(w.rows, width)}
	for i, code := range w.codes {
		if ec.valid == nil || ec.ValidAt(i) {
			p.put(code - off)
		} else {
			p.put(0)
		}
	}
	return p.done()
}

// scaledCodes encodes the gathered cells of a Float64 column as Encode
// would from their codes and reports true, or reports false when the
// codes do not prove Encode's layout.
//
// Encode packs at the smallest scale every valid value round-trips at. A
// packed value n / 10^s with |n| ≤ 2^50 round-trips at s, and at any
// larger scale t as the integer n·10^(t−s) (the correctly rounded
// quotient of the same rational, whose rounding error stays far below ½
// at that magnitude). So when every source's integers stay within 2^50 at
// the largest source scale, every value round-trips there, and that scale
// is the smallest when one value, a witness, round-trips at no smaller
// one — which, for these integers, is one not divisible by ten, checked on
// its decoded value with scaleFor. Without a witness the taken rows need
// a smaller scale than their sources, and the column goes back to Encode,
// as does one with a raw source.
func (w *spanWriter) scaledCodes(ec *EncodedColumn, src []*EncodedColumn) bool {
	// A raw source's values decide its layout (Encode's pass over them).
	scale := 0
	for _, c := range src {
		if c == nil {
			continue
		}
		if c.kind != KindPacked || c.codes.width > 32 {
			return false
		}
		scale = max(scale, int(c.scale))
	}
	// mul[s] lifts source s's integers to the scale.
	const limit = 1 << 50
	mul := make([]int64, len(src))
	for s, c := range src {
		if c == nil {
			continue
		}
		mul[s] = int64(pow10[scale-int(c.scale)])
		lo, hi := c.base, c.base+(int64(1)<<uint(c.codes.width)-1)
		if bound := limit / mul[s]; lo < -bound || hi > bound {
			return false
		}
	}
	// w.codes turns from source codes into integers at the scale.
	w.unpack(src)
	nLo, nHi := int64(math.MaxInt64), int64(math.MinInt64)
	at := 0
	for _, sp := range w.spans {
		c, m, codes := src[sp.src], mul[sp.src], w.codes[at:at+sp.n]
		at += sp.n
		for j, code := range codes {
			n := (c.base + int64(code)) * m
			codes[j] = uint64(n)
			if c.valid == nil || c.ValidAt(sp.from+j) {
				nLo, nHi = min(nLo, n), max(nHi, n)
			}
		}
	}
	if nLo > nHi {
		scale, nLo, nHi = 0, 0, 0 // all invalid: width-0 codes, base 0
	} else if !w.witness(ec, scale) {
		return false
	}
	width := bits.Len64(uint64(nHi - nLo))
	if width > 32 || scale > 0 && 10+(w.rows*width+63)/64*8 >= 8*w.rows {
		w.rawFloats(ec, src)
		return true
	}
	ec.kind, ec.base, ec.scale, ec.codes = KindPacked, nLo, uint8(scale), w.pack(ec, width, uint64(nLo))
	return true
}

// witness reports whether a valid row's integer at scale, in w.codes, is
// a value that round-trips at no smaller scale.
func (w *spanWriter) witness(ec *EncodedColumn, scale int) bool {
	for i, code := range w.codes {
		if n := int64(code); (scale == 0 || n%10 != 0) && ec.ValidAt(i) {
			v := float64(n)
			if scale > 0 {
				v /= pow10[scale]
			}
			return scaleFor(v, 0) == scale
		}
	}
	return false
}

// rawFloats sets ec to the raw layout of the gathered cells.
func (w *spanWriter) rawFloats(ec *EncodedColumn, src []*EncodedColumn) {
	ec.kind, ec.rawF = KindRawFloat, make([]float64, 0, w.rows)
	for _, sp := range w.spans {
		c := src[sp.src]
		for r := sp.from; r < sp.from+sp.n; r++ {
			ec.rawF = append(ec.rawF, c.cell(r))
		}
	}
}

// cell returns the float cell of row r as decoding it yields: a raw
// column's verbatim, NaN for an invalid packed one.
func (c *EncodedColumn) cell(r int) float64 {
	if c.kind == KindRawFloat {
		return c.rawF[r]
	}
	return c.FloatAt(r)
}

// dictCodes encodes the gathered cells of a String column as Encode
// would from their codes. The dictionary is the sorted distinct values
// the valid cells hold: the entries the dictionary sources' taken codes
// use, and a raw source's valid cells.
func (w *spanWriter) dictCodes(ec *EncodedColumn, src []*EncodedColumn) {
	// rank[s][k] is 1 + the code source s's code k takes, 0 while no taken
	// valid row uses it.
	rank := make([][]uint32, len(src))
	var vals []string
	raws := false
	w.unpack(src)
	at := 0
	for _, sp := range w.spans {
		c, codes := src[sp.src], w.codes[at:at+sp.n]
		at += sp.n
		if c.kind != KindDict {
			raws = true
			for r := sp.from; r < sp.from+sp.n; r++ {
				if !c.ValidAt(r) && c.rawS[r] != "" {
					// Decoding keeps this payload; only the raw layout does.
					w.rawStrings(ec, src)
					return
				}
			}
			continue
		}
		rk := rank[sp.src]
		if rk == nil {
			rk = make([]uint32, len(c.dict))
			rank[sp.src] = rk
		}
		for j, k := range codes {
			if c.ValidAt(sp.from+j) && rk[k] == 0 {
				rk[k] = 1
				vals = append(vals, c.dict[k])
			}
		}
	}
	limit := dictMaxCardinality(w.rows)
	if raws {
		// Too many values for a dictionary show by the (limit+1)-th.
		seen := make(map[string]struct{}, min(limit+1, w.rows))
		for _, v := range vals {
			seen[v] = struct{}{}
		}
		for _, sp := range w.spans {
			c := src[sp.src]
			if c.kind == KindDict {
				continue
			}
			for r := sp.from; r < sp.from+sp.n; r++ {
				if !c.ValidAt(r) {
					continue
				}
				if _, ok := seen[c.rawS[r]]; !ok {
					if len(seen) >= limit {
						w.rawStrings(ec, src)
						return
					}
					seen[c.rawS[r]] = struct{}{}
				}
			}
		}
		vals = vals[:0]
		for v := range seen {
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	if vals = slices.Compact(vals); len(vals) > limit {
		w.rawStrings(ec, src)
		return
	}
	dict := withEmptySlot(vals)
	for s, rk := range rank {
		for k, in := range rk {
			if in != 0 {
				rk[k] = uint32(sort.SearchStrings(dict, src[s].dict[k])) + 1
			}
		}
	}
	// w.codes turns from source codes into dictionary codes.
	at = 0
	for _, sp := range w.spans {
		c, codes := src[sp.src], w.codes[at:at+sp.n]
		at += sp.n
		for j := range codes {
			switch r := sp.from + j; {
			case !c.ValidAt(r):
			case c.kind == KindDict:
				codes[j] = uint64(rank[sp.src][codes[j]] - 1)
			default:
				codes[j] = uint64(sort.SearchStrings(dict, c.rawS[r]))
			}
		}
	}
	width := 0
	if len(dict) > 1 {
		width = bits.Len(uint(len(dict) - 1))
	}
	ec.kind, ec.dict, ec.codes = KindDict, dict, w.pack(ec, width, 0)
}

// rawStrings sets ec to the raw layout of the gathered cells.
func (w *spanWriter) rawStrings(ec *EncodedColumn, src []*EncodedColumn) {
	ec.kind, ec.rawS = KindRawString, make([]string, 0, w.rows)
	for _, sp := range w.spans {
		c := src[sp.src]
		for r := sp.from; r < sp.from+sp.n; r++ {
			ec.rawS = append(ec.rawS, c.StringAt(r))
		}
	}
}

// unpack writes the codes of rows from, from+1, … into dst, reading the
// words in order through a register.
func (p *packed) unpack(from int, dst []uint64) {
	if p.width == 0 {
		clear(dst)
		return
	}
	width := uint(p.width)
	mask := uint64(1)<<width - 1
	bit := from * p.width
	w, off := bit>>6, uint(bit&63)
	cur, avail := p.words[w]>>off, 64-off
	for i := range dst {
		if avail >= width {
			dst[i] = cur & mask
			cur >>= width
			avail -= width
			continue
		}
		w++
		next := p.words[w]
		dst[i] = (cur | next<<avail) & mask
		cur, avail = next>>(width-avail), 64-(width-avail)
	}
}
