package table

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Segment encoding. Sealed segments are immutable, so once a Table leaves
// the mutable tail it is compressed into an Encoded form that both the
// resident snapshot and the checkpoint files use:
//
//   - low-cardinality string columns become a sorted dictionary plus
//     bit-packed per-row codes (code order = string order, so equality
//     and membership compare small integers, never strings);
//   - integral float64 columns become frame-of-reference bit-packed
//     codes (value = base + code);
//   - anything else stays raw.
//
// Decode is pinned bitwise-identical to the original table: an encoding
// is only chosen when the encoder has proven, cell by cell, that the
// round trip reproduces the exact bits (canonical NaN for invalid float
// cells, empty string for invalid string cells, exact float
// reconstruction for every packed value). Columns violating those
// invariants — e.g. a binary file that smuggled a payload into an
// invalid string cell — fall back to the raw layout, which is trivially
// exact.

// ColKind identifies the physical layout of one encoded column.
type ColKind uint8

const (
	// KindRawFloat stores float64 cells verbatim.
	KindRawFloat ColKind = iota
	// KindRawString stores string cells verbatim.
	KindRawString
	// KindDict stores a sorted string dictionary and bit-packed codes.
	KindDict
	// KindPacked stores integral floats as base + bit-packed code.
	KindPacked
)

func (k ColKind) String() string {
	switch k {
	case KindRawFloat:
		return "raw-float"
	case KindRawString:
		return "raw-string"
	case KindDict:
		return "dict"
	case KindPacked:
		return "packed"
	default:
		return fmt.Sprintf("ColKind(%d)", int(k))
	}
}

// packed is a fixed-width bit-packed integer vector. Width 0 means every
// code is zero (single-valued column) and stores nothing.
type packed struct {
	width int
	n     int
	words []uint64
}

func newPacked(n, width int) packed {
	p := packed{width: width, n: n}
	if width > 0 {
		p.words = make([]uint64, (n*width+63)/64)
	}
	return p
}

// set writes code v at row i. Rows must be written at most once (words
// are OR-combined, not cleared).
func (p *packed) set(i int, v uint64) {
	if p.width == 0 {
		return
	}
	bit := i * p.width
	w, off := bit>>6, uint(bit&63)
	p.words[w] |= v << off
	if off+uint(p.width) > 64 {
		p.words[w+1] |= v >> (64 - off)
	}
}

func (p *packed) at(i int) uint64 {
	if p.width == 0 {
		return 0
	}
	bit := i * p.width
	w, off := bit>>6, uint(bit&63)
	v := p.words[w] >> off
	if off+uint(p.width) > 64 {
		v |= p.words[w+1] << (64 - off)
	}
	return v & (1<<uint(p.width) - 1)
}

// EncodedColumn is one compressed column. It is immutable after Encode
// and safe for concurrent readers.
type EncodedColumn struct {
	name string
	typ  Type
	kind ColKind
	rows int

	// valid is a packed validity bitset; nil means every cell is valid.
	valid []uint64

	// KindDict: sorted unique valid values + per-row codes.
	dict  []string
	codes packed

	// KindPacked: value = float64(base + int64(code)).
	base int64

	// Raw fallbacks.
	rawF []float64
	rawS []string
}

// Type returns the logical column type.
func (c *EncodedColumn) Type() Type { return c.typ }

// Kind returns the physical layout.
func (c *EncodedColumn) Kind() ColKind { return c.kind }

// ValidAt reports whether row i holds a value.
func (c *EncodedColumn) ValidAt(i int) bool {
	return c.valid == nil || c.valid[i>>6]&(1<<(i&63)) != 0
}

// AllValid reports whether every cell holds a value.
func (c *EncodedColumn) AllValid() bool { return c.valid == nil }

// DictLen returns the dictionary size (KindDict only).
func (c *EncodedColumn) DictLen() int { return len(c.dict) }

// DictCode returns the code of s in the dictionary. The dictionary is
// sorted, so codes preserve string order.
func (c *EncodedColumn) DictCode(s string) (uint64, bool) {
	i := sort.SearchStrings(c.dict, s)
	if i < len(c.dict) && c.dict[i] == s {
		return uint64(i), true
	}
	return 0, false
}

// CodeAt returns the bit-packed code of row i (KindDict / KindPacked).
// The value is meaningless for invalid rows.
func (c *EncodedColumn) CodeAt(i int) uint64 { return c.codes.at(i) }

// FloatAt reconstructs the float64 value of row i, including the
// canonical NaN of invalid cells.
func (c *EncodedColumn) FloatAt(i int) float64 {
	if !c.ValidAt(i) {
		return math.NaN()
	}
	if c.kind == KindPacked {
		return float64(c.base + int64(c.codes.at(i)))
	}
	return c.rawF[i]
}

// StringAt reconstructs the string value of row i ("" for invalid cells
// of dict columns; raw columns return the stored payload verbatim).
func (c *EncodedColumn) StringAt(i int) string {
	if c.kind == KindDict {
		if !c.ValidAt(i) {
			return ""
		}
		return c.dict[c.codes.at(i)]
	}
	return c.rawS[i]
}

// CodeBounds translates an inclusive float range [lo, hi] into the
// inclusive code range of a KindPacked column. ok is false when the
// ranges don't overlap (no valid row can match).
func (c *EncodedColumn) CodeBounds(lo, hi float64) (cLo, cHi uint64, ok bool) {
	lo = math.Ceil(lo) - float64(c.base)
	hi = math.Floor(hi) - float64(c.base)
	maxCode := float64(uint64(1)<<uint(c.codes.width) - 1)
	if c.codes.width == 0 {
		maxCode = 0
	}
	if hi < 0 || lo > maxCode || lo > hi {
		return 0, 0, false
	}
	if lo < 0 {
		lo = 0
	}
	if hi > maxCode {
		hi = maxCode
	}
	return uint64(lo), uint64(hi), true
}

// Encoded is a compressed, immutable table. All reads are safe
// concurrently.
type Encoded struct {
	rows  int
	cols  []*EncodedColumn
	index map[string]int
}

// NumRows returns the row count.
func (e *Encoded) NumRows() int { return e.rows }

// Schema returns the ordered field list.
func (e *Encoded) Schema() []Field {
	out := make([]Field, len(e.cols))
	for i, c := range e.cols {
		out[i] = Field{Name: c.name, Type: c.typ}
	}
	return out
}

// Column returns the named encoded column, or nil.
func (e *Encoded) Column(name string) *EncodedColumn {
	i, ok := e.index[name]
	if !ok {
		return nil
	}
	return e.cols[i]
}

// nanBits is the canonical quiet NaN every invalid float cell carries
// (AddFloatsValid, AppendRow and SetInvalid all write math.NaN()).
var nanBits = math.Float64bits(math.NaN())

// dictMaxCardinality is the distinct-count ceiling for dictionary
// encoding: unique-per-row columns (certificate ids) gain nothing from a
// dictionary, low-cardinality categoricals (energy class, zone) gain a
// lot.
func dictMaxCardinality(rows int) int {
	limit := rows / 4
	if limit < 16 {
		limit = 16
	}
	return limit
}

// Encode compresses a table. It never fails: columns whose cells violate
// an encoding's round-trip invariants stay in the raw layout.
func Encode(t *Table) *Encoded {
	e := &Encoded{rows: t.rows, index: make(map[string]int, len(t.cols))}
	for _, c := range t.cols {
		var ec *EncodedColumn
		if c.Typ == String {
			ec = encodeString(c, t.rows)
		} else {
			ec = encodeFloat(c, t.rows)
		}
		e.index[ec.name] = len(e.cols)
		e.cols = append(e.cols, ec)
	}
	return e
}

func packValidity(valid []bool) (bitset []uint64, allValid bool) {
	allValid = true
	for _, ok := range valid {
		if !ok {
			allValid = false
			break
		}
	}
	if allValid {
		return nil, true
	}
	bitset = make([]uint64, (len(valid)+63)/64)
	for i, ok := range valid {
		if ok {
			bitset[i>>6] |= 1 << (i & 63)
		}
	}
	return bitset, false
}

func encodeString(c *Column, rows int) *EncodedColumn {
	ec := &EncodedColumn{name: c.Name, typ: String, rows: rows}
	ec.valid, _ = packValidity(c.Valid)

	raw := func() *EncodedColumn {
		ec.kind = KindRawString
		ec.rawS = make([]string, len(c.Codes))
		for i, k := range c.Codes {
			ec.rawS[i] = c.Dict[k]
		}
		return ec
	}

	// The table's dictionary is in first-seen order, may hold entries no
	// valid cell uses and may hold a value twice; the segment's holds
	// exactly the distinct values in use, sorted. used collects the entries
	// in use, rank maps a table code to its segment code + 1.
	//
	// Round-trip invariant: decode reconstructs invalid cells as "". A
	// table decoded from an untrusted binary body may carry a payload
	// there (a raw-string column preserves it), and raw is the only exact
	// layout.
	rank := make([]uint32, len(c.Dict))
	var used []uint32
	for i, k := range c.Codes {
		if !c.Valid[i] {
			if c.Dict[k] != "" {
				return raw()
			}
			continue
		}
		if rank[k] == 0 {
			rank[k] = 1
			used = append(used, k)
		}
	}
	if limit := dictMaxCardinality(rows); len(used) > limit {
		// Too many entries for a dictionary — unless they repeat values.
		distinct := make(map[string]struct{}, limit+1)
		for _, k := range used {
			if distinct[c.Dict[k]] = struct{}{}; len(distinct) > limit {
				return raw()
			}
		}
	}
	sort.Slice(used, func(i, j int) bool { return c.Dict[used[i]] < c.Dict[used[j]] })
	ec.kind = KindDict
	ec.dict = make([]string, 0, len(used)+1)
	for _, k := range used {
		if n := len(ec.dict); n == 0 || ec.dict[n-1] != c.Dict[k] {
			ec.dict = append(ec.dict, c.Dict[k])
		}
		rank[k] = uint32(len(ec.dict))
	}
	ec.dict = withEmptySlot(ec.dict)
	width := 0
	if len(ec.dict) > 1 {
		width = bits.Len(uint(len(ec.dict) - 1))
	}
	ec.codes = newPacked(rows, width)
	for i, k := range c.Codes {
		if c.Valid[i] {
			ec.codes.set(i, uint64(rank[k]-1))
		}
	}
	return ec
}

// withEmptySlot stores "" just past the end of a segment dictionary, so
// that decodeDict can hand out either form without copying.
func withEmptySlot(dict []string) []string {
	return append(dict, "")[:len(dict)]
}

// decodeDict returns the dictionary a table column decoding c's cells
// indexes, and the code its invalid cells take there: the sorted
// dictionary itself when it holds "" (which sorts first) or no cell is
// invalid, otherwise extended by the "" stored past its end.
func (c *EncodedColumn) decodeDict() (dict []string, inv uint32) {
	n := len(c.dict)
	if c.valid == nil || (n > 0 && c.dict[0] == "") {
		return c.dict[:n:n], 0
	}
	return c.dict[: n+1 : n+1], uint32(n)
}

func encodeFloat(c *Column, rows int) *EncodedColumn {
	ec := &EncodedColumn{name: c.Name, typ: Float64, rows: rows}
	ec.valid, _ = packValidity(c.Valid)

	raw := func() *EncodedColumn {
		ec.kind = KindRawFloat
		ec.rawF = c.Floats
		return ec
	}

	// Pass 1: the column is packable only if invalid cells carry the
	// canonical NaN (what decode will regenerate) and every valid value
	// is finite, integral and inside the exactly-representable integer
	// range.
	const maxExact = 1 << 52
	haveValid := false
	var lo, hi float64
	for i, v := range c.Floats {
		if !c.Valid[i] {
			if math.Float64bits(v) != nanBits {
				return raw()
			}
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v != math.Trunc(v) || v < -maxExact || v > maxExact {
			return raw()
		}
		if !haveValid {
			lo, hi = v, v
			haveValid = true
		} else if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	if !haveValid {
		// All-invalid column: width-0 packed, base 0.
		ec.kind = KindPacked
		ec.codes = newPacked(rows, 0)
		return ec
	}
	span := int64(hi) - int64(lo)
	width := bits.Len64(uint64(span))
	if width > 32 {
		return raw()
	}

	// Pass 2: build codes, verifying each value reconstructs bit-exact
	// (this is what rejects -0.0, whose round trip yields +0.0).
	base := int64(lo)
	codes := newPacked(rows, width)
	for i, v := range c.Floats {
		if !c.Valid[i] {
			continue
		}
		code := uint64(int64(v) - base)
		if math.Float64bits(float64(base+int64(code))) != math.Float64bits(v) {
			return raw()
		}
		codes.set(i, code)
	}
	ec.kind = KindPacked
	ec.base = base
	ec.codes = codes
	return ec
}

// Decode reconstructs the original table, bitwise identical to what
// Encode was given.
func (e *Encoded) Decode() *Table {
	t := e.emptyTable()
	e.appendRows(t, e.allRows())
	return t
}

// emptyTable returns a zero-row table with the encoded table's schema.
func (e *Encoded) emptyTable() *Table {
	t := New()
	for _, c := range e.cols {
		t.push(&Column{Name: c.name, Typ: c.typ})
	}
	return t
}

func (e *Encoded) allRows() []int {
	rows := make([]int, e.rows)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// Take decodes only the given rows, in order (the planner's candidate
// materialization: decode 50 matching rows, not the 64k-row segment).
// Out-of-range rows are an error.
func (e *Encoded) Take(rows []int) (*Table, error) {
	t := e.emptyTable()
	if err := e.TakeAppend(t, rows); err != nil {
		return nil, err
	}
	return t, nil
}

// AppendTo decodes every row onto the end of dst: how a sealed segment
// joins a materialization without a decoded table of its own in between.
func (e *Encoded) AppendTo(dst *Table) error {
	return e.TakeAppend(dst, e.allRows())
}

// TakeAppend decodes the given rows directly onto the end of dst, which
// must have the encoded table's schema — the single-copy form of
// Take + AppendTable used when materializing many segments' matches into
// one result table. Decoded cells are identical to Take's.
func (e *Encoded) TakeAppend(dst *Table, rows []int) error {
	if len(dst.cols) != len(e.cols) {
		return fmt.Errorf("table: take-append schema mismatch (%d cols vs %d)", len(dst.cols), len(e.cols))
	}
	for i, c := range e.cols {
		if dst.cols[i].Name != c.name || dst.cols[i].Typ != c.typ {
			return fmt.Errorf("table: take-append schema mismatch at column %q", c.name)
		}
	}
	for _, r := range rows {
		if r < 0 || r >= e.rows {
			return fmt.Errorf("table: row %d out of range [0,%d)", r, e.rows)
		}
	}
	e.appendRows(dst, rows)
	return nil
}

// appendRows is TakeAppend after its checks.
func (e *Encoded) appendRows(dst *Table, rows []int) {
	dst.Grow(len(rows))
	for i, c := range e.cols {
		col := dst.cols[i]
		// Per-kind loops hoist the layout dispatch out of the row loop.
		// Raw layouts copy cells verbatim (bit-exact, as Decode does);
		// packed layouts reconstruct NaN / "" for invalid cells.
		switch c.kind {
		case KindRawFloat:
			for _, r := range rows {
				col.Floats = append(col.Floats, c.rawF[r])
			}
		case KindRawString:
			// Dictionary encoding was declined: nearly every cell is a
			// value of its own, and arrives as an entry of its own.
			col.Dict = slices.Grow(col.Dict, len(rows))
			for _, r := range rows {
				col.Codes = append(col.Codes, col.carry(c.rawS[r]))
			}
		case KindPacked:
			for _, r := range rows {
				if c.ValidAt(r) {
					col.Floats = append(col.Floats, float64(c.base+int64(c.codes.at(r))))
				} else {
					col.Floats = append(col.Floats, math.NaN())
				}
			}
		case KindDict:
			// Segment codes cross as they are and are translated per
			// distinct code, never through a string per cell.
			dict, inv := c.decodeDict()
			at := len(col.Codes)
			for _, r := range rows {
				if c.ValidAt(r) {
					col.Codes = append(col.Codes, uint32(c.codes.at(r)))
				} else {
					col.Codes = append(col.Codes, inv)
				}
			}
			col.rebase(at, dict, &dst.memo)
		}
		if c.valid == nil {
			for range rows {
				col.Valid = append(col.Valid, true)
			}
		} else {
			for _, r := range rows {
				col.Valid = append(col.Valid, c.valid[r>>6]&(1<<(r&63)) != 0)
			}
		}
	}
	dst.rows += len(rows)
}

// SizeBytes estimates the resident heap footprint of the encoded form.
func (e *Encoded) SizeBytes() int {
	total := 0
	for _, c := range e.cols {
		total += len(c.valid) * 8
		total += len(c.codes.words) * 8
		for _, s := range c.dict {
			total += 16 + len(s)
		}
		total += len(c.rawF) * 8
		for _, s := range c.rawS {
			total += 16 + len(s)
		}
	}
	return total
}

// SizeBytes estimates the resident heap footprint of the raw table (the
// baseline the encoded form is compared against): cells, plus each
// dictionary entry's header and payload once. Tables sharing a dictionary
// each count it, so sizes of a table's parts do not add up to its own.
func (t *Table) SizeBytes() int {
	total := 0
	for _, c := range t.cols {
		total += len(c.Valid)
		total += len(c.Floats) * 8
		total += len(c.Codes) * 4
		for _, s := range c.Dict {
			total += 16 + len(s)
		}
	}
	return total
}
