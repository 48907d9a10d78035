package table

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Segment encoding. The store keeps its rows immutable and compressed
// from the moment they arrive, in an Encoded form that snapshots, the
// WAL, replication frames and checkpoint files all share:
//
//   - low-cardinality string columns become a sorted dictionary plus
//     bit-packed per-row codes (code order = string order, so equality
//     and membership compare small integers, never strings);
//   - float64 columns of short decimals become frame-of-reference
//     bit-packed codes, value = (base + code) / 10^scale (scale 0 divides
//     by nothing): ALP's decimal exponent (Afroozeh, Kuffó, Boncz, SIGMOD
//     2024) without its exception lists. A decimal parsed from text with
//     ≤ 15 fraction digits and a mantissa < 2^53 is the correctly rounded
//     m / 10^e, as is the IEEE quotient of the two exact doubles;
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
	// KindPacked stores decimal floats as base + bit-packed code over
	// 10^scale (scale 0: integral floats, no division).
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

// packer fills a packed vector in row order, a word at a time: no word
// is read back.
type packer struct {
	p   packed
	acc uint64
	off uint
	w   int
}

func (k *packer) put(code uint64) {
	width := uint(k.p.width)
	if width == 0 {
		return
	}
	k.acc |= code << k.off
	if k.off += width; k.off >= 64 {
		k.off -= 64
		k.p.words[k.w] = k.acc
		k.w++
		k.acc = code >> (width - k.off)
	}
}

// done returns the vector, its last word flushed.
func (k *packer) done() packed {
	if k.off > 0 {
		k.p.words[k.w] = k.acc
	}
	return k.p
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

	// KindPacked: value = float64(base + int64(code)) / 10^scale; see dec.
	base  int64
	scale uint8

	// Raw fallbacks.
	rawF []float64
	rawS []string
}

// Type returns the logical column type.
func (c *EncodedColumn) Type() Type { return c.typ }

// Kind returns the physical layout.
func (c *EncodedColumn) Kind() ColKind { return c.kind }

// Name returns the column name.
func (c *EncodedColumn) Name() string { return c.name }

// Decimal returns row i's packed n and scale, value n / 10^scale (KindPacked).
func (c *EncodedColumn) Decimal(i int) (n int64, scale int) {
	return c.base + int64(c.codes.at(i)), int(c.scale)
}

// ValidAt reports whether row i holds a value.
func (c *EncodedColumn) ValidAt(i int) bool {
	return c.valid == nil || c.valid[i>>6]&(1<<(i&63)) != 0
}

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
		return c.dec(c.codes.at(i))
	}
	return c.rawF[i]
}

// block returns the validity word of up to 64 rows — rows[j0:j1], or
// rows j0 to j1−1 when rows is nil — bit i for the i-th, and their cells:
// a packed column's codes into codes, a raw one's values into vals. The
// cells of invalid rows are meaningless.
func (c *EncodedColumn) block(rows []int, j0, j1 int, codes *[64]uint64, vals *[64]float64) uint64 {
	var word uint64
	for i := 0; i < j1-j0; i++ {
		r := j0 + i
		if rows != nil {
			r = rows[r]
		}
		if c.ValidAt(r) {
			word |= 1 << i
		}
		if c.kind == KindPacked {
			codes[i] = c.codes.at(r)
		} else {
			vals[i] = c.rawF[r]
		}
	}
	return word
}

// maxScale is the largest decimal exponent a packed column may carry: up
// to 10^15 a decimal's digits and its power of ten are both exact doubles.
const maxScale = 15

// pow10 holds the exact powers of ten a packed column's scale divides by.
var pow10 = [maxScale + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// dec reconstructs the value of a packed code. It is monotone in the code
// while base + code does not overflow (the reader refuses a base where it
// could), as int-to-float conversion and correctly rounded division are.
func (c *EncodedColumn) dec(code uint64) float64 { return c.decInt(c.base + int64(code)) }

// decInt is the value of the packed integer n = base + code.
func (c *EncodedColumn) decInt(n int64) float64 {
	v := float64(n)
	if c.scale == 0 {
		return v
	}
	return v / pow10[c.scale]
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
// ranges don't overlap (no valid row can match) or a bound is NaN.
func (c *EncodedColumn) CodeBounds(lo, hi float64) (cLo, cHi uint64, ok bool) {
	if !(lo <= hi) {
		return 0, 0, false
	}
	maxCode := int64(1)<<uint(c.codes.width) - 1
	first := c.codesBelow(lo, false, maxCode)
	end := c.codesBelow(hi, true, maxCode)
	if first >= end {
		return 0, 0, false
	}
	return uint64(first), uint64(end - 1), true
}

// codesBelow counts the codes in [0, maxCode] whose value is below x (at
// most x when orEqual). Because dec is monotone they are the codes
// [0, n): n starts from the scaled estimate Ceil(x·10^scale) − base and
// steps until dec confirms it, since x·10^scale is itself rounded.
func (c *EncodedColumn) codesBelow(x float64, orEqual bool, maxCode int64) int64 {
	below := func(v float64) bool { return v < x || orEqual && v == x }
	est := math.Ceil(x*pow10[c.scale]) - float64(c.base)
	n := int64(max(0, min(est, float64(maxCode+1))))
	for n > 0 && !below(c.dec(uint64(n-1))) {
		n--
	}
	for n <= maxCode && below(c.dec(uint64(n))) {
		n++
	}
	return n
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

// Columns returns the encoded columns in schema order. The slice is the
// encoding's own: callers must not modify it.
func (e *Encoded) Columns() []*EncodedColumn { return e.cols }

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
// an encoding's round-trip invariants stay in the raw layout. The
// encoding shares no cell array with t, so t may be reused after.
func Encode(t *Table) *Encoded {
	e := &Encoded{rows: t.rows, index: make(map[string]int, len(t.cols))}
	for _, c := range t.cols {
		e.index[c.Name] = len(e.cols)
		e.cols = append(e.cols, encodeColumn(c, t.rows))
	}
	return e
}

// encodeColumn compresses one column of rows cells.
func encodeColumn(c *Column, rows int) *EncodedColumn {
	if c.Typ == String {
		return encodeString(c, rows)
	}
	return encodeFloats(c.Name, c.Floats, c.Valid, rows)
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

// encodeFloats compresses a Float64 column of rows cells, floats and
// valid, which it keeps no reference to.
func encodeFloats(name string, floats []float64, valid []bool, rows int) *EncodedColumn {
	ec := &EncodedColumn{name: name, typ: Float64, rows: rows}
	ec.valid, _ = packValidity(valid)

	raw := func() *EncodedColumn {
		ec.kind = KindRawFloat
		ec.rawF = slices.Clone(floats)
		return ec
	}

	// Pass 1 finds the scale and the range. Invalid cells must carry the
	// canonical NaN (what decode regenerates) and every valid value must
	// be float64(n) / 10^scale, bit for bit, for an integer n within
	// ±maxExact: this rejects NaN, ±Inf and -0.0, whose round trip yields
	// +0.0. A value that is not moves the column to the next scale it
	// round-trips at and the pass starts over, at most maxScale times.
	valid = valid[:len(floats)]
	scale, nLo, nHi := 0, int64(0), int64(0)
pass:
	for scale <= maxScale {
		p := pow10[scale]
		nLo, nHi = math.MaxInt64, math.MinInt64
		for i, v := range floats {
			if !valid[i] {
				if math.Float64bits(v) != nanBits {
					return raw()
				}
				continue
			}
			n := math.RoundToEven(v * p)
			r := float64(int64(n)) // scaleFor's check, the scale in a register
			if scale > 0 {
				r /= p
			}
			if !(n >= -maxExact && n <= maxExact) || math.Float64bits(r) != math.Float64bits(v) {
				scale = scaleFor(v, scale+1)
				continue pass
			}
			nLo, nHi = min(nLo, int64(n)), max(nHi, int64(n))
		}
		break
	}
	if nLo > nHi {
		nLo, nHi = 0, 0 // all invalid: width-0 codes, base 0
	}
	// A scaled column must also be smaller than its raw form (u8 scale,
	// u64 base, u8 width and the code words against 8 bytes a row), so
	// that a one-row WAL part does not grow.
	width := bits.Len64(uint64(nHi - nLo))
	if scale > maxScale || width > 32 || scale > 0 && 10+(rows*width+63)/64*8 >= 8*rows {
		return raw()
	}

	// Pass 2 packs the integers pass 1 checked.
	p := pow10[scale]
	codes := packer{p: newPacked(rows, width)}
	for i, v := range floats {
		var code uint64
		if valid[i] {
			code = uint64(int64(math.RoundToEven(v*p)) - nLo)
		}
		codes.put(code)
	}
	ec.kind, ec.base, ec.scale, ec.codes = KindPacked, nLo, uint8(scale), codes.done()
	return ec
}

// maxExact bounds the integers a packed column's values map to: every
// one of them, and 10^scale, is then an exact double.
const maxExact = 1 << 52

// scaleFor returns the smallest scale from on at which v is
// float64(n) / 10^scale (n itself at scale 0), bit for bit, for an
// integer n within ±maxExact, or maxScale+1 when there is none: there is
// none for NaN, ±Inf and -0.0.
func scaleFor(v float64, from int) int {
	for ; from <= maxScale; from++ {
		n := math.RoundToEven(v * pow10[from])
		if !(n >= -maxExact && n <= maxExact) {
			continue
		}
		r := float64(int64(n))
		if from > 0 {
			r /= pow10[from]
		}
		if math.Float64bits(r) == math.Float64bits(v) {
			break
		}
	}
	return from
}

// Decode reconstructs the original table, bitwise identical to what
// Encode was given.
func (e *Encoded) Decode() *Table {
	t := e.emptyTable()
	appendRows(t, e.cols, e.allRows())
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

// TakeAppend decodes the given rows directly onto the end of dst — the
// single-copy form of Take + AppendTable used when materializing many
// segments' matches into one result table. Each column of dst is found in
// the encoding by name, once per call, and must have the same type there;
// columns dst does not carry are never decoded, so a full-width page and a
// narrowed materialization share one decode loop. Decoded cells are
// identical to Take's. On a missing or mistyped column or an out-of-range
// row dst is unchanged.
func (e *Encoded) TakeAppend(dst *Table, rows []int) error {
	src, err := e.sources(dst)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r < 0 || r >= e.rows {
			return fmt.Errorf("table: row %d out of range [0,%d)", r, e.rows)
		}
	}
	appendRows(dst, src, rows)
	return nil
}

// sources returns, for each column of dst, the encoded column with its
// name: the encoding's own column list when dst has its schema.
func (e *Encoded) sources(dst *Table) ([]*EncodedColumn, error) {
	if slices.EqualFunc(dst.cols, e.cols, func(c *Column, ec *EncodedColumn) bool {
		return c.Name == ec.name && c.Typ == ec.typ
	}) {
		return e.cols, nil
	}
	src := make([]*EncodedColumn, len(dst.cols))
	for i, c := range dst.cols {
		ec := e.Column(c.Name)
		if ec == nil || ec.typ != c.Typ {
			return nil, fmt.Errorf("table: take-append without column %s %q (%d cols vs %d)", c.Typ, c.Name, len(e.cols), len(dst.cols))
		}
		src[i] = ec
	}
	return src, nil
}

// appendRows is TakeAppend after its checks: src[i] fills dst's column i.
func appendRows(dst *Table, src []*EncodedColumn, rows []int) {
	dst.Grow(len(rows))
	for i, c := range src {
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
					col.Floats = append(col.Floats, c.dec(c.codes.at(r)))
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
