package table

import "math/bits"

// Bitwise predicate leaves. The query evaluator's encoded path asks each
// column for a pair of Kleene truth bitsets — one bit per row for
// definitively-true and definitively-false; a row with neither bit is
// UNKNOWN — instead of looping rows itself. The column walks its own
// packed words with the decode hoisted into locals and folds validity in
// word-at-a-time, so upstream AND/OR/NOT combine 64 rows per machine op.
//
// Contract shared by the *Bits methods: t and f hold (rows+63)/64 words
// and are fully overwritten (no pre-zeroing needed); bits at and beyond
// the row count come back zero so word-wise folds never see phantom rows.

// kleeneLeaf folds raw in-bits, the validity bitset (nil = all valid)
// and the row-count tail into the truth pair: t = in & valid,
// f = ^in & valid. in may alias t.
func kleeneLeaf(in, valid, t, f []uint64, rows int) {
	if valid == nil {
		for w, x := range in {
			t[w] = x
			f[w] = ^x
		}
	} else {
		for w, x := range in {
			t[w] = x & valid[w]
			f[w] = ^x & valid[w]
		}
	}
	if tail := uint(rows & 63); tail != 0 && len(t) > 0 {
		m := uint64(1)<<tail - 1
		t[len(t)-1] &= m
		f[len(f)-1] &= m
	}
}

// rangeBits sets bit i of dst for every row whose code lies in
// [cLo, cHi], overwriting every word that covers a row. Codes of invalid
// rows are zero and may set bits; callers mask with validity.
func (p *packed) rangeBits(cLo, cHi uint64, dst []uint64) {
	if p.width == 0 {
		fill := uint64(0)
		if cLo == 0 {
			fill = ^uint64(0)
		}
		for i := range dst {
			dst[i] = fill
		}
		return
	}
	width := uint(p.width)
	mask, span := uint64(1)<<width-1, cHi-cLo
	// The codes are read in order through a register, so only a code
	// that straddles two words costs a load, and the compare is a borrow:
	// no branch depends on the data.
	words := p.words
	cur, avail, w := uint64(0), uint(0), -1
	for lo := 0; lo < p.n; lo += 64 {
		n := min(64, p.n-lo)
		var out uint64 // bit i: the code of row lo+i is outside the range
		for i := range n {
			var v uint64
			if avail >= width {
				v = cur & mask
				cur >>= width
				avail -= width
			} else {
				w++
				v = (cur | words[w]<<avail) & mask
				cur = words[w] >> (width - avail)
				avail += 64 - width
			}
			_, b := bits.Sub64(span, v-cLo, 0)
			out |= b << i
		}
		dst[lo>>6] = ^out & (^uint64(0) >> (64 - n))
	}
}

// setBits sets bit i of dst for every row whose code is a member of the
// code bitset, overwriting every word that covers a row.
func (p *packed) setBits(set []uint64, dst []uint64) {
	if p.width == 0 {
		fill := uint64(0)
		if len(set) > 0 && set[0]&1 != 0 {
			fill = ^uint64(0)
		}
		for i := range dst {
			dst[i] = fill
		}
		return
	}
	width := p.width
	mask := uint64(1)<<uint(width) - 1
	words := p.words
	var acc uint64
	for i := 0; i < p.n; i++ {
		bit := i * width
		w, off := bit>>6, uint(bit&63)
		v := words[w] >> off
		if off+uint(width) > 64 {
			v |= words[w+1] << (64 - off)
		}
		v &= mask
		if set[v>>6]&(1<<(v&63)) != 0 {
			acc |= 1 << (uint(i) & 63)
		}
		if i&63 == 63 {
			dst[i>>6] = acc
			acc = 0
		}
	}
	if p.n&63 != 0 {
		dst[p.n>>6] = acc
	}
}

// FloatRangeBits writes the truth pair of "value ∈ [lo, hi]" for a
// Float64 column. Packed columns compare translated code bounds without
// decoding; raw columns compare values (invalid cells hold NaN, which
// fails both comparisons and is cleared by validity regardless).
func (c *EncodedColumn) FloatRangeBits(lo, hi float64, t, f []uint64) {
	if c.kind == KindPacked {
		if cLo, cHi, ok := c.CodeBounds(lo, hi); ok {
			c.codes.rangeBits(cLo, cHi, t)
		} else {
			clear(t)
		}
	} else {
		var acc uint64
		for i, v := range c.rawF {
			if v >= lo && v <= hi {
				acc |= 1 << (uint(i) & 63)
			}
			if i&63 == 63 {
				t[i>>6] = acc
				acc = 0
			}
		}
		if n := len(c.rawF); n&63 != 0 {
			t[n>>6] = acc
		}
	}
	kleeneLeaf(t, c.valid, t, f, c.rows)
}

// DictSetBits writes the truth pair of "value ∈ set" for a KindDict
// column, where set is a bitset over dictionary codes (built via
// DictCode) holding DictLen bits.
func (c *EncodedColumn) DictSetBits(codeSet []uint64, t, f []uint64) {
	c.codes.setBits(codeSet, t)
	kleeneLeaf(t, c.valid, t, f, c.rows)
}

// StringSetBits writes the truth pair of "value ∈ set" for a raw string
// column (per-row map lookups; dictionary columns use DictSetBits).
func (c *EncodedColumn) StringSetBits(set map[string]bool, t, f []uint64) {
	var acc uint64
	for i, s := range c.rawS {
		if set[s] {
			acc |= 1 << (uint(i) & 63)
		}
		if i&63 == 63 {
			t[i>>6] = acc
			acc = 0
		}
	}
	if n := len(c.rawS); n&63 != 0 {
		t[n>>6] = acc
	}
	kleeneLeaf(t, c.valid, t, f, c.rows)
}
