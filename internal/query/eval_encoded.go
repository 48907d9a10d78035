package query

import (
	"errors"
	"fmt"

	"indice/internal/table"
)

// MaskEncodedBits evaluates the compiled predicate directly over an
// encoded segment, never materializing the raw columns, and returns the
// keep-mask as a packed bitset: bit i is set exactly for rows whose
// three-valued evaluation is definitively TRUE, bits at and beyond the
// row count are zero.
//
// The evaluation is word-at-a-time end to end: an In/= over a dictionary
// column compares bit-packed dictionary codes against a per-segment code
// set, a numeric range over a frame-of-reference column compares codes
// against translated code bounds, and the Kleene AND/OR/NOT algebra
// combines 64 rows per machine op on the nodes' truth bitsets. Semantics
// are bit-for-bit those of Mask over the decoded table — the randomized
// equivalence suite pins the two paths against each other.
//
// The returned slice aliases the evaluator's root buffer and is only
// valid until the next evaluation. Not safe for concurrent use.
func (e *Evaluator) MaskEncodedBits(enc *table.Encoded) ([]uint64, error) {
	if err := e.root.evalEncoded(enc); err != nil {
		return nil, err
	}
	return e.root.tw, nil
}

// MaskEncodedRows evaluates the compiled predicate at just the given
// ordinals of an encoded segment — the planner's candidate re-check,
// where the index has already narrowed a segment to a few rows and
// materializing the rest only to discard them would dominate the query.
// The returned mask is parallel to rows: mask[j] reports whether row
// rows[j] evaluates definitively TRUE, exactly as bit rows[j] of
// MaskEncodedBits. The slice aliases an evaluator buffer.
func (e *Evaluator) MaskEncodedRows(enc *table.Encoded, rows []int) ([]bool, error) {
	if err := e.root.evalEncodedRows(enc, rows); err != nil {
		return nil, err
	}
	return e.root.t, nil
}

func (n *evalNode) evalEncodedRows(enc *table.Encoded, rows []int) error {
	switch n.op {
	case opNumRange:
		c, err := encodedColumn(enc, n.attr, table.Float64)
		if err != nil {
			return err
		}
		// All-valid columns write every slot, so the buffers need no
		// clearing and the loop carries no validity branch.
		if c.Kind() == table.KindPacked {
			cLo, cHi, ok := c.CodeBounds(n.min, n.max)
			if c.AllValid() {
				n.growDirty(len(rows))
				for j, r := range rows {
					code := c.CodeAt(r)
					in := ok && code >= cLo && code <= cHi
					n.t[j] = in
					n.f[j] = !in
				}
			} else {
				n.grow(len(rows))
				for j, r := range rows {
					if !c.ValidAt(r) {
						continue
					}
					code := c.CodeAt(r)
					in := ok && code >= cLo && code <= cHi
					n.t[j] = in
					n.f[j] = !in
				}
			}
		} else if c.AllValid() {
			n.growDirty(len(rows))
			for j, r := range rows {
				v := c.FloatAt(r)
				in := v >= n.min && v <= n.max
				n.t[j] = in
				n.f[j] = !in
			}
		} else {
			n.grow(len(rows))
			for j, r := range rows {
				if !c.ValidAt(r) {
					continue
				}
				v := c.FloatAt(r)
				in := v >= n.min && v <= n.max
				n.t[j] = in
				n.f[j] = !in
			}
		}
	case opIn:
		c, err := encodedColumn(enc, n.attr, table.String)
		if err != nil {
			return err
		}
		if c.Kind() == table.KindDict {
			n.growCodeSet(c)
			if c.AllValid() {
				n.growDirty(len(rows))
				for j, r := range rows {
					code := c.CodeAt(r)
					in := n.codeSet[code>>6]&(1<<(code&63)) != 0
					n.t[j] = in
					n.f[j] = !in
				}
			} else {
				n.grow(len(rows))
				for j, r := range rows {
					if !c.ValidAt(r) {
						continue
					}
					code := c.CodeAt(r)
					in := n.codeSet[code>>6]&(1<<(code&63)) != 0
					n.t[j] = in
					n.f[j] = !in
				}
			}
		} else if c.AllValid() {
			n.growDirty(len(rows))
			for j, r := range rows {
				in := n.set[c.StringAt(r)]
				n.t[j] = in
				n.f[j] = !in
			}
		} else {
			n.grow(len(rows))
			for j, r := range rows {
				if !c.ValidAt(r) {
					continue
				}
				in := n.set[c.StringAt(r)]
				n.t[j] = in
				n.f[j] = !in
			}
		}
	case opAnd, opOr:
		if len(n.kids) == 0 {
			if n.op == opAnd {
				return errors.New("query: empty conjunction")
			}
			return errors.New("query: empty disjunction")
		}
		for _, kid := range n.kids {
			if err := kid.evalEncodedRows(enc, rows); err != nil {
				return err
			}
		}
		n.growDirty(len(rows))
		copy(n.t, n.kids[0].t)
		copy(n.f, n.kids[0].f)
		if n.op == opAnd {
			for _, kid := range n.kids[1:] {
				for j := range n.t {
					n.t[j] = n.t[j] && kid.t[j]
					n.f[j] = n.f[j] || kid.f[j]
				}
			}
		} else {
			for _, kid := range n.kids[1:] {
				for j := range n.t {
					n.t[j] = n.t[j] || kid.t[j]
					n.f[j] = n.f[j] && kid.f[j]
				}
			}
		}
	case opNot:
		kid := n.kids[0]
		if err := kid.evalEncodedRows(enc, rows); err != nil {
			return err
		}
		n.growDirty(len(rows))
		copy(n.t, kid.f)
		copy(n.f, kid.t)
	case opOpaque:
		// Foreign predicates see the decoded segment and are sampled at
		// the requested ordinals (they are row-local by the Mask
		// contract).
		m, err := n.opaque.Mask(enc.Decode())
		if err != nil {
			return err
		}
		if len(m) != enc.NumRows() {
			return fmt.Errorf("query: predicate mask has %d entries, table has %d rows", len(m), enc.NumRows())
		}
		n.growDirty(len(rows))
		for j, r := range rows {
			if r < 0 || r >= len(m) {
				return fmt.Errorf("table: row %d out of range [0,%d)", r, len(m))
			}
			n.t[j] = m[r]
			n.f[j] = !m[r]
		}
	}
	return nil
}

// growCodeSet rebuilds the node's In value set as a bitset over the
// dictionary codes of c.
func (n *evalNode) growCodeSet(c *table.EncodedColumn) {
	n.resetCodeSet(c.DictLen())
	for v := range n.set {
		if code, ok := c.DictCode(v); ok {
			n.codeSet[code>>6] |= 1 << (code & 63)
		}
	}
}

// resetCodeSet sizes the node's code bitset for a dictionary of entries
// values and clears it.
func (n *evalNode) resetCodeSet(entries int) {
	nw := (entries + 63) / 64
	if cap(n.codeSet) < nw {
		n.codeSet = make([]uint64, nw)
	}
	n.codeSet = n.codeSet[:nw]
	clear(n.codeSet)
}

// encodedColumn resolves the node's attribute against the segment with
// the same error contract as Table.Floats/Strings.
func encodedColumn(enc *table.Encoded, attr string, want table.Type) (*table.EncodedColumn, error) {
	c := enc.Column(attr)
	if c == nil {
		return nil, fmt.Errorf("%w: %q", table.ErrNoColumn, attr)
	}
	if c.Type() != want {
		return nil, fmt.Errorf("%w: %q is %v, want %v", table.ErrTypeMismatch, attr, c.Type(), want)
	}
	return c, nil
}

// growBits resizes the node's packed truth buffers to cover rows bits.
// The buffers are NOT cleared: every op below overwrites them in full.
func (n *evalNode) growBits(rows int) {
	nw := (rows + 63) / 64
	if cap(n.tw) < nw {
		n.tw = make([]uint64, nw)
		n.fw = make([]uint64, nw)
	}
	n.tw, n.fw = n.tw[:nw], n.fw[:nw]
}

func (n *evalNode) evalEncoded(enc *table.Encoded) error {
	rows := enc.NumRows()
	switch n.op {
	case opNumRange:
		c, err := encodedColumn(enc, n.attr, table.Float64)
		if err != nil {
			return err
		}
		n.growBits(rows)
		c.FloatRangeBits(n.min, n.max, n.tw, n.fw)
	case opIn:
		c, err := encodedColumn(enc, n.attr, table.String)
		if err != nil {
			return err
		}
		n.growBits(rows)
		if c.Kind() == table.KindDict {
			// Translate the value set into this segment's dictionary
			// codes once, then the row loop is packed-code membership.
			n.growCodeSet(c)
			c.DictSetBits(n.codeSet, n.tw, n.fw)
		} else {
			c.StringSetBits(n.set, n.tw, n.fw)
		}
	case opAnd, opOr:
		if len(n.kids) == 0 {
			if n.op == opAnd {
				return errors.New("query: empty conjunction")
			}
			return errors.New("query: empty disjunction")
		}
		for _, kid := range n.kids {
			if err := kid.evalEncoded(enc); err != nil {
				return err
			}
		}
		n.growBits(rows)
		copy(n.tw, n.kids[0].tw)
		copy(n.fw, n.kids[0].fw)
		if n.op == opAnd {
			for _, kid := range n.kids[1:] {
				kt, kf := kid.tw, kid.fw
				for w := range n.tw {
					n.tw[w] &= kt[w]
					n.fw[w] |= kf[w]
				}
			}
		} else {
			for _, kid := range n.kids[1:] {
				kt, kf := kid.tw, kid.fw
				for w := range n.tw {
					n.tw[w] |= kt[w]
					n.fw[w] &= kf[w]
				}
			}
		}
	case opNot:
		kid := n.kids[0]
		if err := kid.evalEncoded(enc); err != nil {
			return err
		}
		n.growBits(rows)
		copy(n.tw, kid.fw)
		copy(n.fw, kid.tw)
	case opOpaque:
		// Foreign Predicate implementations only understand raw tables:
		// decode and fall back to their two-valued Mask, exactly as eval
		// does.
		m, err := n.opaque.Mask(enc.Decode())
		if err != nil {
			return err
		}
		if len(m) != rows {
			return fmt.Errorf("query: predicate mask has %d entries, table has %d rows", len(m), rows)
		}
		n.growBits(rows)
		var acc uint64
		for i, v := range m {
			if v {
				acc |= 1 << (uint(i) & 63)
			}
			if i&63 == 63 {
				n.tw[i>>6] = acc
				acc = 0
			}
		}
		if rows&63 != 0 {
			n.tw[rows>>6] = acc
		}
		for w := range n.fw {
			n.fw[w] = ^n.tw[w]
		}
		if tail := uint(rows & 63); tail != 0 {
			n.fw[len(n.fw)-1] &= uint64(1)<<tail - 1
		}
	}
	return nil
}
