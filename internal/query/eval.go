package query

import (
	"errors"
	"fmt"

	"indice/internal/table"
)

// Evaluator is a predicate compiled for repeated evaluation over many
// encoded segments — the store planner's masked scans run one predicate
// over every segment of every shard, and the naive Predicate.Mask path
// pays a fresh pair of truth buffers per tree node per segment plus a
// rebuilt value set per In leaf. The evaluator hoists all of that out of
// the loop:
//
//   - In value sets are built once at compile time, and translated per
//     segment into a bitset over that segment's dictionary codes;
//   - every tree node owns one pair of packed Kleene truth bitsets,
//     resized (never reallocated, after the first segment of a given
//     size) on each evaluation;
//   - leaves compare bit-packed codes against translated bounds or code
//     sets, and the AND/OR/NOT algebra combines 64 rows per machine op.
//
// The three-valued semantics are exactly Predicate.Mask's over the
// decoded table: a comparison against an invalid cell is UNKNOWN and
// never matches, under negation either. The randomized equivalence
// suites and FuzzEvaluatorMatchesMask pin the two bit for bit.
//
// An Evaluator is NOT safe for concurrent use: callers that fan out
// across goroutines compile one evaluator per worker.
type Evaluator struct {
	root *evalNode
}

type evalOp int

const (
	opNumRange evalOp = iota
	opIn
	opAnd
	opOr
	opNot
)

// evalNode mirrors one predicate tree node with its compiled state and
// reusable truth buffers.
type evalNode struct {
	op       evalOp
	attr     string
	min, max float64
	set      map[string]bool
	kids     []*evalNode
	// tw/fw are the node's packed truth pair: bit j set = definitively
	// true / definitively false; neither = UNKNOWN. Bit j stands for row j
	// of a whole-segment evaluation, or for rows[j] of a sparse one.
	tw, fw []uint64
	// codeSet is per-segment scratch: the In value set translated to a
	// bitset over the codes of the segment's dictionary.
	codeSet []uint64
}

// NewEvaluator compiles the predicate. A nil predicate is an error; use
// the table directly when there is nothing to filter.
func NewEvaluator(p Predicate) (*Evaluator, error) {
	root, err := compile(p)
	if err != nil {
		return nil, err
	}
	return &Evaluator{root: root}, nil
}

func compile(p Predicate) (*evalNode, error) {
	var n *evalNode
	var kids []Predicate
	switch p := p.(type) {
	case NumRange:
		return &evalNode{op: opNumRange, attr: p.Attr, min: p.Min, max: p.Max}, nil
	case In:
		set := make(map[string]bool, len(p.Values))
		for _, v := range p.Values {
			set[v] = true
		}
		return &evalNode{op: opIn, attr: p.Attr, set: set}, nil
	case And:
		n, kids = &evalNode{op: opAnd}, p
	case Or:
		n, kids = &evalNode{op: opOr}, p
	case Not:
		n, kids = &evalNode{op: opNot}, []Predicate{p.P}
	case nil:
		return nil, errors.New("query: evaluator on nil predicate")
	default:
		return nil, fmt.Errorf("query: cannot evaluate %T", p)
	}
	n.kids = make([]*evalNode, len(kids))
	for i, sub := range kids {
		kid, err := compile(sub)
		if err != nil {
			return nil, err
		}
		n.kids[i] = kid
	}
	return n, nil
}

// MaskEncodedBits evaluates the compiled predicate directly over an
// encoded segment, never materializing the raw columns, and returns the
// keep-mask as a packed bitset: bit i is set exactly for rows whose
// three-valued evaluation is definitively TRUE, bits at and beyond the
// row count are zero.
//
// The returned slice aliases the evaluator's root buffer and is only
// valid until the next evaluation.
func (e *Evaluator) MaskEncodedBits(enc *table.Encoded) ([]uint64, error) {
	if err := e.root.eval(enc, nil); err != nil {
		return nil, err
	}
	return e.root.tw, nil
}

// MaskEncodedRows evaluates the compiled predicate at just the given
// ordinals of an encoded segment — the planner's candidate re-check,
// where the index has already narrowed a segment to a few rows and
// evaluating the rest only to discard them would dominate the query.
// The result is packed like MaskEncodedBits' but parallel to rows: bit j
// is set exactly when row rows[j] evaluates definitively TRUE, bits at
// and beyond len(rows) are zero. The slice aliases an evaluator buffer.
func (e *Evaluator) MaskEncodedRows(enc *table.Encoded, rows []int) ([]uint64, error) {
	if rows == nil {
		rows = []int{} // nil asks eval for every row
	}
	if err := e.root.eval(enc, rows); err != nil {
		return nil, err
	}
	return e.root.tw, nil
}

// eval writes the node's truth pair over enc: one bit per row when rows
// is nil, else bit j for row rows[j]. A whole-segment leaf hands its
// column the packed code walk; a sparse leaf tests just its ordinals.
// The AND/OR/NOT algebra is the same word-wise fold either way.
func (n *evalNode) eval(enc *table.Encoded, rows []int) error {
	size := enc.NumRows()
	if rows != nil {
		size = len(rows)
	}
	switch n.op {
	case opNumRange:
		c, err := encodedColumn(enc, n.attr, table.Float64)
		if err != nil {
			return err
		}
		n.growBits(size)
		switch {
		case rows == nil:
			c.FloatRangeBits(n.min, n.max, n.tw, n.fw)
		case c.Kind() == table.KindPacked:
			cLo, cHi, ok := c.CodeBounds(n.min, n.max)
			n.leafRows(c, rows, func(r int) bool {
				code := c.CodeAt(r)
				return ok && code >= cLo && code <= cHi
			})
		default:
			n.leafRows(c, rows, func(r int) bool {
				v := c.FloatAt(r)
				return v >= n.min && v <= n.max
			})
		}
	case opIn:
		c, err := encodedColumn(enc, n.attr, table.String)
		if err != nil {
			return err
		}
		n.growBits(size)
		switch {
		case c.Kind() == table.KindDict:
			// Translate the value set into this segment's dictionary codes
			// once; then every row is a packed-code membership test.
			n.growCodeSet(c)
			if rows == nil {
				c.DictSetBits(n.codeSet, n.tw, n.fw)
			} else {
				n.leafRows(c, rows, func(r int) bool {
					code := c.CodeAt(r)
					return n.codeSet[code>>6]&(1<<(code&63)) != 0
				})
			}
		case rows == nil:
			c.StringSetBits(n.set, n.tw, n.fw)
		default:
			n.leafRows(c, rows, func(r int) bool { return n.set[c.StringAt(r)] })
		}
	case opAnd, opOr:
		if len(n.kids) == 0 {
			if n.op == opAnd {
				return errors.New("query: empty conjunction")
			}
			return errors.New("query: empty disjunction")
		}
		for _, kid := range n.kids {
			if err := kid.eval(enc, rows); err != nil {
				return err
			}
		}
		n.growBits(size)
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
		if err := kid.eval(enc, rows); err != nil {
			return err
		}
		n.growBits(size)
		copy(n.tw, kid.fw)
		copy(n.fw, kid.tw)
	}
	return nil
}

// leafRows writes a leaf's truth pair at the given ordinals: bit j for
// row rows[j], true or false as in reports for a valid cell, neither for
// an invalid one.
func (n *evalNode) leafRows(c *table.EncodedColumn, rows []int, in func(r int) bool) {
	clear(n.tw)
	clear(n.fw)
	for j, r := range rows {
		if !c.ValidAt(r) {
			continue
		}
		bit := uint64(1) << (uint(j) & 63)
		if in(r) {
			n.tw[j>>6] |= bit
		} else {
			n.fw[j>>6] |= bit
		}
	}
}

// growCodeSet rebuilds the node's In value set as a bitset over the
// dictionary codes of c.
func (n *evalNode) growCodeSet(c *table.EncodedColumn) {
	nw := (c.DictLen() + 63) / 64
	if cap(n.codeSet) < nw {
		n.codeSet = make([]uint64, nw)
	}
	n.codeSet = n.codeSet[:nw]
	clear(n.codeSet)
	for v := range n.set {
		if code, ok := c.DictCode(v); ok {
			n.codeSet[code>>6] |= 1 << (code & 63)
		}
	}
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
// The buffers are NOT cleared: every op overwrites them in full.
func (n *evalNode) growBits(rows int) {
	nw := (rows + 63) / 64
	if cap(n.tw) < nw {
		n.tw = make([]uint64, nw)
		n.fw = make([]uint64, nw)
	}
	n.tw, n.fw = n.tw[:nw], n.fw[:nw]
}
