package query

import (
	"errors"
	"fmt"
	"math/bits"

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
	// tw/fw are the node's packed truth pair: bit r set = row r is
	// definitively true / definitively false; neither = UNKNOWN.
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
// encoded segment, never materializing the raw columns, at the rows cand
// selects — bit r of cand[r>>6] for row r — or at every row when cand is
// nil. It returns the keep-mask as a packed bitset: bit r is set exactly
// when r is selected and its three-valued evaluation is definitively
// TRUE. A candidate re-check — the index has already narrowed a segment
// to a few rows, and evaluating the rest only to discard them would
// dominate the query — tests just the candidates.
//
// The returned slice aliases the evaluator's root buffer and is only
// valid until the next evaluation.
func (e *Evaluator) MaskEncodedBits(enc *table.Encoded, cand []uint64) ([]uint64, error) {
	if err := e.root.eval(enc, cand); err != nil {
		return nil, err
	}
	return e.root.tw, nil
}

// eval writes the node's truth pair over enc's rows: of every row when
// cand is nil, else of the candidate rows, all others left UNKNOWN —
// which every operator keeps UNKNOWN. A whole-segment leaf hands its
// column the packed code walk; a sparse leaf tests just its candidates.
// The AND/OR/NOT algebra is the same word-wise fold either way.
func (n *evalNode) eval(enc *table.Encoded, cand []uint64) error {
	switch n.op {
	case opNumRange, opIn:
		want := table.Float64
		if n.op == opIn {
			want = table.String
		}
		c, err := encodedColumn(enc, n.attr, want)
		if err != nil {
			return err
		}
		n.growBits(enc.NumRows())
		if c.Kind() == table.KindDict {
			// Translate the value set into this segment's dictionary codes
			// once; then every row is a packed-code membership test.
			n.growCodeSet(c)
		}
		switch {
		case cand != nil:
			n.leafRows(c, cand)
		case n.op == opNumRange:
			c.FloatRangeBits(n.min, n.max, n.tw, n.fw)
		case c.Kind() == table.KindDict:
			c.DictSetBits(n.codeSet, n.tw, n.fw)
		default:
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
			if err := kid.eval(enc, cand); err != nil {
				return err
			}
		}
		n.growBits(enc.NumRows())
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
		if err := kid.eval(enc, cand); err != nil {
			return err
		}
		n.growBits(enc.NumRows())
		copy(n.tw, kid.fw)
		copy(n.fw, kid.tw)
	}
	return nil
}

// leafRows writes a leaf's truth pair at the candidate rows: true or
// false as the leaf reports for a valid cell, neither for an invalid one
// or a row that is no candidate.
func (n *evalNode) leafRows(c *table.EncodedColumn, cand []uint64) {
	clear(n.tw)
	clear(n.fw)
	var cLo, cHi uint64
	ok, packed := false, n.op == opNumRange && c.Kind() == table.KindPacked
	if packed {
		cLo, cHi, ok = c.CodeBounds(n.min, n.max)
	}
	for w, word := range cand {
		for ; word != 0; word &= word - 1 {
			bit := word & -word
			r := w<<6 + bits.TrailingZeros64(word)
			if !c.ValidAt(r) {
				continue
			}
			var in bool
			switch {
			case packed:
				code := c.CodeAt(r)
				in = ok && code >= cLo && code <= cHi
			case n.op == opNumRange:
				v := c.FloatAt(r)
				in = v >= n.min && v <= n.max
			case c.Kind() == table.KindDict:
				code := c.CodeAt(r)
				in = n.codeSet[code>>6]&(1<<(code&63)) != 0
			default:
				in = n.set[c.StringAt(r)]
			}
			if in {
				n.tw[w] |= bit
			} else {
				n.fw[w] |= bit
			}
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
