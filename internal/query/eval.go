package query

import (
	"errors"
	"fmt"

	"indice/internal/table"
)

// Evaluator is a predicate compiled for repeated evaluation over many
// tables — the store planner's masked scans run one predicate over every
// segment of every shard, and the naive Predicate.Mask path pays a fresh
// pair of truth buffers per tree node per segment plus a rebuilt value
// set per In leaf. The evaluator hoists all of that out of the loop:
//
//   - In value sets are built once at compile time;
//   - every tree node owns a pair of reusable Kleene truth buffers,
//     resized (never reallocated, after the first table of a given size)
//     on each evaluation;
//   - numeric and categorical leaves evaluate over the table's column
//     slices directly, with no per-row interface dispatch or allocation.
//
// The three-valued semantics are exactly Predicate.Mask's: a comparison
// against an invalid cell is UNKNOWN and never matches, under negation
// either. The randomized planner equivalence tests pin Evaluator.Mask
// bitwise against Predicate.Mask.
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
	opOpaque // Predicate implementation outside this package
)

// evalNode mirrors one predicate tree node with its compiled state and
// reusable truth buffers. t[i]/f[i] report definitively-true/-false; a
// row with neither set is UNKNOWN.
type evalNode struct {
	op       evalOp
	attr     string
	min, max float64
	set      map[string]bool
	opaque   Predicate
	kids     []*evalNode
	t, f     []bool
	// tw/fw are the packed truth pair of the encoded path (bit i set =
	// definitively true / definitively false; neither = UNKNOWN), the
	// word-wise analogue of t/f.
	tw, fw []uint64
	// codeSet is per-segment scratch: the In value set translated to a
	// bitset over the codes of the dictionary at hand (a sealed segment's
	// or a raw table's).
	codeSet []uint64
}

// NewEvaluator compiles the predicate. A nil predicate is an error; use
// the table directly when there is nothing to filter.
func NewEvaluator(p Predicate) (*Evaluator, error) {
	if p == nil {
		return nil, errors.New("query: evaluator on nil predicate")
	}
	return &Evaluator{root: compile(p)}, nil
}

func compile(p Predicate) *evalNode {
	switch p := p.(type) {
	case NumRange:
		return &evalNode{op: opNumRange, attr: p.Attr, min: p.Min, max: p.Max}
	case In:
		set := make(map[string]bool, len(p.Values))
		for _, v := range p.Values {
			set[v] = true
		}
		return &evalNode{op: opIn, attr: p.Attr, set: set}
	case And:
		n := &evalNode{op: opAnd, kids: make([]*evalNode, len(p))}
		for i, sub := range p {
			n.kids[i] = compile(sub)
		}
		return n
	case Or:
		n := &evalNode{op: opOr, kids: make([]*evalNode, len(p))}
		for i, sub := range p {
			n.kids[i] = compile(sub)
		}
		return n
	case Not:
		return &evalNode{op: opNot, kids: []*evalNode{compile(p.P)}}
	default:
		return &evalNode{op: opOpaque, opaque: p}
	}
}

// Mask evaluates the compiled predicate over t and returns the keep-mask:
// true exactly for rows whose three-valued evaluation is definitively
// TRUE — bitwise what the predicate's own Mask returns. The returned
// slice aliases the evaluator's root buffer and is only valid until the
// next Mask call; callers that need to retain it must copy.
func (e *Evaluator) Mask(t *table.Table) ([]bool, error) {
	if err := e.root.eval(t); err != nil {
		return nil, err
	}
	return e.root.t, nil
}

// grow resizes the node's truth buffers to n rows, reusing capacity, and
// clears them.
func (n *evalNode) grow(rows int) {
	if cap(n.t) < rows {
		n.t = make([]bool, rows)
		n.f = make([]bool, rows)
	}
	n.t, n.f = n.t[:rows], n.f[:rows]
	for i := range n.t {
		n.t[i] = false
		n.f[i] = false
	}
}

// growDirty is grow without the clear, for ops that overwrite every
// slot of both buffers.
func (n *evalNode) growDirty(rows int) {
	if cap(n.t) < rows {
		n.t = make([]bool, rows)
		n.f = make([]bool, rows)
	}
	n.t, n.f = n.t[:rows], n.f[:rows]
}

func (n *evalNode) eval(tab *table.Table) error {
	rows := tab.NumRows()
	switch n.op {
	case opNumRange:
		vals, err := tab.Floats(n.attr)
		if err != nil {
			return err
		}
		valid, _ := tab.ValidMask(n.attr)
		n.grow(rows)
		for i, v := range vals {
			if !valid[i] {
				continue
			}
			in := v >= n.min && v <= n.max
			n.t[i] = in
			n.f[i] = !in
		}
	case opIn:
		codes, dict, err := tab.StringCodes(n.attr)
		if err != nil {
			return err
		}
		valid, _ := tab.ValidMask(n.attr)
		// One set lookup per dictionary entry, then an array index per row.
		n.resetCodeSet(len(dict))
		for k, v := range dict {
			if n.set[v] {
				n.codeSet[k>>6] |= 1 << (k & 63)
			}
		}
		n.grow(rows)
		for i, k := range codes {
			if !valid[i] {
				continue
			}
			in := n.codeSet[k>>6]&(1<<(k&63)) != 0
			n.t[i] = in
			n.f[i] = !in
		}
	case opAnd:
		if len(n.kids) == 0 {
			return errors.New("query: empty conjunction")
		}
		if err := n.evalKidsInto(tab, func(acc, kid *evalNode, i int) {
			acc.t[i] = acc.t[i] && kid.t[i]
			acc.f[i] = acc.f[i] || kid.f[i]
		}); err != nil {
			return err
		}
	case opOr:
		if len(n.kids) == 0 {
			return errors.New("query: empty disjunction")
		}
		if err := n.evalKidsInto(tab, func(acc, kid *evalNode, i int) {
			acc.t[i] = acc.t[i] || kid.t[i]
			acc.f[i] = acc.f[i] && kid.f[i]
		}); err != nil {
			return err
		}
	case opNot:
		kid := n.kids[0]
		if err := kid.eval(tab); err != nil {
			return err
		}
		n.grow(rows)
		copy(n.t, kid.f)
		copy(n.f, kid.t)
	case opOpaque:
		// Foreign Predicate implementations fall back to their two-valued
		// Mask, exactly as evalTri does.
		m, err := n.opaque.Mask(tab)
		if err != nil {
			return err
		}
		if len(m) != rows {
			return fmt.Errorf("query: predicate mask has %d entries, table has %d rows", len(m), rows)
		}
		n.grow(rows)
		for i, v := range m {
			n.t[i] = v
			n.f[i] = !v
		}
	}
	return nil
}

// evalKidsInto evaluates every child and folds them into this node's
// buffers with the given Kleene combiner, seeding from the first child.
func (n *evalNode) evalKidsInto(tab *table.Table, fold func(acc, kid *evalNode, i int)) error {
	rows := tab.NumRows()
	if err := n.kids[0].eval(tab); err != nil {
		return err
	}
	n.grow(rows)
	copy(n.t, n.kids[0].t)
	copy(n.f, n.kids[0].f)
	for _, kid := range n.kids[1:] {
		if err := kid.eval(tab); err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			fold(n, kid, i)
		}
	}
	return nil
}
