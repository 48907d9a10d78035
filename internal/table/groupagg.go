package table

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"

	"indice/internal/stats"
)

// Grouped-aggregation kernels over encoded segments. The aggregation
// pushdown path feeds each segment's matched ordinals straight into these
// accumulators instead of materializing matched rows into a Table first:
// group keys stay dictionary codes (array-indexed accumulator lookup, no
// string hashing on the hot path), and value columns decode 64 rows at a
// time into a buffer whose valid rows are folded. Per-segment partials
// carry their group keys as strings only at the boundaries
// (Partial/AddPartial), so partials from segments with different
// dictionaries merge correctly.

// AggAccum is one attribute's mergeable aggregate over a set of rows:
// the exact sums of its values and of their squares (exact.go) — per
// decimal scale, and for values that count as binary doubles — and the
// quantile sketch, which also holds the count and the extremes. Every
// merge is exact, so partials fold in any order to the same answer, and
// Mean and Variance round once. Non-finite cells are treated as missing,
// matching stats.Clean's reading of the corpus.
type AggAccum struct {
	S   *stats.Sketch `json:"s"`
	Dec []DecSum      `json:"dec,omitempty"`
	Raw *RawSums      `json:"raw,omitempty"`
}

// Observe folds one finite observation into the accumulator.
func (a *AggAccum) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if a.S == nil {
		a.S = &stats.Sketch{}
	}
	a.observe(v)
}

// observe folds a finite v into an accumulator with a sketch. Zeros add
// nothing to the sums.
func (a *AggAccum) observe(v float64) {
	if v != 0 {
		if n, scale, ok := canonical(v); ok {
			a.decSlot(uint8(scale)).add(n)
		} else {
			if a.Raw == nil {
				a.Raw = &RawSums{new(big.Int), new(big.Int)}
			}
			a.Raw.add(v)
		}
	}
	a.S.Add(v)
}

// decSlot returns the sums of one decimal scale, adding them on first
// sight; the first scale's lookup inlines.
func (a *AggAccum) decSlot(scale uint8) *DecSum {
	if len(a.Dec) > 0 && a.Dec[0].Scale == scale {
		return &a.Dec[0]
	}
	return a.scaleSlot(scale)
}

func (a *AggAccum) scaleSlot(scale uint8) *DecSum {
	for i := range a.Dec {
		if a.Dec[i].Scale == scale {
			return &a.Dec[i]
		}
	}
	a.Dec = append(a.Dec, DecSum{Scale: scale})
	return &a.Dec[len(a.Dec)-1]
}

// MergeAccum folds another accumulator into a without mutating o.
func (a *AggAccum) MergeAccum(o *AggAccum) {
	for i := range o.Dec {
		a.decSlot(o.Dec[i].Scale).merge(&o.Dec[i])
	}
	if o.Raw != nil {
		if a.Raw == nil {
			a.Raw = &RawSums{new(big.Int), new(big.Int)}
		}
		a.Raw.Sum.Add(a.Raw.Sum, o.Raw.Sum)
		a.Raw.Sq.Add(a.Raw.Sq, o.Raw.Sq)
	}
	if a.S == nil {
		a.S = &stats.Sketch{}
	}
	a.S.Merge(o.S)
}

// GroupAccum is one group's aggregates: the row count (valid and invalid
// value cells alike) and one accumulator per requested attribute.
type GroupAccum struct {
	Key   string     `json:"key"`
	Rows  int        `json:"rows"`
	Attrs []AggAccum `json:"attrs"`
}

// AggPartial is a frozen grouped-aggregate state — what a segment-level
// pass produces and what merges into another aggregator. Exactly one of
// Groups (grouped) or Totals (ungrouped) is populated; both are immutable
// once built and safe to share across goroutines (AddPartial never
// mutates its argument). It is its own wire form: a replica leg ships its
// shard range's partial to the coordinator as JSON.
type AggPartial struct {
	Rows   int           `json:"rows"`
	Groups []*GroupAccum `json:"groups,omitempty"` // sorted by Key; nil when ungrouped
	Totals []AggAccum    `json:"totals,omitempty"` // parallel to the attr list; nil when grouped
}

// GroupAggregator accumulates grouped (or, with an empty group attribute,
// global) per-attribute aggregates across segments. Not safe for
// concurrent use; run one per worker and fold with AddPartial.
type GroupAggregator struct {
	by    string
	attrs []string
	rows  int

	byKey  map[string]*GroupAccum
	totals []AggAccum

	// Scratch reused across segments: per-row group destinations and the
	// per-segment code→group table (codes are segment-local).
	ptrs   []*GroupAccum
	lookup []*GroupAccum
}

// NewGroupAggregator returns an aggregator grouping rows by the
// categorical attribute by (ungrouped totals when by is empty) and
// aggregating each numeric attribute in attrs.
func NewGroupAggregator(by string, attrs []string) *GroupAggregator {
	g := &GroupAggregator{by: by, attrs: attrs}
	if by == "" {
		g.totals = newAccums(len(attrs))
	} else {
		g.byKey = make(map[string]*GroupAccum)
	}
	return g
}

func newAccums(n int) []AggAccum {
	out := make([]AggAccum, n)
	for i := range out {
		out[i].S = &stats.Sketch{}
	}
	return out
}

// group returns the accumulator of key, creating it on first sight.
func (g *GroupAggregator) group(key string) *GroupAccum {
	p := g.byKey[key]
	if p == nil {
		p = &GroupAccum{Key: key, Attrs: newAccums(len(g.attrs))}
		g.byKey[key] = p
	}
	return p
}

// AddRows counts n matched rows with no attribute work — the fast path
// for ungrouped, attribute-less match counting.
func (g *GroupAggregator) AddRows(n int) { g.rows += n }

// Rows returns the matched rows folded in so far.
func (g *GroupAggregator) Rows() int { return g.rows }

func (g *GroupAggregator) scratchPtrs(n int) []*GroupAccum {
	if cap(g.ptrs) < n {
		g.ptrs = make([]*GroupAccum, n)
	}
	return g.ptrs[:n]
}

func (g *GroupAggregator) scratchLookup(n int) []*GroupAccum {
	if cap(g.lookup) < n {
		g.lookup = make([]*GroupAccum, n)
	}
	l := g.lookup[:n]
	for i := range l {
		l[i] = nil
	}
	return l
}

// AddEncoded folds the given rows of an encoded segment into the
// aggregator; rows == nil means every row. This is the pushdown kernel:
// dictionary group codes index an array of group pointers (one string
// lookup per distinct code per segment, not per row), and values decode
// 64 rows at a time, apart from the fold of the valid ones.
func (g *GroupAggregator) AddEncoded(e *Encoded, rows []int) error {
	n := e.rows
	if rows != nil {
		n = len(rows)
	}
	cols := make([]*EncodedColumn, len(g.attrs))
	for k, attr := range g.attrs {
		c := e.Column(attr)
		if c == nil {
			return fmt.Errorf("%w: %q", ErrNoColumn, attr)
		}
		if c.typ != Float64 {
			return fmt.Errorf("%w: %q is %v, want float64", ErrTypeMismatch, attr, c.typ)
		}
		cols[k] = c
	}

	var ptrs []*GroupAccum
	if g.by != "" {
		bc := e.Column(g.by)
		if bc == nil {
			return fmt.Errorf("%w: %q", ErrNoColumn, g.by)
		}
		if bc.typ != String {
			return fmt.Errorf("%w: %q is %v, want string", ErrTypeMismatch, g.by, bc.typ)
		}
		ptrs = g.scratchPtrs(n)
		if bc.kind == KindDict {
			// Codes are group identities: resolve each distinct code to its
			// accumulator once, then every row is an array index. Slot
			// DictLen stands in for invalid cells (group "", matching
			// GroupByString).
			inv := bc.DictLen()
			lookup := g.scratchLookup(inv + 1)
			resolve := func(code int) *GroupAccum {
				p := lookup[code]
				if p == nil {
					if code == inv {
						p = g.group("")
					} else {
						p = g.group(bc.dict[code])
					}
					lookup[code] = p
				}
				return p
			}
			if rows == nil {
				for r := 0; r < n; r++ {
					code := inv
					if bc.ValidAt(r) {
						code = int(bc.codes.at(r))
					}
					p := resolve(code)
					p.Rows++
					ptrs[r] = p
				}
			} else {
				for j, r := range rows {
					code := inv
					if bc.ValidAt(r) {
						code = int(bc.codes.at(r))
					}
					p := resolve(code)
					p.Rows++
					ptrs[j] = p
				}
			}
		} else {
			// Raw-string group column (dictionary encoding declined): the
			// per-row string map lookup is unavoidable here.
			each := func(j, r int) {
				key := ""
				if bc.ValidAt(r) {
					key = bc.rawS[r]
				}
				p := g.group(key)
				p.Rows++
				ptrs[j] = p
			}
			if rows == nil {
				for r := 0; r < n; r++ {
					each(r, r)
				}
			} else {
				for j, r := range rows {
					each(j, r)
				}
			}
		}
	}
	g.rows += n

	var codes [64]uint64
	var vals [64]float64
	for k, c := range cols {
		// Packed cells below 10^15 are their decimals: they add their
		// integers, and only the sketch reads them as floats.
		decimal := c.kind == KindPacked && c.base > -1e15 && c.base+int64(1)<<uint(c.codes.width)-1 < 1e15
		// A block of 64 rows at a time: cells first, then only valid
		// rows cost a visit.
		for j0 := 0; j0 < n; j0 += 64 {
			word := c.block(rows, j0, min(j0+64, n), &codes, &vals)
			for ; word != 0; word &= word - 1 {
				i := bits.TrailingZeros64(word)
				var a *AggAccum
				if g.by == "" {
					a = &g.totals[k]
				} else {
					a = &ptrs[j0+i].Attrs[k]
				}
				if decimal {
					x := c.base + int64(codes[i])
					a.decSlot(c.scale).add(x)
					a.S.Add(c.decInt(x))
					continue
				}
				v := vals[i]
				if c.kind == KindPacked {
					v = c.dec(codes[i])
				} else if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				a.observe(v)
			}
		}
	}
	return nil
}

// AddPartial folds a frozen partial (another aggregator's Partial, or a
// cached per-segment one) into the aggregator. p is never mutated, so
// cached partials can be shared by concurrent queries.
func (g *GroupAggregator) AddPartial(p *AggPartial) error {
	g.rows += p.Rows
	if g.by == "" {
		if len(p.Totals) != len(g.attrs) {
			return fmt.Errorf("table: partial has %d attr accumulators, aggregator %d", len(p.Totals), len(g.attrs))
		}
		for k := range g.totals {
			g.totals[k].MergeAccum(&p.Totals[k])
		}
		return nil
	}
	for _, gp := range p.Groups {
		if len(gp.Attrs) != len(g.attrs) {
			return fmt.Errorf("table: partial group %q has %d attr accumulators, aggregator %d", gp.Key, len(gp.Attrs), len(g.attrs))
		}
		dst := g.group(gp.Key)
		dst.Rows += gp.Rows
		for k := range dst.Attrs {
			dst.Attrs[k].MergeAccum(&gp.Attrs[k])
		}
	}
	return nil
}

// Partial freezes the aggregator's state. The result shares the
// accumulators (no copy): discard the aggregator afterwards, or treat
// the partial as a live view.
func (g *GroupAggregator) Partial() *AggPartial {
	return &AggPartial{Rows: g.rows, Groups: g.Groups(), Totals: g.totals}
}

// Groups returns the accumulated groups sorted by key (nil when
// ungrouped or empty).
func (g *GroupAggregator) Groups() []*GroupAccum {
	if len(g.byKey) == 0 {
		return nil
	}
	out := make([]*GroupAccum, 0, len(g.byKey))
	for _, p := range g.byKey {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Totals returns one accumulator per attribute over every matched row:
// the direct accumulators when ungrouped, otherwise the fold of all
// groups in key order (deterministic regardless of insertion order).
func (g *GroupAggregator) Totals() []AggAccum {
	if g.by == "" {
		return g.totals
	}
	out := newAccums(len(g.attrs))
	for _, gp := range g.Groups() {
		for k := range out {
			out[k].MergeAccum(&gp.Attrs[k])
		}
	}
	return out
}
