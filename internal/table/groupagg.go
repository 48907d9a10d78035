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

	// lookup is the per-segment code→group table, reused across segments
	// (codes are segment-local).
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

// AddEncoded folds the rows of an encoded segment that words selects —
// bit r of words[r>>6] for row r — into the aggregator; nil words select
// every row. This is the pushdown kernel: it walks the selection a word
// of 64 rows at a time, dictionary group codes index an array of group
// pointers (one string lookup per distinct code per segment, not per
// row), a block's codes unpack once per word, and only selected valid
// cells cost a visit. A packed column's code range sizes each group's
// sketches once per segment (Sketch.Reserve), so the accumulators grow
// with the groups, not with the matches; Partial trims them.
func (g *GroupAggregator) AddEncoded(e *Encoded, words []uint64) error {
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
	var bc *EncodedColumn
	if g.by != "" {
		if bc = e.Column(g.by); bc == nil {
			return fmt.Errorf("%w: %q", ErrNoColumn, g.by)
		}
		if bc.typ != String {
			return fmt.Errorf("%w: %q is %v, want string", ErrTypeMismatch, g.by, bc.typ)
		}
	}
	reserve := func(accs []AggAccum) {
		for k, c := range cols {
			if c.kind == KindPacked {
				top := c.base + int64(1)<<uint(c.codes.width) - 1
				accs[k].S.Reserve(c.decInt(max(c.base, 1)), c.decInt(top))
				accs[k].S.Reserve(c.decInt(c.base), c.decInt(min(top, -1)))
			}
		}
	}
	// Slot DictLen of the code→group table stands in for invalid cells
	// (group "", matching GroupByString).
	var inv int
	switch {
	case bc == nil:
		reserve(g.totals)
	case bc.kind == KindDict:
		inv = bc.DictLen()
		if cap(g.lookup) <= inv {
			g.lookup = make([]*GroupAccum, inv+1)
		}
		g.lookup = g.lookup[:inv+1]
		clear(g.lookup)
	}

	var ptrs [64]*GroupAccum
	var codes [64]uint64
	for w := 0; w<<6 < e.rows; w++ {
		sel := ^uint64(0)
		if words != nil {
			sel = words[w]
		}
		if rest := e.rows - w<<6; rest < 64 {
			sel &= 1<<rest - 1
		}
		if sel == 0 {
			continue
		}
		g.rows += bits.OnesCount64(sel)
		if bc != nil {
			valid := bc.block(w, sel, &codes)
			for s := sel; s != 0; s &= s - 1 {
				i := bits.TrailingZeros64(s)
				var p *GroupAccum
				switch {
				case bc.kind != KindDict:
					// Raw-string group column (dictionary encoding
					// declined): a string map lookup per row.
					key := ""
					if valid>>i&1 != 0 {
						key = bc.rawS[w<<6+i]
					}
					p = g.group(key)
				default:
					code := inv
					if valid>>i&1 != 0 {
						code = int(codes[i])
					}
					if p = g.lookup[code]; p == nil {
						key := ""
						if code < inv {
							key = bc.dict[code]
						}
						p = g.group(key)
						reserve(p.Attrs)
						g.lookup[code] = p
					}
				}
				p.Rows++
				ptrs[i] = p
			}
		}
		for k, c := range cols {
			// Packed cells below 10^15 are their decimals: they add their
			// integers, and only the sketch reads them as floats.
			decimal := c.kind == KindPacked && c.base > -1e15 && c.base+int64(1)<<uint(c.codes.width)-1 < 1e15
			for valid := c.block(w, sel, &codes); valid != 0; valid &= valid - 1 {
				i := bits.TrailingZeros64(valid)
				var a *AggAccum
				if bc == nil {
					a = &g.totals[k]
				} else {
					a = &ptrs[i].Attrs[k]
				}
				if decimal {
					x := c.base + int64(codes[i])
					a.decSlot(c.scale).add(x)
					a.S.Add(c.decInt(x))
					continue
				}
				var v float64
				if c.kind == KindPacked {
					v = c.dec(codes[i])
				} else if v = c.rawF[w<<6+i]; math.IsNaN(v) || math.IsInf(v, 0) {
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

// Partial freezes the aggregator's state, its sketches trimmed to the
// octaves their values reached (see AddEncoded). The result shares the
// accumulators (no copy): discard the aggregator afterwards, or treat
// the partial as a live view.
func (g *GroupAggregator) Partial() *AggPartial {
	p := &AggPartial{Rows: g.rows, Groups: g.Groups(), Totals: g.totals}
	for _, gp := range p.Groups {
		trim(gp.Attrs)
	}
	trim(p.Totals)
	return p
}

func trim(accs []AggAccum) {
	for k := range accs {
		accs[k].S.Trim()
	}
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
