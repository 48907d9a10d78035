package scaleout

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"indice/internal/stats"
	"indice/internal/store"
	"indice/internal/table"
)

// QuerySpec is the coordinator→replica partial-query request
// (POST /api/query/partial). The predicate arrives pre-resolved in its
// canonical textual form — the coordinator folds presets in before
// fanning out — pinned to one epoch and one shard range, so every leg of
// a fan-out computes over the same frozen data and the legs partition
// the cluster's rows exactly.
type QuerySpec struct {
	Q     string   `json:"q,omitempty"`
	Attrs []string `json:"attrs,omitempty"`
	By    string   `json:"by,omitempty"`
	// Epoch is the leader epoch the replica must serve from; a replica
	// no longer holding it answers 412 and the coordinator fails over.
	Epoch uint64 `json:"epoch"`
	// ShardFrom/ShardTo bound the leg's half-open shard range.
	ShardFrom int `json:"shard_from"`
	ShardTo   int `json:"shard_to"`
	// RowsLimit asks for the first RowsLimit matched rows of the range
	// (offset+limit from the client's page — each leg returns a prefix,
	// the coordinator concatenates and slices). A replica answers 400 to
	// a prefix longer than it serves; it never returns a shorter one
	// than asked while more rows match.
	RowsLimit int `json:"rows_limit,omitempty"`
}

// AttrPartial is a mergeable per-attribute summary: the Welford
// accumulator state plus the quantile sketch, not derived statistics, so
// partials from any row partition fold into exactly the state a single
// pass would have produced (stats.Running.Merge, stats.Sketch.Merge).
type AttrPartial struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Sketch carries the bucket counts rank statistics merge through;
	// sketch bucketing is deterministic, so merged quartiles equal a
	// single node's exactly. Optional on the wire (absent from legs
	// predating it) — merge treats nil as empty.
	Sketch *stats.Sketch `json:"sketch,omitempty"`
}

// Running converts the wire form back into an accumulator.
func (a AttrPartial) Running() stats.Running {
	return stats.Running{Count: a.Count, Mean: a.Mean, M2: a.M2, Min: a.Min, Max: a.Max}
}

// PartialOf converts an accumulator into the wire form.
func PartialOf(r stats.Running) AttrPartial {
	return AttrPartial{Count: r.Count, Mean: r.Mean, M2: r.M2, Min: r.Min, Max: r.Max}
}

// GroupPartial is one ?by= group's mergeable state. Attrs carries a
// per-attribute accumulator with the attribute's own valid-cell count —
// NULL-heavy groups merge correctly because each attribute's count
// travels separately from the group's row count.
type GroupPartial struct {
	Value string                 `json:"value"`
	Count int                    `json:"count"`
	Attrs map[string]AttrPartial `json:"attrs,omitempty"`
}

// Partial is one leg's response: everything the coordinator needs to
// fold the leg into a final answer, all computed under spec.Epoch.
type Partial struct {
	Epoch     uint64 `json:"epoch"`
	StoreRows int    `json:"store_rows"` // rows held by the shard range
	Matched   int    `json:"matched"`
	// Query echoes the canonical predicate the leg evaluated.
	Query  string                 `json:"query"`
	Attrs  map[string]AttrPartial `json:"attrs,omitempty"`
	Groups []GroupPartial         `json:"groups,omitempty"`
	// Rows is the first RowsLimit matched rows of the range, in shard
	// then arrival order — the same order a single node would emit — each
	// already encoded as the JSON object a single node would write, so the
	// coordinator slices its page out and forwards the bytes undecoded.
	Rows []json.RawMessage `json:"rows,omitempty"`
	Plan store.PlanStats   `json:"plan"`
}

// BuildPartial computes the mergeable aggregates of one leg row-wise over
// a materialized match set: per-attribute Welford accumulators and
// quantile sketches and, when by is set, the same per group. Invalid
// cells group under "" like Table.GroupByString; invalid and non-finite
// cells are excluded from every accumulator (matching stats.Describe's
// reading of the corpus, and the pushdown kernels' semantics).
//
// No serving path calls it any more — replica legs answer through
// store.QueryShardsPage and PartialFromAgg. It stays as the oracle the
// merge tests (partial_test.go, coordinator_test.go) and the root
// benchmarks' materialize baselines and equivalence gates (E17, E19)
// compare the pushdown against.
func BuildPartial(tab *table.Table, attrs []string, by string) (map[string]AttrPartial, []GroupPartial, error) {
	cols := make(map[string][]float64, len(attrs))
	masks := make(map[string][]bool, len(attrs))
	for _, attr := range attrs {
		vals, err := tab.Floats(attr)
		if err != nil {
			return nil, nil, err
		}
		cols[attr] = vals
		masks[attr], _ = tab.ValidMask(attr)
	}

	var out map[string]AttrPartial
	if len(attrs) > 0 {
		out = make(map[string]AttrPartial, len(attrs))
		for _, attr := range attrs {
			var r stats.Running
			sk := &stats.Sketch{}
			vals, mask := cols[attr], masks[attr]
			for i, v := range vals {
				if mask[i] && !math.IsNaN(v) && !math.IsInf(v, 0) {
					r.Add(v)
					sk.Add(v)
				}
			}
			ap := PartialOf(r)
			ap.Sketch = sk
			out[attr] = ap
		}
	}

	if by == "" {
		return out, nil, nil
	}
	groups, err := tab.GroupByString(by)
	if err != nil {
		return nil, nil, err
	}
	gs := make([]GroupPartial, 0, len(groups))
	for val, rows := range groups {
		g := GroupPartial{Value: val, Count: len(rows)}
		for _, attr := range attrs {
			var r stats.Running
			sk := &stats.Sketch{}
			vals, mask := cols[attr], masks[attr]
			for _, i := range rows {
				if v := vals[i]; mask[i] && !math.IsNaN(v) && !math.IsInf(v, 0) {
					r.Add(v)
					sk.Add(v)
				}
			}
			if r.Count > 0 {
				if g.Attrs == nil {
					g.Attrs = make(map[string]AttrPartial, len(attrs))
				}
				ap := PartialOf(r)
				ap.Sketch = sk
				g.Attrs[attr] = ap
			}
		}
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Value < gs[j].Value })
	return out, gs, nil
}

// PartialFromAgg converts a pushdown aggregate (store.QueryShardsPage)
// into the wire partial forms — no row table was materialized for it.
// attrs must be the spec's attribute list, in order; groups come back
// sorted by value like BuildPartial's.
func PartialFromAgg(res *store.AggResult, attrs []string, by string) (map[string]AttrPartial, []GroupPartial) {
	var out map[string]AttrPartial
	if len(attrs) > 0 {
		out = make(map[string]AttrPartial, len(attrs))
		for k, attr := range attrs {
			a := res.Totals[k]
			ap := PartialOf(a.R)
			ap.Sketch = a.S
			out[attr] = ap
		}
	}
	if by == "" {
		return out, nil
	}
	gs := make([]GroupPartial, 0, len(res.Groups))
	for _, g := range res.Groups {
		gp := GroupPartial{Value: g.Key, Count: g.Rows}
		for k, attr := range attrs {
			a := g.Attrs[k]
			if a.R.Count == 0 {
				continue
			}
			if gp.Attrs == nil {
				gp.Attrs = make(map[string]AttrPartial, len(attrs))
			}
			ap := PartialOf(a.R)
			ap.Sketch = a.S
			gp.Attrs[attr] = ap
		}
		gs = append(gs, gp)
	}
	return out, gs
}

// MergedGroup is one group of a merged response.
type MergedGroup struct {
	Value string
	Count int
	Means map[string]float64
	// Sketches holds the per-attribute merged quantile sketches; present
	// for attributes whose legs carried one.
	Sketches map[string]*stats.Sketch
}

// Merged is the coordinator-final answer assembled from the legs of one
// fan-out. Attr summaries come back as accumulators: count, mean,
// standard deviation and extrema merge exactly through Welford state,
// and rank statistics (quartiles, median, p90) merge exactly through the
// quantile sketches — sketch bucketing is deterministic, so the merged
// sketch is bit-identical to a single pass over all rows.
type Merged struct {
	Epoch     uint64
	StoreRows int
	Matched   int
	Attrs     map[string]stats.Running
	// AttrSketches carries each attribute's merged quantile sketch,
	// keyed like Attrs.
	AttrSketches map[string]*stats.Sketch
	Groups       []MergedGroup
	Rows         []json.RawMessage
	Plan         store.PlanStats
	// Replicas is the participant count; Degraded the number of legs
	// that failed on their primary replica and were served by another.
	Replicas int
	Degraded int
}

// MergePartials folds the legs of one fan-out, given in shard-range
// order, into the final answer. Every leg must carry the same epoch —
// partition legs are pinned by QuerySpec, so a mismatch means a protocol
// bug, not a racing refresh — and the per-leg plans sum field-wise (each
// leg planned its own disjoint shard range).
func MergePartials(parts []*Partial) (*Merged, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("scaleout: merge of zero partials")
	}
	m := &Merged{Epoch: parts[0].Epoch, Replicas: len(parts)}
	type groupAcc struct {
		count    int
		attrs    map[string]stats.Running
		sketches map[string]*stats.Sketch
	}
	groups := make(map[string]*groupAcc)
	// mergeSketch folds a leg's (possibly nil) sketch into the map,
	// always into a fresh accumulator — never into the leg's own sketch,
	// which may be a cached partial shared with other queries.
	mergeSketch := func(dst map[string]*stats.Sketch, attr string, src *stats.Sketch) map[string]*stats.Sketch {
		if src == nil {
			return dst
		}
		if dst == nil {
			dst = make(map[string]*stats.Sketch)
		}
		sk := dst[attr]
		if sk == nil {
			sk = &stats.Sketch{}
			dst[attr] = sk
		}
		sk.Merge(src)
		return dst
	}
	for _, p := range parts {
		if p.Epoch != m.Epoch {
			return nil, fmt.Errorf("scaleout: merging partials at epochs %d and %d", m.Epoch, p.Epoch)
		}
		m.StoreRows += p.StoreRows
		m.Matched += p.Matched
		m.Plan.Shards += p.Plan.Shards
		m.Plan.PrunedShards += p.Plan.PrunedShards
		m.Plan.IndexedShards += p.Plan.IndexedShards
		m.Plan.CandidateRows += p.Plan.CandidateRows
		m.Plan.ScannedRows += p.Plan.ScannedRows
		m.Plan.MatchedRows += p.Plan.MatchedRows
		for attr, ap := range p.Attrs {
			if m.Attrs == nil {
				m.Attrs = make(map[string]stats.Running)
			}
			r := m.Attrs[attr]
			r.Merge(ap.Running())
			m.Attrs[attr] = r
			m.AttrSketches = mergeSketch(m.AttrSketches, attr, ap.Sketch)
		}
		for _, gp := range p.Groups {
			g := groups[gp.Value]
			if g == nil {
				g = &groupAcc{attrs: make(map[string]stats.Running)}
				groups[gp.Value] = g
			}
			g.count += gp.Count
			for attr, ap := range gp.Attrs {
				r := g.attrs[attr]
				r.Merge(ap.Running())
				g.attrs[attr] = r
				g.sketches = mergeSketch(g.sketches, attr, ap.Sketch)
			}
		}
		m.Rows = append(m.Rows, p.Rows...)
	}
	if len(groups) > 0 {
		m.Groups = make([]MergedGroup, 0, len(groups))
		for val, g := range groups {
			mg := MergedGroup{Value: val, Count: g.count, Sketches: g.sketches}
			for attr, r := range g.attrs {
				if r.Count > 0 {
					if mg.Means == nil {
						mg.Means = make(map[string]float64, len(g.attrs))
					}
					mg.Means[attr] = r.Mean
				}
			}
			m.Groups = append(m.Groups, mg)
		}
		sort.Slice(m.Groups, func(i, j int) bool { return m.Groups[i].Value < m.Groups[j].Value })
	}
	return m, nil
}
