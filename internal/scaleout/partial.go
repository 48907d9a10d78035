package scaleout

import (
	"encoding/json"
	"fmt"
	"sort"

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

// Partial is one leg's response: everything the coordinator needs to
// fold the leg into a final answer, all computed under spec.Epoch.
type Partial struct {
	Epoch     uint64 `json:"epoch"`
	StoreRows int    `json:"store_rows"` // rows held by the shard range
	// Query echoes the canonical predicate the leg evaluated.
	Query string `json:"query"`
	// Agg is the store's own mergeable aggregate of the range's matches —
	// accumulator state, not derived statistics, so legs over any row
	// partition fold into what one pass over all rows would have produced.
	// Agg.Rows is the range's match count.
	Agg table.AggPartial `json:"agg"`
	// Rows is the first RowsLimit matched rows of the range, in shard
	// then arrival order — the same order a single node would emit — each
	// already encoded as the JSON object a single node would write, so the
	// coordinator slices its page out and forwards the bytes undecoded.
	Rows []json.RawMessage `json:"rows,omitempty"`
	Plan store.PlanStats   `json:"plan"`
}

// BuildPartial computes a match set's aggregates row-wise over the
// materialized table: one accumulator per attribute over all rows and,
// when by is set, the groups sorted by key with one accumulator per
// attribute each. Invalid cells group under "" like Table.GroupByString;
// invalid and non-finite cells are excluded from every accumulator
// (matching stats.Describe's reading of the corpus, and the pushdown
// kernels' semantics).
//
// No serving path calls it — replica legs answer through
// store.QueryShardsPage. It stays as the oracle the merge tests
// (partial_test.go, coordinator_test.go) and the root benchmarks'
// materialize baselines and equivalence gates (E17, E19) compare the
// pushdown against.
func BuildPartial(tab *table.Table, attrs []string, by string) ([]table.AggAccum, []*table.GroupAccum, error) {
	cols := make([][]float64, len(attrs))
	masks := make([][]bool, len(attrs))
	for k, attr := range attrs {
		vals, err := tab.Floats(attr)
		if err != nil {
			return nil, nil, err
		}
		cols[k] = vals
		masks[k], _ = tab.ValidMask(attr)
	}
	totals := make([]table.AggAccum, len(attrs))
	for k := range attrs {
		for i, v := range cols[k] {
			if masks[k][i] {
				totals[k].Observe(v)
			}
		}
	}
	if by == "" {
		return totals, nil, nil
	}
	groups, err := tab.GroupByString(by)
	if err != nil {
		return nil, nil, err
	}
	gs := make([]*table.GroupAccum, 0, len(groups))
	for val, rows := range groups {
		g := &table.GroupAccum{Key: val, Rows: len(rows), Attrs: make([]table.AggAccum, len(attrs))}
		for k := range attrs {
			for _, i := range rows {
				if masks[k][i] {
					g.Attrs[k].Observe(cols[k][i])
				}
			}
		}
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Key < gs[j].Key })
	return totals, gs, nil
}

// Merged is the coordinator-final answer assembled from the legs of one
// fan-out. Agg is what a single node's store would have returned for the
// whole query: legs fold through the accumulators the node's own shards
// fold through, and sketch bucketing is deterministic, so counts, extrema
// and rank statistics equal a single pass over all rows exactly.
type Merged struct {
	Epoch     uint64
	StoreRows int
	Agg       *store.AggResult
	Rows      []json.RawMessage
	Plan      store.PlanStats
	// Replicas is the participant count; Degraded the number of legs
	// that failed on their primary replica and were served by another.
	Replicas int
	Degraded int
}

// MergePartials folds the legs of one fan-out of spec, given in
// shard-range order, into the final answer. Every leg must carry
// spec.Epoch — partition legs are pinned by QuerySpec, so a mismatch means
// a protocol bug, not a racing refresh — and accumulators shaped like
// spec's; the per-leg plans sum field-wise (each leg planned its own
// disjoint shard range).
func MergePartials(spec QuerySpec, parts []*Partial) (*Merged, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("scaleout: merge of zero partials")
	}
	m := &Merged{Epoch: spec.Epoch, Replicas: len(parts)}
	g := table.NewGroupAggregator(spec.By, spec.Attrs)
	for _, p := range parts {
		if p.Epoch != spec.Epoch {
			return nil, fmt.Errorf("scaleout: leg answered at epoch %d, asked for %d", p.Epoch, spec.Epoch)
		}
		err := checkLeg(&p.Agg)
		if err == nil {
			err = g.AddPartial(&p.Agg)
		}
		if err != nil {
			return nil, fmt.Errorf("scaleout: malformed leg: %w", err)
		}
		m.StoreRows += p.StoreRows
		m.Plan.Add(p.Plan)
		m.Rows = append(m.Rows, p.Rows...)
	}
	m.Agg = &store.AggResult{Matched: g.Rows(), Groups: g.Groups()}
	if len(spec.Attrs) > 0 {
		m.Agg.Totals = g.Totals()
	}
	return m, nil
}

// checkLeg rejects what a healthy replica cannot have sent and AddPartial
// does not look at: a null group, or an accumulator whose sketch does not
// hold every value it counts — rank statistics merge through the sketch,
// so the merged quartiles would be silently skewed.
func checkLeg(p *table.AggPartial) error {
	check := func(accs []table.AggAccum) error {
		for k := range accs {
			if a := &accs[k]; a.S.Count() != a.R.Count {
				return fmt.Errorf("accumulator %d counts %d values, its sketch %d", k, a.R.Count, a.S.Count())
			}
		}
		return nil
	}
	for _, gp := range p.Groups {
		if gp == nil {
			return fmt.Errorf("null group")
		}
		if err := check(gp.Attrs); err != nil {
			return fmt.Errorf("group %q: %w", gp.Key, err)
		}
	}
	return check(p.Totals)
}
