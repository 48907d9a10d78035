package scaleout

import (
	"encoding/json"
	"fmt"

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

// Merged is the coordinator-final answer assembled from the legs of one
// fan-out. Agg is what a single node's store would have returned for the
// whole query: legs fold through the accumulators the node's own shards
// fold through, whose sums are exact and whose sketch bucketing is
// deterministic, so every statistic equals a single pass over all rows.
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

// MergePartials folds the legs of one fan-out of spec into the final
// answer. The aggregate does not depend on the order the legs come in;
// their rows are concatenated in it, so a caller that pages them passes
// the legs in shard-range order. Every leg must carry
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
// does not look at: a null group, or an accumulator whose sums its sketch
// does not count — the sketch holds the count every mean divides by, so
// the merged statistics would be silently wrong.
func checkLeg(p *table.AggPartial) error {
	check := func(accs []table.AggAccum) error {
		for k := range accs {
			a := &accs[k]
			if a.Count() == 0 && (len(a.Dec) > 0 || a.Raw != nil) || a.Raw != nil && (a.Raw.Sum == nil || a.Raw.Sq == nil) {
				return fmt.Errorf("accumulator %d holds sums its sketch does not count", k)
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
