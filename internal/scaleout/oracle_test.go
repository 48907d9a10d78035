package scaleout

import (
	"sort"

	"indice/internal/table"
)

// BuildPartial computes a match set's aggregates row-wise over the
// materialized table: one accumulator per attribute over all rows and,
// when by is set, the groups sorted by key with one accumulator per
// attribute each. Invalid cells group under "" like Table.GroupByString;
// invalid and non-finite cells are excluded from every accumulator
// (matching stats.Describe's reading of the corpus, and the pushdown
// kernels' semantics).
//
// It is the row-wise oracle the merge tests compare the pushdown legs
// against; no serving path folds rows this way.
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
