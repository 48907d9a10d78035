package outlier

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"indice/internal/parallel"
	"indice/internal/table"
)

// ZoneResult reports the univariate screen of one geographic partition.
type ZoneResult struct {
	// Zone is the partition's value of the grouping attribute.
	Zone string
	// Size is the number of table rows in the partition.
	Size int
	// Results holds one detection result per screened attribute; row
	// indices are global table rows.
	Results []*Result
	// Rows is the union of flagged rows in this zone, ascending global
	// table indices.
	Rows []int
}

// DetectByZone partitions the table by the categorical zoneAttr (district,
// neighbourhood, ZIP — any administrative label) and runs the configured
// univariate screen independently inside each partition, fanning the
// zones out across cfg.Parallelism workers. Per-zone fences adapt to the
// local distribution, catching certificates that look unremarkable
// city-wide but are extreme for their own area — and sparing values that
// are normal locally yet extreme against the global spread. Rows with a
// missing zone label are skipped. Zones are reported in lexicographic
// order; the flat return is the union of flagged rows across zones,
// ascending. Results are identical at any parallelism.
func DetectByZone(t *table.Table, zoneAttr string, attrs []string, cfg Config) ([]*ZoneResult, []int, error) {
	if len(attrs) == 0 {
		return nil, nil, errors.New("outlier: no attributes given")
	}
	zones, err := t.Strings(zoneAttr)
	if err != nil {
		return nil, nil, fmt.Errorf("outlier: zone attribute: %w", err)
	}
	zoneValid, _ := t.ValidMask(zoneAttr)

	// Group global row indices by zone label, zones sorted for a
	// deterministic report order.
	groups := make(map[string][]int)
	for i, z := range zones {
		if !zoneValid[i] || z == "" {
			continue
		}
		groups[z] = append(groups[z], i)
	}
	if len(groups) == 0 {
		return nil, nil, fmt.Errorf("outlier: attribute %q labels no row", zoneAttr)
	}
	names := make([]string, 0, len(groups))
	for z := range groups {
		names = append(names, z)
	}
	sort.Strings(names)

	// Fetch each screened column once; the zone workers share the
	// read-only slices.
	vals := make([][]float64, len(attrs))
	masks := make([][]bool, len(attrs))
	for j, a := range attrs {
		v, err := t.Floats(a)
		if err != nil {
			return nil, nil, fmt.Errorf("outlier: %w", err)
		}
		vals[j] = v
		masks[j], _ = t.ValidMask(a)
	}

	results, err := parallel.MapErr(len(names), cfg.Parallelism, func(zi int) (*ZoneResult, error) {
		rows := groups[names[zi]]
		zr := &ZoneResult{Zone: names[zi], Size: len(rows)}
		union := make(map[int]struct{})
		for j, a := range attrs {
			global := make([]int, 0, len(rows))
			xs := make([]float64, 0, len(rows))
			for _, r := range rows {
				if masks[j][r] {
					global = append(global, r)
					xs = append(xs, vals[j][r])
				}
			}
			res := &Result{Attr: a, Method: cfg.Method, Checked: len(xs)}
			if len(xs) > 0 {
				local, err := detectValues(a, xs, cfg)
				if err != nil {
					return nil, fmt.Errorf("outlier: zone %q: %w", names[zi], err)
				}
				for _, li := range local {
					res.Rows = append(res.Rows, global[li])
				}
			}
			zr.Results = append(zr.Results, res)
			for _, r := range res.Rows {
				union[r] = struct{}{}
			}
		}
		zr.Rows = make([]int, 0, len(union))
		for r := range union {
			zr.Rows = append(zr.Rows, r)
		}
		slices.Sort(zr.Rows)
		return zr, nil
	})
	if err != nil {
		return nil, nil, err
	}

	union := make(map[int]struct{})
	for _, zr := range results {
		for _, r := range zr.Rows {
			union[r] = struct{}{}
		}
	}
	flat := make([]int, 0, len(union))
	for r := range union {
		flat = append(flat, r)
	}
	slices.Sort(flat)
	return results, flat, nil
}
