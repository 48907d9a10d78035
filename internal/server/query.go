package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"indice/internal/geo"
	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/stats"
	"indice/internal/store"
	"indice/internal/table"
)

// maxQueryRows caps one /api/query row page; larger requests are
// clamped, with Limit in the response reporting the effective value.
const maxQueryRows = 1000

// queryRequest is the POST /api/query body. GET carries the same fields
// as URL parameters (q, preset, attrs, by, limit, offset), minus the
// JSON predicate form.
type queryRequest struct {
	// Q is the textual DSL form; Predicate the JSON encoding. At most
	// one may be set; the selection combines (AND) with the preset's.
	Q         string          `json:"q,omitempty"`
	Predicate json.RawMessage `json:"predicate,omitempty"`
	// Preset names a stakeholder whose default selection and attribute
	// set seed the query.
	Preset string `json:"preset,omitempty"`
	// Attrs are the numeric attributes to summarize; default: the
	// preset's attribute set, or none.
	Attrs []string `json:"attrs,omitempty"`
	// By groups matched rows by a categorical attribute.
	By string `json:"by,omitempty"`
	// Limit/Offset page matched rows into the response; Limit 0 returns
	// summaries only.
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
}

// attrStats is one attribute summary of a query response.
type attrStats struct {
	Attr   string  `json:"attr"`
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// groupStats is one ?by= group of a query response.
type groupStats struct {
	Value string `json:"value"`
	Count int    `json:"count"`
	// Means holds the per-attribute mean over the group's valid cells;
	// attributes with no valid cell in the group are omitted.
	Means map[string]float64 `json:"means,omitempty"`
	// Quartiles holds per-attribute quantile summaries (sketch-derived,
	// within ±1.6% relative error; see stats.Sketch). They merge exactly
	// across replicas, so coordinator responses report the same values a
	// single node would.
	Quartiles map[string]groupQuartiles `json:"quartiles,omitempty"`
}

// groupQuartiles is one attribute's quantile summary within a group.
type groupQuartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90"`
}

// presetInfo echoes the stakeholder preset applied to a query.
type presetInfo struct {
	Stakeholder query.Stakeholder  `json:"stakeholder"`
	Attributes  []string           `json:"attributes"`
	Response    string             `json:"response"`
	Level       geo.Level          `json:"level"`
	Reports     []query.ReportKind `json:"reports"`
	Selection   string             `json:"selection,omitempty"`
}

// queryResponse is the JSON shape of /api/query.
type queryResponse struct {
	// Epoch is the snapshot epoch the response was computed under (0 in
	// static mode); every field is consistent with that one snapshot.
	Epoch     uint64 `json:"epoch"`
	StoreRows int    `json:"store_rows"`
	Matched   int    `json:"matched"`
	// Query is the canonical rendering of the effective predicate
	// (empty = select all); it re-parses to an equivalent predicate.
	Query  string           `json:"query"`
	Cached bool             `json:"cached"`
	Plan   *store.PlanStats `json:"plan,omitempty"`
	Preset *presetInfo      `json:"preset,omitempty"`
	Stats  []attrStats      `json:"stats,omitempty"`
	Groups []groupStats     `json:"groups,omitempty"`
	// Rows is the requested page: absent on limit=0 (stats-only) responses,
	// an array on every limit>0 one — empty when offset is past the last
	// match. A pointer, because omitempty would drop an empty slice and a
	// paging client could not tell "past the end" from "stats-only".
	Rows   *[]map[string]any `json:"rows,omitempty"`
	Limit  int               `json:"limit"`
	Offset int               `json:"offset"`
	// Cluster appears on coordinator responses: how many replicas served
	// this answer and whether any leg failed over.
	Cluster *clusterInfo `json:"cluster,omitempty"`
}

// parseQueryRequest extracts a queryRequest from either the URL (GET)
// or the JSON body (POST).
func parseQueryRequest(r *http.Request) (*queryRequest, error) {
	if r.Method == http.MethodPost {
		var req queryRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("bad JSON body: %w", err)
		}
		return &req, nil
	}
	q := r.URL.Query()
	req := &queryRequest{
		Q:      q.Get("q"),
		Preset: q.Get("preset"),
		By:     q.Get("by"),
	}
	if raw := q.Get("attrs"); raw != "" {
		for _, a := range strings.Split(raw, ",") {
			if a = strings.TrimSpace(a); a != "" {
				req.Attrs = append(req.Attrs, a)
			}
		}
	}
	var err error
	if req.Limit, err = intParam(q.Get("limit")); err != nil {
		return nil, fmt.Errorf("bad limit: %w", err)
	}
	if req.Offset, err = intParam(q.Get("offset")); err != nil {
		return nil, fmt.Errorf("bad offset: %w", err)
	}
	return req, nil
}

func intParam(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	return strconv.Atoi(raw)
}

// resolveQuery turns a request into the effective predicate, attribute
// list and preset echo. The preset's default selection ANDs with the
// request's own predicate; explicit attrs override the preset's.
func resolveQuery(req *queryRequest) (query.Predicate, []string, *presetInfo, error) {
	if req.Q != "" && len(req.Predicate) > 0 {
		return nil, nil, nil, errors.New("set either q or predicate, not both")
	}
	var pred query.Predicate
	var err error
	switch {
	case req.Q != "":
		if pred, err = query.Parse(req.Q); err != nil {
			return nil, nil, nil, err
		}
	case len(req.Predicate) > 0:
		if pred, err = query.UnmarshalPredicate(req.Predicate); err != nil {
			return nil, nil, nil, err
		}
	}
	attrs := req.Attrs
	var preset *presetInfo
	if req.Preset != "" {
		st, err := query.ParseStakeholder(req.Preset)
		if err != nil {
			return nil, nil, nil, err
		}
		prop, err := query.ProposalFor(st)
		if err != nil {
			return nil, nil, nil, err
		}
		preset = &presetInfo{
			Stakeholder: prop.Stakeholder,
			Attributes:  prop.Attributes,
			Response:    prop.Response,
			Level:       prop.Level,
			Reports:     prop.Reports,
		}
		if prop.Selection != nil {
			preset.Selection = prop.Selection.String()
			if pred != nil {
				pred = query.And{prop.Selection, pred}
			} else {
				pred = prop.Selection
			}
		}
		if len(attrs) == 0 {
			attrs = prop.Attributes
		}
	}
	return pred, attrs, preset, nil
}

// handleQuery serves the stakeholder query engine: predicate selection
// with filtered summaries, grouped statistics and row pages, computed
// on the published snapshot (live mode, planner pushdown) or the frozen
// engine table (static mode) and cached per (epoch, canonical query).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := parseQueryRequest(r)
	if err != nil {
		http.Error(w, err.Error(), badBodyStatus(err))
		return
	}
	pred, attrs, preset, err := resolveQuery(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Limit < 0 || req.Offset < 0 {
		http.Error(w, "limit and offset must be non-negative", http.StatusBadRequest)
		return
	}
	if req.Limit > maxQueryRows {
		req.Limit = maxQueryRows
	}

	canonical := ""
	if pred != nil {
		canonical = pred.String()
	}

	// finish assembles, caches and returns the static-mode response from
	// the materialized match set; errors carry their HTTP status for the
	// writer below.
	finish := func(storeRows int, matched *table.Table) (*queryResponse, error) {
		resp := &queryResponse{
			StoreRows: storeRows,
			Matched:   matched.NumRows(),
			Query:     canonical,
			Preset:    preset,
			Limit:     req.Limit,
			Offset:    req.Offset,
		}
		var err error
		if resp.Stats, err = summarize(matched, attrs); err != nil {
			return nil, &statusError{http.StatusBadRequest, err}
		}
		if req.By != "" {
			if resp.Groups, err = groupBy(matched, req.By, attrs); err != nil {
				return nil, &statusError{http.StatusBadRequest, err}
			}
		}
		if req.Limit > 0 {
			rows := rowPage(matched, req.Offset, req.Limit)
			resp.Rows = &rows
		}
		if key, ok := s.cacheKey(0, canonical, attrs, req); ok {
			s.cache.put(0, key, resp)
		}
		return resp, nil
	}

	// finishAgg is finish's live-mode counterpart: statistics and groups
	// come straight from the pushdown's mergeable accumulators, and page —
	// nil on limit=0 requests — holds exactly the requested rows, the only
	// ones the store decoded.
	finishAgg := func(epoch uint64, storeRows int, res *store.AggResult, page *table.Table, plan *store.PlanStats) (*queryResponse, error) {
		resp := &queryResponse{
			Epoch:     epoch,
			StoreRows: storeRows,
			Matched:   res.Matched,
			Query:     canonical,
			Plan:      plan,
			Preset:    preset,
			Limit:     req.Limit,
			Offset:    req.Offset,
			Stats:     statsFromAccums(attrs, res.Totals),
		}
		if req.By != "" {
			resp.Groups = groupsFromAccums(res.Groups, attrs)
		}
		if page != nil {
			rows := rowPage(page, 0, page.NumRows())
			resp.Rows = &rows
		}
		if key, ok := s.cacheKey(epoch, canonical, attrs, req); ok {
			s.cache.put(epoch, key, resp)
		}
		return resp, nil
	}

	var epoch uint64
	var compute func() (*queryResponse, error)
	if s.live != nil {
		pub := s.live.Current()
		if pub == nil || pub.Snapshot == nil {
			http.Error(w, errNotPublished.Error(), http.StatusServiceUnavailable)
			return
		}
		epoch = pub.Epoch
		compute = func() (*queryResponse, error) {
			// One planner pass: group keys stay dictionary codes, values
			// stay packed, and the only rows decoded are the page's.
			snap := pub.Snapshot
			res, page, ps, err := snap.QueryShardsPage(pred, 0, snap.NumShards(), parallel.Auto,
				store.AggSpec{By: req.By, Attrs: attrs}, req.Offset, req.Limit)
			if err != nil {
				return nil, &statusError{queryErrStatus(err), err}
			}
			return finishAgg(epoch, snap.NumRows(), res, page, &ps)
		}
	} else {
		eng, _, ok := s.serveState(w)
		if !ok {
			return
		}
		compute = func() (*queryResponse, error) {
			matched := eng.Table()
			if pred != nil {
				var err error
				if matched, err = query.Select(eng.Table(), pred); err != nil {
					return nil, &statusError{queryErrStatus(err), err}
				}
			}
			return finish(eng.Table().NumRows(), matched)
		}
	}

	var resp *queryResponse
	var shared bool
	if key, ok := s.cacheKey(epoch, canonical, attrs, req); ok {
		if resp, hit := s.cache.get(epoch, key); hit {
			cached := *resp
			cached.Cached = true
			writeJSON(w, &cached)
			return
		}
		// Cache miss: coalesce concurrent identical computations — under
		// a cold cache and many clients, one flight computes and every
		// duplicate request shares its result.
		resp, shared, err = s.flights.do(r.Context(), key, compute)
	} else {
		resp, err = compute()
	}
	if err != nil {
		code := http.StatusInternalServerError
		var se *statusError
		if errors.As(err, &se) {
			code = se.code
		}
		http.Error(w, err.Error(), code)
		return
	}
	if shared {
		coalesced := *resp
		coalesced.Cached = true
		writeJSON(w, &coalesced)
		return
	}
	writeJSON(w, resp)
}

// statusError carries the HTTP status a query computation failed with
// through the single-flight boundary.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// cacheKey canonicalizes the output options into the cache key. The
// epoch is embedded defensively even though the cache also partitions
// by it. Attrs render via %q (each element escaped and quoted) so a
// single element containing a comma cannot collide with a multi-element
// list. The preset name must participate even though the preset's
// selection is already folded into canonical: a preset with no default
// selection yields the same canonical predicate and attrs as the bare
// request, yet its response embeds a preset echo — without the name in
// the key the two requests would alias each other's cached responses.
func (s *Server) cacheKey(epoch uint64, canonical string, attrs []string, req *queryRequest) (string, bool) {
	if s.cache == nil {
		return "", false
	}
	return fmt.Sprintf("%d\x00%s\x00%q\x00%q\x00%q\x00%d\x00%d",
		epoch, canonical, req.Preset, attrs, req.By, req.Limit, req.Offset), true
}

// queryErrStatus maps predicate evaluation failures onto 400 for client
// mistakes (unknown attribute, type mismatch) and 500 otherwise.
func queryErrStatus(err error) int {
	if errors.Is(err, table.ErrNoColumn) || errors.Is(err, table.ErrTypeMismatch) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// summarize computes the distribution summary of each requested numeric
// attribute over the matched rows (static mode; live queries render the
// pushdown's accumulators through statsFromAccums).
func summarize(tab *table.Table, attrs []string) ([]attrStats, error) {
	out := make([]attrStats, 0, len(attrs))
	for _, attr := range attrs {
		vals, err := tab.ValidFloats(attr)
		if err != nil {
			return nil, err
		}
		as := attrStats{Attr: attr, Count: len(vals)}
		if d, err := stats.Describe(vals); err == nil {
			as = attrStats{
				Attr: attr, Count: d.Count, Mean: d.Mean, StdDev: d.StdDev,
				Min: d.Min, Q1: d.Q1, Median: d.Median, Q3: d.Q3, Max: d.Max,
			}
		}
		out = append(out, as)
	}
	return out, nil
}

// statsFromAccums renders pushdown totals as attribute summaries.
// Compared to static mode's summarize, Count/Mean/Min/Max are
// bitwise-identical on finite data; the quartiles come from the mergeable
// sketch (±1.6% relative) instead of an exact sort — for stats-only and
// row-page requests alike, so one drill-down step reports one set of values.
func statsFromAccums(attrs []string, totals []table.AggAccum) []attrStats {
	out := make([]attrStats, 0, len(attrs))
	for k, attr := range attrs {
		a := totals[k]
		as := attrStats{Attr: attr, Count: int(a.R.Count)}
		if a.R.Count > 0 {
			as.Mean = a.Mean()
			as.StdDev = a.R.StdDev()
			as.Min = a.R.Min
			as.Max = a.R.Max
			as.Q1 = a.S.Quantile(0.25)
			as.Median = a.S.Quantile(0.5)
			as.Q3 = a.S.Quantile(0.75)
		}
		out = append(out, as)
	}
	return out
}

// groupsFromAccums renders pushdown group accumulators (already sorted
// by key) as response groups.
func groupsFromAccums(groups []*table.GroupAccum, attrs []string) []groupStats {
	out := make([]groupStats, 0, len(groups))
	for _, g := range groups {
		gs := groupStats{Value: g.Key, Count: g.Rows}
		for k, attr := range attrs {
			a := g.Attrs[k]
			if a.R.Count == 0 {
				continue
			}
			if gs.Means == nil {
				gs.Means = make(map[string]float64, len(attrs))
				gs.Quartiles = make(map[string]groupQuartiles, len(attrs))
			}
			gs.Means[attr] = a.Mean()
			gs.Quartiles[attr] = groupQuartiles{
				Q1:     a.S.Quantile(0.25),
				Median: a.S.Quantile(0.5),
				Q3:     a.S.Quantile(0.75),
				P90:    a.S.Quantile(0.9),
			}
		}
		out = append(out, gs)
	}
	return out
}

// groupBy aggregates the matched rows by a categorical attribute:
// per-value row count plus the mean and quantile summary of each
// summarized attribute. Invalid cells group under "" like
// Table.GroupByString. Groups are sorted by value for deterministic
// output. Static mode only: the frozen engine table is already
// materialized; every live query takes the pushdown path instead.
func groupBy(tab *table.Table, by string, attrs []string) ([]groupStats, error) {
	groups, err := tab.GroupByString(by)
	if err != nil {
		return nil, err
	}
	cols := make(map[string][]float64, len(attrs))
	masks := make(map[string][]bool, len(attrs))
	for _, attr := range attrs {
		vals, err := tab.Floats(attr)
		if err != nil {
			return nil, err
		}
		cols[attr] = vals
		masks[attr], _ = tab.ValidMask(attr)
	}
	out := make([]groupStats, 0, len(groups))
	for val, rows := range groups {
		g := groupStats{Value: val, Count: len(rows)}
		for _, attr := range attrs {
			sum, n := 0.0, 0
			sk := &stats.Sketch{}
			vals, mask := cols[attr], masks[attr]
			for _, r := range rows {
				if mask[r] {
					sum += vals[r]
					n++
					if v := vals[r]; !math.IsNaN(v) && !math.IsInf(v, 0) {
						sk.Add(v)
					}
				}
			}
			if n > 0 {
				if g.Means == nil {
					g.Means = make(map[string]float64, len(attrs))
				}
				g.Means[attr] = sum / float64(n)
			}
			if sk.Count() > 0 {
				if g.Quartiles == nil {
					g.Quartiles = make(map[string]groupQuartiles, len(attrs))
				}
				g.Quartiles[attr] = groupQuartiles{
					Q1:     sk.Quantile(0.25),
					Median: sk.Quantile(0.5),
					Q3:     sk.Quantile(0.75),
					P90:    sk.Quantile(0.9),
				}
			}
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out, nil
}

// rowPage renders rows [offset, offset+limit) of tab as attribute/value
// objects; invalid cells render as null. The result is never nil.
func rowPage(tab *table.Table, offset, limit int) []map[string]any {
	n := tab.NumRows()
	if offset >= n {
		return []map[string]any{}
	}
	end := offset + limit
	if end > n {
		end = n
	}
	schema := tab.Schema()
	type column struct {
		field  table.Field
		valid  []bool
		floats []float64
		strs   []string
	}
	cols := make([]column, len(schema))
	for i, f := range schema {
		cols[i].field = f
		cols[i].valid, _ = tab.ValidMask(f.Name)
		if f.Type == table.Float64 {
			cols[i].floats, _ = tab.Floats(f.Name)
		} else {
			cols[i].strs, _ = tab.Strings(f.Name)
		}
	}
	rows := make([]map[string]any, 0, end-offset)
	for r := offset; r < end; r++ {
		row := make(map[string]any, len(schema))
		for _, c := range cols {
			switch {
			case !c.valid[r]:
				row[c.field.Name] = nil
			case c.field.Type == table.Float64:
				if v := c.floats[r]; math.IsNaN(v) || math.IsInf(v, 0) {
					row[c.field.Name] = nil
				} else {
					row[c.field.Name] = v
				}
			default:
				row[c.field.Name] = c.strs[r]
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// handlePresets lists the stakeholder query presets: default selection,
// attribute set, granularity and proposed reports per profile.
func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	out := make([]presetInfo, 0, 3)
	for _, st := range query.Stakeholders() {
		prop, err := query.ProposalFor(st)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		info := presetInfo{
			Stakeholder: prop.Stakeholder,
			Attributes:  prop.Attributes,
			Response:    prop.Response,
			Level:       prop.Level,
			Reports:     prop.Reports,
		}
		if prop.Selection != nil {
			info.Selection = prop.Selection.String()
		}
		out = append(out, info)
	}
	writeJSON(w, out)
}
