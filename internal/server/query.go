package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"indice/internal/geo"
	"indice/internal/parallel"
	"indice/internal/query"
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

// queryHead and queryTail are the JSON shape of /api/query on either side
// of the row page: a body is the head's fields, then "rows" on limit>0
// requests — an array on every one of them, empty when offset is past the
// last match, so a paging client can tell "past the end" from the
// stats-only shape — then the tail's. The rows are never a Go value:
// encodeAnswer appends them between the two encoded halves.
type queryHead struct {
	// Epoch is the snapshot epoch the response was computed under; every
	// field is consistent with that one snapshot.
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
}

type queryTail struct {
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
	// Cluster appears on coordinator responses: how many replicas served
	// this answer and whether any leg failed over.
	Cluster *clusterInfo `json:"cluster,omitempty"`
}

// parseQueryRequest extracts a queryRequest from either the URL (GET)
// or the JSON body (POST).
func parseQueryRequest(r *http.Request) (*queryRequest, error) {
	if r.Method == http.MethodPost {
		var req queryRequest
		if err := decodeStrict(r.Body, &req); err != nil {
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

// resolvedQuery is an /api/query request after parsing, preset
// resolution and limit checks: what a single node and a coordinator both
// start from.
type resolvedQuery struct {
	req    *queryRequest
	pred   query.Predicate
	attrs  []string
	preset *presetInfo
	// canonical is pred's canonical rendering, "" for select-all.
	canonical string
}

// resolveRequest parses and validates one /api/query request; errors
// carry their HTTP status.
func resolveRequest(r *http.Request) (*resolvedQuery, error) {
	req, err := parseQueryRequest(r)
	if err != nil {
		return nil, &statusError{badBodyStatus(err), err}
	}
	pred, attrs, preset, err := resolveQuery(req)
	if err != nil {
		return nil, &statusError{http.StatusBadRequest, err}
	}
	if req.Limit < 0 || req.Offset < 0 {
		return nil, &statusError{http.StatusBadRequest, errors.New("limit and offset must be non-negative")}
	}
	if req.Limit > maxQueryRows {
		req.Limit = maxQueryRows
	}
	q := &resolvedQuery{req: req, pred: pred, attrs: attrs, preset: preset}
	if pred != nil {
		q.canonical = pred.String()
	}
	return q, nil
}

// cacheKey canonicalizes the selection and the output options. Attrs
// render via %q (each element escaped and quoted) so a single element
// containing a comma cannot collide with a multi-element list. The preset
// name must participate even though the preset's selection is already
// folded into canonical: a preset with no default selection yields the
// same canonical predicate and attrs as the bare request, yet its
// response embeds a preset echo — without the name in the key the two
// requests would alias each other's cached responses.
func (q *resolvedQuery) cacheKey() string {
	return fmt.Sprintf("query\x00%s\x00%q\x00%q\x00%q\x00%d\x00%d",
		q.canonical, q.req.Preset, q.attrs, q.req.By, q.req.Limit, q.req.Offset)
}

// encodeAnswer renders the one body of a computed answer from what an
// executor returned — a node's own store or a coordinator's fan-out: the
// pushdown's accumulators become the statistics and groups, the request
// supplies the echo fields. plan may be nil. rows appends the contents of
// the "rows" array and must be set exactly on limit>0 requests. The body
// is encoded in its cached form; answer.write patches the literal for the
// computing request.
func (q *resolvedQuery) encodeAnswer(epoch uint64, storeRows int, res *store.AggResult, plan *store.PlanStats,
	rows func([]byte) []byte, cluster *clusterInfo) (*answer, error) {
	head := queryHead{
		Epoch:     epoch,
		StoreRows: storeRows,
		Matched:   res.Matched,
		Query:     q.canonical,
		Cached:    true,
		Plan:      plan,
		Preset:    q.preset,
		Stats:     statsFromAccums(q.attrs, res.Totals),
	}
	if q.req.By != "" {
		head.Groups = groupsFromAccums(res.Groups, q.attrs)
	}
	body, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	// Quotes inside JSON strings are escaped, so the first `"cached":true`
	// is the field itself and not a part of the query echo before it.
	const field = `"cached":true`
	a := &answer{epoch: epoch, contentType: "application/json"}
	a.cachedAt = bytes.Index(body, []byte(field)) + len(field) - len("true")
	tail, err := json.Marshal(&queryTail{Limit: q.req.Limit, Offset: q.req.Offset, Cluster: cluster})
	if err != nil {
		return nil, err
	}
	body = body[:len(body)-1] // reopen the object
	if rows != nil {
		body = append(body, `,"rows":[`...)
		body = rows(body)
		body = append(body, ']')
	}
	body = append(body, ',')
	body = append(body, tail[1:]...)
	a.body = append(body, '\n')
	return a, nil
}

// handleQuery serves the stakeholder query engine: predicate selection
// with filtered summaries, grouped statistics and row pages, computed on
// the head snapshot (see head) and cached per (epoch, canonical query).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := resolveRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	epoch, snap := s.head(w)
	if snap == nil {
		return
	}
	s.serveCached(w, r, queryLookups, epoch, q.cacheKey(), func(context.Context) (*answer, error) {
		// One planner pass: group keys stay dictionary codes, values stay
		// packed, and the only rows decoded are the page's — page is nil on
		// limit=0 requests.
		res, page, ps, err := snap.QueryShardsPage(q.pred, 0, snap.NumShards(), parallel.Auto,
			store.AggSpec{By: q.req.By, Attrs: q.attrs}, q.req.Offset, q.req.Limit)
		if err != nil {
			return nil, &statusError{queryErrStatus(err), err}
		}
		var rows func([]byte) []byte
		if page != nil {
			rows = func(dst []byte) []byte { return appendRows(dst, page) }
		}
		return q.encodeAnswer(epoch, snap.NumRows(), res, &ps, rows, nil)
	})
}

// serveCached is the one serving sequence of every cacheable route —
// /api/query on a single node and on a coordinator, the dashboards and
// the maps: look the key up under the epoch; on a miss join the key's
// flight or start it; compute and encode once; store; write. Under a
// cold cache and many clients, one flight computes and every duplicate
// request shares its bytes. The flight leader computes on a detached
// context so a departing client cannot fail everyone waiting behind it.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, m cacheCounters, epoch uint64, key string,
	compute func(ctx context.Context) (*answer, error)) {
	if a, hit := s.cache.get(epoch, key, m); hit {
		a.write(w, false)
		return
	}
	ctx := context.WithoutCancel(r.Context())
	a, shared, err := s.flights.do(r.Context(), strconv.FormatUint(epoch, 10)+"\x00"+key, func() (*answer, error) {
		a, err := compute(ctx)
		if err == nil {
			s.cache.put(key, a)
		}
		return a, err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	a.write(w, !shared)
}

// statusError carries the HTTP status a request failed with, through the
// single-flight boundary where the failure is a computation's.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }

// writeError answers with the status err carries, 500 when it has none.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *statusError
	if errors.As(err, &se) {
		code = se.code
	}
	http.Error(w, err.Error(), code)
}

// queryErrStatus maps predicate evaluation failures onto 400 for client
// mistakes (unknown attribute, type mismatch) and 500 otherwise.
func queryErrStatus(err error) int {
	if errors.Is(err, table.ErrNoColumn) || errors.Is(err, table.ErrTypeMismatch) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// statsFromAccums renders pushdown totals as attribute summaries. The
// quartiles come from the mergeable sketch (±1.6% relative, see
// stats.Sketch) — for stats-only and row-page requests alike, so one
// drill-down step reports one set of values.
func statsFromAccums(attrs []string, totals []table.AggAccum) []attrStats {
	out := make([]attrStats, 0, len(attrs))
	for k, attr := range attrs {
		a := totals[k]
		as := attrStats{Attr: attr, Count: a.Count()}
		if as.Count > 0 {
			as.Mean = a.Mean()
			as.StdDev = a.StdDev()
			as.Min = a.S.Min
			as.Max = a.S.Max
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
			if a.Count() == 0 {
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
