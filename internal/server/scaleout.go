package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/scaleout"
	"indice/internal/store"
)

// maxLegRows caps the row prefix one scatter-gather leg returns, and with
// it how deep a coordinator can page: every leg must return its first
// offset+limit matches (the coordinator cannot know a leg's share of the
// page before the legs answer), so past this depth the coordinator refuses
// rather than decode and ship ever longer prefixes from every replica.
const maxLegRows = 2 * maxQueryRows

// handleReplicateInfo serves the layout a booting replica must mirror.
func (s *Server) handleReplicateInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.leader.Info())
}

// handleReplicateStatus serves this replica's position for the
// coordinator's router and for operators.
func (s *Server) handleReplicateStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.replica.Status())
}

// handlePartialQuery serves one scatter-gather leg: the query evaluated
// over one shard range of one pinned leader epoch, answering mergeable
// Welford partials instead of final statistics. 412 when the requested
// epoch is no longer (or not yet) held in the snapshot ring — the
// coordinator's signal to fail the leg over.
func (s *Server) handlePartialQuery(w http.ResponseWriter, r *http.Request) {
	var spec scaleout.QuerySpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad JSON body: "+err.Error(), badBodyStatus(err))
		return
	}
	snap, ok := s.replica.SnapshotAt(spec.Epoch)
	if !ok {
		http.Error(w, fmt.Sprintf("epoch %d not held by this replica", spec.Epoch), http.StatusPreconditionFailed)
		return
	}
	if spec.ShardFrom < 0 || spec.ShardTo > snap.NumShards() || spec.ShardFrom >= spec.ShardTo {
		http.Error(w, fmt.Sprintf("bad shard range [%d,%d) of %d", spec.ShardFrom, spec.ShardTo, snap.NumShards()), http.StatusBadRequest)
		return
	}
	var pred query.Predicate
	if spec.Q != "" {
		var err error
		if pred, err = query.Parse(spec.Q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if spec.RowsLimit < 0 || spec.RowsLimit > maxLegRows {
		http.Error(w, fmt.Sprintf("rows_limit %d outside [0, %d]", spec.RowsLimit, maxLegRows), http.StatusBadRequest)
		return
	}
	// One store call for both leg shapes: statistics from the pushdown,
	// plus — on a rows leg — the leg's first RowsLimit matches, the only
	// rows the replica decodes.
	res, page, ps, err := snap.QueryShardsPage(pred, spec.ShardFrom, spec.ShardTo, parallel.Auto,
		store.AggSpec{By: spec.By, Attrs: spec.Attrs}, 0, spec.RowsLimit)
	if err != nil {
		http.Error(w, err.Error(), queryErrStatus(err))
		return
	}
	attrs, groups := scaleout.PartialFromAgg(res, spec.Attrs, spec.By)
	p := &scaleout.Partial{
		Epoch:   spec.Epoch,
		Matched: res.Matched,
		Query:   spec.Q,
		Attrs:   attrs,
		Groups:  groups,
		Plan:    ps,
	}
	if page != nil {
		p.Rows = rowPage(page, 0, page.NumRows())
	}
	for i := spec.ShardFrom; i < spec.ShardTo; i++ {
		p.StoreRows += snap.ShardRows(i)
	}
	writeJSON(w, p)
}

// clusterInfo is the scatter-gather block of a coordinator query
// response.
type clusterInfo struct {
	// Replicas is how many replicas served this response; Degraded how
	// many shard-range legs had to fail over from their primary.
	Replicas int `json:"replicas"`
	Degraded int `json:"degraded,omitempty"`
}

// handleCoordQuery serves /api/query on a coordinator: resolve the
// request exactly like a single node, fan the canonical predicate out
// over the replicas at the max common epoch, and merge the partials into
// the single-node response shape. Merged responses carry the full
// attribute summary: count/mean/stddev/min/max from Welford state, and
// quartiles from the merged quantile sketches — sketch merges are exact,
// so a coordinator reports the same quartiles a single node would.
func (s *Server) handleCoordQuery(w http.ResponseWriter, r *http.Request) {
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
	if req.Limit > 0 && req.Offset+req.Limit > maxLegRows {
		http.Error(w, fmt.Sprintf("offset+limit %d exceeds the coordinator's paging depth of %d rows",
			req.Offset+req.Limit, maxLegRows), http.StatusBadRequest)
		return
	}
	canonical := ""
	if pred != nil {
		canonical = pred.String()
	}

	// The cache partitions by the epoch the next query would pin to; a
	// concurrent epoch change between the probe and the fan-out just
	// misses.
	cacheEpoch, cacheErr := s.coord.Epoch()
	var key string
	var keyOK bool
	if cacheErr == nil {
		if key, keyOK = s.cacheKey(cacheEpoch, canonical, attrs, req); keyOK {
			if resp, hit := s.cache.get(cacheEpoch, key); hit {
				cached := *resp
				cached.Cached = true
				writeJSON(w, &cached)
				return
			}
		}
	}

	compute := func(ctx context.Context) (*queryResponse, error) {
		spec := scaleout.QuerySpec{Q: canonical, Attrs: attrs, By: req.By}
		if req.Limit > 0 {
			spec.RowsLimit = req.Offset + req.Limit
		}
		m, err := s.coord.Query(ctx, spec)
		if err != nil {
			return nil, err
		}
		resp := &queryResponse{
			Epoch:     m.Epoch,
			StoreRows: m.StoreRows,
			Matched:   m.Matched,
			Query:     canonical,
			Plan:      &m.Plan,
			Preset:    preset,
			Limit:     req.Limit,
			Offset:    req.Offset,
			Cluster:   &clusterInfo{Replicas: m.Replicas, Degraded: m.Degraded},
		}
		resp.Stats = make([]attrStats, 0, len(attrs))
		for _, attr := range attrs {
			rs := m.Attrs[attr]
			as := attrStats{
				Attr: attr, Count: rs.Count, Mean: rs.Mean, StdDev: rs.StdDev(),
				Min: rs.Min, Max: rs.Max,
			}
			if sk := m.AttrSketches[attr]; sk.Count() > 0 {
				as.Q1 = sk.Quantile(0.25)
				as.Median = sk.Quantile(0.5)
				as.Q3 = sk.Quantile(0.75)
			}
			resp.Stats = append(resp.Stats, as)
		}
		if req.By != "" {
			resp.Groups = make([]groupStats, 0, len(m.Groups))
			for _, g := range m.Groups {
				gs := groupStats{Value: g.Value, Count: g.Count, Means: g.Means}
				for attr, sk := range g.Sketches {
					if sk.Count() == 0 {
						continue
					}
					if gs.Quartiles == nil {
						gs.Quartiles = make(map[string]groupQuartiles, len(g.Sketches))
					}
					gs.Quartiles[attr] = groupQuartiles{
						Q1:     sk.Quantile(0.25),
						Median: sk.Quantile(0.5),
						Q3:     sk.Quantile(0.75),
						P90:    sk.Quantile(0.9),
					}
				}
				resp.Groups = append(resp.Groups, gs)
			}
		}
		if req.Limit > 0 {
			// Every leg returned its first offset+limit matches, so rows
			// [offset, offset+limit) of the concatenation are the single
			// node's page.
			page := []map[string]any{}
			if req.Offset < len(m.Rows) {
				page = m.Rows[req.Offset:min(req.Offset+req.Limit, len(m.Rows))]
			}
			resp.Rows = &page
		}
		if key, ok := s.cacheKey(m.Epoch, canonical, attrs, req); ok {
			s.cache.put(m.Epoch, key, resp)
		}
		return resp, nil
	}

	// Cache miss: coalesce concurrent identical fan-outs into one
	// flight per cache key. The flight leader computes on a detached
	// context (bounded by the coordinator's own per-leg timeouts) so a
	// departing waiter cannot fail everyone behind it.
	var resp *queryResponse
	var shared bool
	var err2 error
	if keyOK {
		base := context.WithoutCancel(r.Context())
		resp, shared, err2 = s.flights.do(r.Context(), key, func() (*queryResponse, error) {
			return compute(base)
		})
	} else {
		resp, err2 = compute(r.Context())
	}
	if err2 != nil {
		var ce *scaleout.ClientError
		switch {
		case errors.As(err2, &ce):
			http.Error(w, ce.Msg, http.StatusBadRequest)
		case errors.Is(err2, scaleout.ErrNoCommonEpoch):
			http.Error(w, err2.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err2.Error(), http.StatusBadGateway)
		}
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

// handleReplicas reports the coordinator's cached view of its replicas.
func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.coord.Views())
}
