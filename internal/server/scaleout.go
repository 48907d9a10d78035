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
	"indice/internal/table"
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
// over one shard range of one pinned leader epoch, answering the store's
// mergeable accumulators instead of final statistics. 412 when the requested
// epoch is no longer (or not yet) held in the snapshot ring — the
// coordinator's signal to fail the leg over.
func (s *Server) handlePartialQuery(w http.ResponseWriter, r *http.Request) {
	var spec scaleout.QuerySpec
	if err := decodeStrict(r.Body, &spec); err != nil {
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
	p := &scaleout.Partial{
		Epoch: spec.Epoch,
		Query: spec.Q,
		Agg:   table.AggPartial{Rows: res.Matched, Groups: res.Groups},
		Plan:  ps,
	}
	if spec.By == "" {
		// A grouped result's totals are the fold of its groups, which the
		// coordinator redoes over the merged groups.
		p.Agg.Totals = res.Totals
	}
	if page != nil {
		p.Rows = encodeRows(page)
	}
	for i := spec.ShardFrom; i < spec.ShardTo; i++ {
		p.StoreRows += snap.ShardRows(i)
	}
	// Compact, unlike the operator-facing endpoints: the coordinator
	// forwards the row bytes as they are.
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
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
// over the replicas at the max common epoch, and render the merged
// accumulators exactly like a single node's. Accumulator and sketch merges
// are exact, so a coordinator reports the counts, extrema and quartiles a
// single node would.
func (s *Server) handleCoordQuery(w http.ResponseWriter, r *http.Request) {
	q, err := resolveRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	req := q.req
	if req.Limit > 0 && req.Offset+req.Limit > maxLegRows {
		http.Error(w, fmt.Sprintf("offset+limit %d exceeds the coordinator's paging depth of %d rows",
			req.Offset+req.Limit, maxLegRows), http.StatusBadRequest)
		return
	}
	// The cache partitions by the epoch the next query would pin to; a
	// concurrent epoch change between the probe and the fan-out just
	// stores the answer under the epoch it was computed at.
	epoch, err := s.coord.Epoch()
	if err != nil {
		writeError(w, coordError(err))
		return
	}
	s.serveCached(w, r, queryLookups, epoch, q.cacheKey(), func(ctx context.Context) (*answer, error) {
		spec := scaleout.QuerySpec{Q: q.canonical, Attrs: q.attrs, By: req.By}
		if req.Limit > 0 {
			spec.RowsLimit = req.Offset + req.Limit
		}
		m, err := s.coord.Query(ctx, spec)
		if err != nil {
			return nil, coordError(err)
		}
		var rows func([]byte) []byte
		if req.Limit > 0 {
			// Every leg returned its first offset+limit matches, already
			// encoded, so rows [offset, offset+limit) of the concatenation
			// are the single node's page, byte for byte.
			var page []json.RawMessage
			if req.Offset < len(m.Rows) {
				page = m.Rows[req.Offset:min(req.Offset+req.Limit, len(m.Rows))]
			}
			rows = func(dst []byte) []byte {
				for i, row := range page {
					if i > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, row...)
				}
				return dst
			}
		}
		return q.encodeAnswer(m.Epoch, m.StoreRows, m.Agg, &m.Plan, rows, &clusterInfo{Replicas: m.Replicas, Degraded: m.Degraded})
	})
}

// coordError gives a fan-out failure its HTTP status: 400 for the
// client's own mistakes a replica reported, 503 while no common epoch is
// served, 502 for everything else the replicas did.
func coordError(err error) error {
	var ce *scaleout.ClientError
	switch {
	case errors.As(err, &ce):
		return &statusError{http.StatusBadRequest, errors.New(ce.Msg)}
	case errors.Is(err, scaleout.ErrNoCommonEpoch):
		return &statusError{http.StatusServiceUnavailable, err}
	default:
		return &statusError{http.StatusBadGateway, err}
	}
}

// handleReplicas reports the coordinator's cached view of its replicas.
func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.coord.Views())
}
