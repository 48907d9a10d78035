package server

import (
	"encoding/json"
	"net/http"
)

// writeJSONBody encodes after the status line is already written (the
// writeJSON helper would implicitly answer 200).
func writeJSONBody(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// readyResponse is the JSON shape of GET /api/ready. Unlike the
// always-200 /api/health (a report), readiness is a gate: load
// balancers and the coordinator route traffic away from a 503.
type readyResponse struct {
	Ready bool   `json:"ready"`
	Mode  string `json:"mode"`
	// Reason explains a 503 (starting, not synced, no replicas).
	Reason string `json:"reason,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// handleReady answers 200 once the process can serve correct data: a
// node once the first snapshot analysis is published (a frozen boot
// publishes before it listens), a replica once its first sync has
// applied, a coordinator once at least one reachable replica has synced.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := readyResponse{Ready: true, Mode: "live"}
	switch {
	case s.coord != nil:
		resp.Mode = "coordinator"
		if err := s.coord.Ready(); err != nil {
			resp.Ready, resp.Reason = false, err.Error()
		} else if e, err := s.coord.Epoch(); err == nil {
			resp.Epoch = e
		}
	case s.replica != nil:
		resp.Mode = "replica"
		if epoch, _, ok := s.replica.Head(); ok {
			resp.Epoch = epoch
		} else {
			resp.Ready, resp.Reason = false, notSynced
		}
	default:
		if s.leader != nil {
			resp.Mode = "leader"
		}
		if pub := s.live.Current(); pub != nil {
			resp.Epoch = pub.Epoch
		} else {
			resp.Ready, resp.Reason = false, "no analysis published yet"
		}
	}
	if !resp.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, &resp)
		return
	}
	writeJSON(w, resp)
}
