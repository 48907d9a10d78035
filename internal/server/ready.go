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
	// Reason explains a 503 (starting, lagging, no replicas).
	Reason    string `json:"reason,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
	LagEpochs uint64 `json:"lag_epochs,omitempty"`
}

// handleReady answers 200 once the process can serve correct data: a
// node once the first snapshot analysis is published (a frozen boot
// publishes before it listens), replicas additionally only while within
// ReadyMaxLag epochs of their leader, coordinators once at least one
// reachable replica has synced.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := readyResponse{Ready: true, Mode: "live"}
	if s.coord != nil {
		resp.Mode = "coordinator"
		if err := s.coord.Ready(); err != nil {
			resp.Ready, resp.Reason = false, err.Error()
		} else if e, err := s.coord.Epoch(); err == nil {
			resp.Epoch = e
		}
	} else {
		if s.leader != nil {
			resp.Mode = "leader"
		}
		pub := s.live.Current()
		if pub == nil {
			resp.Ready, resp.Reason = false, "no analysis published yet"
		} else {
			resp.Epoch = pub.Epoch
		}
		if s.replica != nil {
			resp.Mode = "replica"
			lag, synced := s.replica.Lag()
			resp.LagEpochs = lag
			switch {
			case !synced:
				resp.Ready, resp.Reason = false, "no sync from the leader yet"
			case lag > s.readyMaxLag:
				resp.Ready = false
				resp.Reason = "replica lagging the leader"
			}
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
