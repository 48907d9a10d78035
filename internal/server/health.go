package server

import (
	"net/http"
	"time"

	"indice/internal/obs"
)

// healthResponse is the JSON shape of GET /api/health: a human-readable
// summary of the serving state and HTTP path, complementing the machine
// exposition at /metrics.
type healthResponse struct {
	// Status is "ok", or "starting" for a live server before the first
	// successful refresh publishes a state and for a replica before its
	// first sync.
	Status        string  `json:"status"`
	Mode          string  `json:"mode"` // live, leader, replica or coordinator
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Rows is the store's current row count (ahead of the published state).
	Rows      int    `json:"rows"`
	Published bool   `json:"published"`
	Epoch     uint64 `json:"epoch,omitempty"`
	// Refreshes split by pipeline, as on /api/store.
	Refreshes            uint64     `json:"refreshes,omitempty"`
	FullRefreshes        uint64     `json:"full_refreshes,omitempty"`
	IncrementalRefreshes uint64     `json:"incremental_refreshes,omitempty"`
	LastError            string     `json:"last_error,omitempty"`
	HTTP                 httpHealth `json:"http"`
}

// httpHealth summarizes the HTTP path: request volume and the latency
// quantiles of every route's histogram merged into one distribution.
type httpHealth struct {
	Requests   uint64  `json:"requests"`
	InFlight   float64 `json:"in_flight"`
	Panics     uint64  `json:"panics"`
	CacheHits  uint64  `json:"cache_hits"`
	CacheMiss  uint64  `json:"cache_misses"`
	P50Seconds float64 `json:"p50_seconds"`
	P90Seconds float64 `json:"p90_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// handleHealth serves the GET /api/health summary. It always answers
// 200: "starting" is a state to report, not a failure — probes that
// need readiness semantics should check published.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	lat := mergedRouteLatency()
	resp := healthResponse{
		Status:        "ok",
		Mode:          "live",
		UptimeSeconds: time.Since(serverStart).Seconds(),
		Published:     true,
		HTTP: httpHealth{
			Requests:   lat.Count,
			InFlight:   mHTTPInFlight.Value(),
			Panics:     mHTTPPanics.Value(),
			CacheHits:  mCacheHits.Value(),
			CacheMiss:  mCacheMisses.Value(),
			P50Seconds: lat.Quantile(0.50) * obs.Nanos,
			P90Seconds: lat.Quantile(0.90) * obs.Nanos,
			P99Seconds: lat.Quantile(0.99) * obs.Nanos,
		},
	}
	if s.coord != nil {
		resp.Mode = "coordinator"
		if err := s.coord.Ready(); err != nil {
			resp.Status = "starting"
			resp.Published = false
			resp.LastError = err.Error()
		}
		writeJSON(w, resp)
		return
	}
	resp.Rows = s.st.Rows()
	if s.replica != nil {
		// A replica runs no refreshes: it is up once it has synced, at
		// its leader's epoch.
		resp.Mode = "replica"
		if epoch, _, ok := s.replica.Head(); ok {
			resp.Epoch = epoch
		} else {
			resp.Status, resp.Published = "starting", false
		}
		resp.LastError = s.replica.Status().LastError
		writeJSON(w, resp)
		return
	}
	if s.leader != nil {
		resp.Mode = "leader"
	}
	resp.Refreshes = s.live.Refreshes()
	resp.FullRefreshes = s.live.FullRefreshes()
	resp.IncrementalRefreshes = s.live.IncrementalRefreshes()
	resp.LastError, _ = s.live.LastError()
	if pub := s.live.Current(); pub != nil {
		resp.Epoch = pub.Epoch
	} else {
		resp.Status = "starting"
		resp.Published = false
	}
	writeJSON(w, resp)
}
