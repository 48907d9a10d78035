package core

import "indice/internal/obs"

// Refresh-loop metric handles, resolved once at init (see
// internal/store/metrics.go for the conventions). Stage-level timings
// additionally flow through obs spans into indice_stage_seconds{stage=...}
// with slow-op logging above the registry threshold.
var (
	mRefreshFull        = obs.Default.Counter("indice_refresh_total", "Successful refreshes by pipeline mode.", "mode", "full")
	mRefreshInc         = obs.Default.Counter("indice_refresh_total", "Successful refreshes by pipeline mode.", "mode", "incremental")
	mRefreshErrors      = obs.Default.Counter("indice_refresh_errors_total", "Refresh attempts that failed (the previous publication keeps serving).")
	mRefreshFullSecs    = obs.Default.Histogram("indice_refresh_seconds", "End-to-end refresh latency by pipeline mode.", "mode", "full")
	mRefreshIncSecs     = obs.Default.Histogram("indice_refresh_seconds", "End-to-end refresh latency by pipeline mode.", "mode", "incremental")
	mRefreshDrift       = obs.Default.Gauge("indice_refresh_drift", "Last measured distribution drift versus the full-sweep baseline.")
	mRefreshDeltaRows   = obs.Default.Gauge("indice_refresh_delta_rows", "Newly materialized rows of the last incremental refresh.")
	mLineageBytes       = obs.Default.Gauge("indice_refresh_lineage_bytes", "Estimated bytes the incremental lineage holds beside the serving table (screened columns of every pre-drop row, dropped rows), as of the last publication.")
	mPublishedBytes     = obs.Default.Gauge("indice_published_table_bytes", "Estimated bytes of the published serving table.")
	mWarmIterations     = obs.Default.Gauge("indice_refresh_warmstart_iterations", "K-means iterations of the last warm-started incremental run.")
	mFallbackIneligible = obs.Default.Counter("indice_refresh_fallbacks_total", "Incremental fast-path fallbacks to a full refresh, by reason.", "reason", "ineligible")
	mFallbackFullEvery  = obs.Default.Counter("indice_refresh_fallbacks_total", "Incremental fast-path fallbacks to a full refresh, by reason.", "reason", "full_every")
	mFallbackNoDelta    = obs.Default.Counter("indice_refresh_fallbacks_total", "Incremental fast-path fallbacks to a full refresh, by reason.", "reason", "no_delta")
	mFallbackDrift      = obs.Default.Counter("indice_refresh_fallbacks_total", "Incremental fast-path fallbacks to a full refresh, by reason.", "reason", "drift")
	mFallbackError      = obs.Default.Counter("indice_refresh_fallbacks_total", "Incremental fast-path fallbacks to a full refresh, by reason.", "reason", "error")
)
