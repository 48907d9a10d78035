package scaleout

import "indice/internal/obs"

// Package-level metric handles for the replication and scatter-gather
// layer, resolved once at init (see internal/store/metrics.go for the
// convention). Replica-side counters track the pull loop;
// coordinator-side counters expose fan-out health so a dashboard
// can tell a hedged slow replica from a dead one.
var (
	// Replica pull loop.
	mReplSyncDelta = obs.Default.Counter("indice_repl_syncs_total", "Replication syncs completed, by kind.", "kind", "delta")
	mReplSyncFull  = obs.Default.Counter("indice_repl_syncs_total", "Replication syncs completed, by kind.", "kind", "full")
	mReplSyncNoop  = obs.Default.Counter("indice_repl_syncs_total", "Replication syncs completed, by kind.", "kind", "noop")
	mReplSyncErrs  = obs.Default.Counter("indice_repl_sync_errors_total", "Replication sync attempts that failed (network, protocol, or apply errors).")
	mReplRows      = obs.Default.Counter("indice_repl_applied_rows_total", "Rows applied from the leader (full streams plus deltas).")
	mReplSyncSecs  = obs.Default.Histogram("indice_repl_sync_seconds", "One replication sync: fetch, frame decode, and atomic apply.")

	// Leader replication endpoints.
	mLeadSegments = obs.Default.Counter("indice_repl_serve_total", "Replication requests served, by kind.", "kind", "segments")
	mLeadDelta    = obs.Default.Counter("indice_repl_serve_total", "Replication requests served, by kind.", "kind", "delta")
	mLeadGone     = obs.Default.Counter("indice_repl_serve_total", "Replication requests served, by kind.", "kind", "gone")
	mLeadBytes    = obs.Default.Counter("indice_repl_serve_bytes_total", "Encoded payload bytes streamed to replicas.")

	// Coordinator scatter-gather.
	mCoordFanout   = obs.Default.Counter("indice_coord_fanout_total", "Partition legs dispatched to replicas (including hedges and failover retries).")
	mCoordHedges   = obs.Default.Counter("indice_coord_hedges_total", "Hedge requests launched because the primary leg ran past the hedge delay.")
	mCoordDown     = obs.Default.Counter("indice_coord_replica_down_total", "Partition legs that failed and were retried on another replica.")
	mCoordDegraded = obs.Default.Counter("indice_coord_degraded_total", "Queries answered despite at least one replica leg failing.")
	mCoordStale    = obs.Default.Counter("indice_coord_stale_epoch_picks_total", "Epoch picks that fell back to last-known replica statuses because no status poll was currently succeeding.")
	mCoordMergeSec = obs.Default.Histogram("indice_coord_query_seconds", "Coordinator query wall time: epoch choice, fan-out, and merge.")
)
