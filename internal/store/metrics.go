package store

import "indice/internal/obs"

// Package-level metric handles, resolved once at init so hot paths pay a
// single atomic op per event and never a registry lookup. All series live
// in obs.Default and surface through GET /metrics; counters are cumulative
// for the process (across store rebuilds), gauges track the latest state.
var (
	// Ingest.
	mIngestBatches  = obs.Default.Counter("indice_store_ingest_batches_total", "Ingest batches acknowledged (including fully rejected ones).")
	mIngestAccepted = obs.Default.Counter("indice_store_ingest_rows_accepted_total", "Rows accepted into shards by ingest.")
	mIngestRejected = obs.Default.Counter("indice_store_ingest_rows_rejected_total", "Rows rejected by validation screening.")
	mIngestSeconds  = obs.Default.Histogram("indice_store_ingest_seconds", "End-to-end AppendTable latency (routing, WAL, shard apply).", obs.Nanos)
	mStoreRows      = obs.Default.Gauge("indice_store_rows", "Rows currently held across shards (ingested plus recovered).")
	mSnapshots      = obs.Default.Counter("indice_store_snapshots_total", "Copy-on-write snapshots taken.")

	// Write-ahead log.
	mWALAppendSeconds = obs.Default.Histogram("indice_store_wal_append_seconds", "WAL append latency including encode, write, policy fsync, and shard apply.", obs.Nanos)
	mWALFsyncSeconds  = obs.Default.Histogram("indice_store_wal_fsync_seconds", "WAL fsync latency (inline and background flusher syncs).", obs.Nanos)
	mWALRecords       = obs.Default.Counter("indice_store_wal_records_total", "Records appended to the WAL.")
	mWALBytes         = obs.Default.Gauge("indice_store_wal_bytes", "Bytes in the live WAL file (resets at rotation).")
	mWALGCFiles       = obs.Default.Counter("indice_store_wal_gc_files_total", "WAL files garbage-collected by checkpoints.")

	// Checkpoints.
	mCheckpoints       = obs.Default.Counter("indice_store_checkpoints_total", "Completed checkpoints.")
	mCheckpointErrors  = obs.Default.Counter("indice_store_checkpoint_errors_total", "Checkpoints that failed partway.")
	mCkptFreezeSeconds = obs.Default.Histogram("indice_store_checkpoint_phase_seconds", "Checkpoint phase durations.", obs.Nanos, "phase", "freeze")
	mCkptPersistSecs   = obs.Default.Histogram("indice_store_checkpoint_phase_seconds", "Checkpoint phase durations.", obs.Nanos, "phase", "persist")
	mCkptCommitSecs    = obs.Default.Histogram("indice_store_checkpoint_phase_seconds", "Checkpoint phase durations.", obs.Nanos, "phase", "commit")
	mCkptPruneSecs     = obs.Default.Histogram("indice_store_checkpoint_phase_seconds", "Checkpoint phase durations.", obs.Nanos, "phase", "prune")

	// Segment residency.
	mSegLoads     = obs.Default.Counter("indice_store_segment_loads_total", "Cold segments read back from disk.")
	mSegEvictions = obs.Default.Counter("indice_store_segment_evictions_total", "Resident segments evicted by the budget sweep.")
	mResidentRows = obs.Default.Gauge("indice_store_resident_rows", "Rows of persisted segments currently resident in memory.")
	mTailBytes    = obs.Default.Gauge("indice_store_tail_bytes", "Estimated bytes of the encoded parts in shard tails (moved at append, merge, seal and reset).")
	mSealedBytes  = obs.Default.Gauge("indice_store_sealed_resident_bytes", "Estimated bytes of sealed encoded segments resident in memory (moved at seal, recovery, load and eviction).")

	// Query planner.
	mPlanIndexed  = obs.Default.Counter("indice_query_plans_total", "Snapshot queries by dominant plan path.", "path", "indexed")
	mPlanPruned   = obs.Default.Counter("indice_query_plans_total", "Snapshot queries by dominant plan path.", "path", "pruned")
	mPlanFullscan = obs.Default.Counter("indice_query_plans_total", "Snapshot queries by dominant plan path.", "path", "fullscan")
	mPlanAll      = obs.Default.Counter("indice_query_plans_total", "Snapshot queries by dominant plan path.", "path", "all")
	mShardsPruned = obs.Default.Counter("indice_query_shards_pruned_total", "Shards skipped outright by index or statistics pruning.")
	mRowsScanned  = obs.Default.Counter("indice_query_rows_scanned_total", "Rows evaluated by snapshot queries (segment scans plus index candidates).")
	mRowsReturned = obs.Default.Counter("indice_query_rows_returned_total", "Rows returned by snapshot queries.")
	mQuerySeconds = obs.Default.Histogram("indice_query_seconds", "Snapshot query evaluation latency (plan plus masked scan).", obs.Nanos)

	// Aggregation pushdown.
	mAggPushdown    = obs.Default.Counter("indice_query_agg_pushdown_total", "Queries whose statistics the aggregation pushdown computed (stats-only and row-page requests; no match set materialized).")
	mAggCachedParts = obs.Default.Counter("indice_query_agg_cached_partials_total", "Segment aggregate partials served from the per-segment cache.")
)

// observePlan folds one executed query into the planner metrics.
func observePlan(ps PlanStats, all bool) {
	switch {
	case all:
		mPlanAll.Inc()
	case ps.IndexedShards > 0:
		mPlanIndexed.Inc()
	case ps.PrunedShards > 0:
		mPlanPruned.Inc()
	default:
		mPlanFullscan.Inc()
	}
	mShardsPruned.Add(uint64(ps.PrunedShards))
	mRowsScanned.Add(uint64(ps.CandidateRows + ps.ScannedRows))
	mRowsReturned.Add(uint64(ps.MatchedRows))
}
