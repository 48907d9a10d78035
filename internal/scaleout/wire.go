// Package scaleout implements scale-out serving on top of the single-node
// primitives: leader-side replication endpoints that stream encoded
// segments and per-epoch deltas, a replica pull loop that applies them
// without decoding, and a scatter-gather coordinator that fans queries
// out over replicas at one common epoch and merges the partial
// aggregates through the store's own accumulators (table.AggPartial, the
// fold a single node runs over its shards).
package scaleout

// Replication responses carry their epoch bookkeeping in headers so the
// body can stay a pure sequence of the store's part frames
// (store.EncodeFrame / store.ReadFrames): one encoded segment or delta
// part per frame, tagged with the shard it belongs to.
const (
	// HeaderEpoch is the epoch the body brings the replica up to.
	HeaderEpoch = "X-Indice-Epoch"
	// HeaderFromEpoch is the delta baseline (delta responses only).
	HeaderFromEpoch = "X-Indice-From-Epoch"
	// HeaderShards is the leader's shard count; replicas mirror it.
	HeaderShards = "X-Indice-Shards"
	// HeaderRows is the number of rows carried by the body.
	HeaderRows = "X-Indice-Rows"
	// HeaderStoreRows is the leader's total row count at HeaderEpoch,
	// which is what replica lag is measured against.
	HeaderStoreRows = "X-Indice-Store-Rows"
)
