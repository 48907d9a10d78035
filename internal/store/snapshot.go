package store

import (
	"slices"

	"indice/internal/bitmap"
	"indice/internal/table"
)

// Snapshot is a frozen, consistent view of the store at one epoch.
// Snapshots share the store's sealed segments and each shard's tail parts
// (all immutable, so sharing is free) — taking one is O(shards × parts),
// never O(rows), holds no row data of its own and encodes nothing. A
// snapshot's rows never change after creation — ingestion continuing in
// the store is invisible to it — and it never observes a partially
// applied batch.
type Snapshot struct {
	epoch      uint64
	generation uint64
	rows       int
	schema     []table.Field
	colPos     map[string]int // schema position by column name (the store's, read-only)
	// segs[i] lists shard i's sealed segments at snapshot time, then one
	// segment per part of its tail, from segs[i][tailAt[i]] on. Sealed
	// segments are shared with the store; persisted ones may be evicted
	// from memory and are transparently reloaded through ld on access.
	segs   [][]*segment
	tailAt []int
	ld     *segLoader
	// shardRows[i] is shard i's total row count at snapshot time; history
	// carries the same counts for recent earlier epochs so DeltaSince can
	// locate a baseline without reaching back into the store.
	shardRows []int
	history   []epochRows
	// index[i] holds shard i's secondary-index postings at snapshot time,
	// as frozen bitmaps. Freezing is copy-on-write: all but the one
	// container a later append may still touch are shared with the store,
	// so a later append grows the store's bitmap, never the rows this
	// frozen view can see.
	index []map[string]map[string]*bitmap.Bitmap
	// ranges[i] is shard i's colRange per schema column, which the query
	// planner prunes shards with.
	ranges [][]colRange
}

// Snapshot freezes the current store contents under a new epoch: each
// shard's sealed segments and tail parts are shared as they are (they
// never change; a later merge or seal replaces parts, it does not rewrite
// them). Concurrent appends are excluded for the duration, so the
// snapshot is batch-atomic.
func (s *Store) Snapshot() *Snapshot {
	mSnapshots.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := &Snapshot{
		epoch:      s.epoch.Add(1),
		generation: s.generation.Load(),
		schema:     s.schema,
		colPos:     s.colPos,
		segs:       make([][]*segment, len(s.shards)),
		tailAt:     make([]int, len(s.shards)),
		ld:         s.ld,
		shardRows:  make([]int, len(s.shards)),
		index:      make([]map[string]map[string]*bitmap.Bitmap, len(s.shards)),
		ranges:     make([][]colRange, len(s.shards)),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		segs := make([]*segment, 0, len(sh.sealed)+len(sh.tail))
		snap.segs[i] = append(append(segs, sh.sealed...), sh.tail...)
		snap.tailAt[i] = len(sh.sealed)
		snap.shardRows[i] = sh.rows
		snap.rows += sh.rows

		idx := make(map[string]map[string]*bitmap.Bitmap, len(sh.index))
		for attr, byVal := range sh.index {
			vals := make(map[string]*bitmap.Bitmap, len(byVal))
			for v, b := range byVal {
				vals[v] = b.Freeze()
			}
			idx[attr] = vals
		}
		snap.index[i] = idx
		snap.ranges[i] = slices.Clone(sh.ranges)
		sh.mu.Unlock()
	}
	// Share the remembered baselines (older epochs) with the snapshot,
	// then remember this epoch. The slice is append-only and re-sliced
	// from the front, so sharing the prefix with snapshots is safe.
	snap.history = s.history
	s.history = append(s.history, epochRows{epoch: snap.epoch, shardRows: snap.shardRows})
	if len(s.history) > maxSnapHistory {
		// Copy rather than re-slice so the backing array cannot grow
		// unboundedly under snapshots holding old prefixes.
		trimmed := make([]epochRows, maxSnapHistory)
		copy(trimmed, s.history[len(s.history)-maxSnapHistory:])
		s.history = trimmed
	}
	return snap
}

// Epoch returns the snapshot's epoch number.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Generation returns the store ingest generation the snapshot observed.
func (sn *Snapshot) Generation() uint64 { return sn.generation }

// ShardRows returns shard i's row count at snapshot time.
func (sn *Snapshot) ShardRows(i int) int { return sn.shardRows[i] }

// NumRows returns the total row count of the snapshot.
func (sn *Snapshot) NumRows() int { return sn.rows }

// NumShards returns the shard count.
func (sn *Snapshot) NumShards() int { return len(sn.segs) }

// ShardEncoded returns shard i's sealed segments (reloading evicted ones
// from disk), then its tail's parts, as the encodings the store holds.
// They are immutable and shared with the store and every other snapshot
// holding them: read them, never mutate them.
func (sn *Snapshot) ShardEncoded(i int) ([]*table.Encoded, error) {
	out := make([]*table.Encoded, 0, len(sn.segs[i]))
	for _, sg := range sn.segs[i] {
		enc, err := sg.openEnc(sn.ld)
		if err != nil {
			return nil, err
		}
		out = append(out, enc)
	}
	return out, nil
}

// Table materializes the snapshot as one contiguous table (shard order,
// segment order within each shard), every column. Every call builds a
// fresh copy the caller owns and may rewrite: the snapshot keeps no
// reference to it, so the copy lives exactly as long as its caller needs
// it. Every segment and part is decoded straight onto it, with no decoded
// table of its own.
func (sn *Snapshot) Table() (*table.Table, error) {
	out, err := table.NewWithSchema(sn.schema)
	if err != nil {
		return nil, err
	}
	out.Grow(sn.rows)
	for _, segs := range sn.segs {
		for _, sg := range segs {
			enc, err := sg.openEnc(sn.ld)
			if err != nil {
				return nil, err
			}
			if err := enc.AppendTo(out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
