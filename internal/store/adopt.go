package store

import (
	"fmt"
	"time"

	"indice/internal/bitmap"
	"indice/internal/table"
)

// AdoptPart is one decoded part frame: an encoded table and the shard it
// belongs to — a replicated segment or tail, one shard's slice of a
// logged batch, or of an accepted one. Replicas mirror the leader's shard
// layout, so the shard id travels with the part instead of being
// re-derived by hashing rows — adding a part never decodes it.
type AdoptPart struct {
	Shard int
	Enc   *table.Encoded
}

// Reset discards every row, index posting and column range while
// keeping the schema and shard layout, so a replica whose delta baseline
// aged out of the leader's history can rebuild from a full segment
// stream. The epoch counter keeps rising (snapshots taken before the
// reset stay valid — they share immutable segments) and the remembered
// baselines are dropped, so a later DeltaSince against a pre-reset epoch
// refuses and forces the consumer into a full refresh. In-memory stores
// only, for the same reason as AdoptParts.
func (s *Store) Reset() error {
	if s.wal != nil {
		return fmt.Errorf("store: durable stores cannot be reset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		removed += sh.rows
		for _, sg := range sh.sealed {
			s.mem.addSealed(-sg.bytes)
		}
		sh.sealed = nil
		sh.setTail(nil)
		sh.rows = 0
		for a := range sh.index {
			sh.index[a] = make(map[string]*bitmap.Bitmap)
		}
		clear(sh.ranges)
		sh.mu.Unlock()
	}
	s.history = nil
	s.generation.Add(1)
	mStoreRows.Add(-float64(removed))
	return nil
}

// AdoptParts adds pre-encoded parts to the named shards' tails: the
// replication apply path. They take the road every accepted batch takes
// (shard.add), so a replica seals and folds its tails exactly as its
// leader does, and nothing is decoded. The whole batch lands atomically
// with respect to snapshots — a snapshot observes all parts or none.
//
// Only in-memory stores accept adopted parts: a durable store's WAL
// could not vouch for rows that bypassed it, and replicas re-sync from
// their leader on boot instead of recovering locally.
func (s *Store) AdoptParts(parts []AdoptPart) (int, error) {
	if len(parts) == 0 {
		return 0, nil
	}
	if s.wal != nil {
		return 0, fmt.Errorf("store: durable stores cannot adopt replicated segments")
	}
	start := time.Now()
	defer func() { mIngestSeconds.ObserveDuration(time.Since(start)) }()
	for _, p := range parts {
		if p.Shard < 0 || p.Shard >= len(s.shards) {
			return 0, fmt.Errorf("store: adopt into shard %d of %d", p.Shard, len(s.shards))
		}
		if p.Enc == nil || p.Enc.NumRows() == 0 {
			return 0, fmt.Errorf("store: adopt of empty segment")
		}
		if !schemaEqual(p.Enc.Schema(), s.schema) {
			return 0, fmt.Errorf("store: adopted segment schema does not match the store")
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows := 0
	for _, p := range parts {
		s.shards[p.Shard].add(p.Enc, "", &s.cfg)
		rows += p.Enc.NumRows()
	}
	s.accepted.Add(uint64(rows))
	mIngestBatches.Inc()
	mIngestAccepted.Add(uint64(rows))
	s.generation.Add(1)
	return rows, nil
}
