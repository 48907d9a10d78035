package store

import "indice/internal/table"

// Accessors only this package's tests read: what a snapshot or a store
// holds, looked at from outside the planner.

// Append ingests a single record.
func (s *Store) Append(rec Record) (IngestResult, error) {
	return s.AppendRecords([]Record{rec})
}

// Schema returns the column layout (shared slice; do not modify).
func (sn *Snapshot) Schema() []table.Field { return sn.schema }

// ShardSegments decodes shard i's sealed segments and tail parts, one
// table each, reloading any evicted segment from disk.
func (sn *Snapshot) ShardSegments(i int) ([]*table.Table, error) {
	encs, err := sn.ShardEncoded(i)
	if err != nil {
		return nil, err
	}
	out := make([]*table.Table, len(encs))
	for j, enc := range encs {
		out[j] = enc.Decode()
	}
	return out, nil
}

// Tables decodes each run of the delta onto a table of its own, in shard
// order: what the delta's frames carry.
func (d *Delta) Tables() []*table.Table {
	out := make([]*table.Table, len(d.runs))
	for k, r := range d.runs {
		out[k] = merge(r.encs, r.from).Decode()
	}
	return out
}

// CountBy returns the per-value row counts of an indexed categorical
// attribute, merged across shards. The second return value is false for
// unindexed attributes.
func (sn *Snapshot) CountBy(attr string) (map[string]int, bool) {
	if len(sn.index) == 0 {
		return nil, false
	}
	if _, ok := sn.index[0][attr]; !ok {
		return nil, false
	}
	out := make(map[string]int)
	for _, idx := range sn.index {
		for v, b := range idx[attr] {
			out[v] += b.Len()
		}
	}
	return out, true
}

// resident reports whether the segment's content is in memory.
func (sg *segment) resident() bool {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return sg.enc != nil
}
