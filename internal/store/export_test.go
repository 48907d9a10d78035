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

// ShardSegments returns shard i's immutable segment tables, reloading
// any evicted segment from disk. Readers may iterate them freely; they
// are shared with the store and other snapshots.
func (sn *Snapshot) ShardSegments(i int) ([]*table.Table, error) {
	out := make([]*table.Table, len(sn.segs[i]))
	for j, sg := range sn.segs[i] {
		tab, err := sg.open(sn.ld)
		if err != nil {
			return nil, err
		}
		out[j] = tab
	}
	return out, nil
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
	return sg.enc != nil || sg.tab != nil
}
