package store

import "indice/internal/table"

// Delta is the segment-level difference between a snapshot and an earlier
// remembered epoch of the same store: exactly the rows that arrived in
// between, materialized as shared segment tables wherever possible.
//
// Because shards are append-only, the rows of any earlier epoch form a
// per-shard prefix of the current rows. Sealed segments lying entirely
// inside that prefix are reused by the consumer's previous materialization
// and never touched again; segments entirely beyond it are shared with the
// snapshot zero-copy; the (at most one per shard) segment straddling the
// boundary is handed out as a view of its rows beyond it. Computing a
// delta therefore costs O(new rows) at most, and nothing for raw tails.
type Delta struct {
	// FromEpoch and ToEpoch bound the delta (exclusive, inclusive).
	FromEpoch, ToEpoch uint64
	// BaseRows is the row count at FromEpoch; NewRows the rows added since.
	BaseRows, NewRows int
	// ReusedSegments counts sealed segments fully covered by the baseline —
	// the data the consumer keeps from its previous epoch at zero cost.
	ReusedSegments int
	// SharedSegments counts entirely-new segments handed out zero-copy;
	// CopiedRows counts boundary rows that had to be decoded from a sealed
	// segment (a straddled raw tail is viewed in place and counts none).
	SharedSegments int
	CopiedRows     int

	tables []*table.Table
	shards []int
}

// Tables returns the new rows as tables in shard order (within a shard,
// arrival order). They share storage with the snapshot — whole segments
// and views of boundary ones alike: treat them as read-only.
func (d *Delta) Tables() []*table.Table { return d.tables }

// TableShard returns the shard the i-th delta table belongs to, so a
// consumer mirroring the store's layout (a replica) can apply each
// table to the matching shard.
func (d *Delta) TableShard(i int) int { return d.shards[i] }

// DeltaSince computes the delta between the snapshot and the remembered
// baseline at the given earlier epoch. The second return value is false
// when the baseline is unknown — the epoch was never snapshotted, it has
// aged out of the bounded history, or it lies at or beyond this snapshot —
// in which case the consumer must rebuild from scratch. Fully reused
// segments are never loaded, so a delta over a mostly-cold durable store
// touches disk only for segments actually carrying new rows.
func (sn *Snapshot) DeltaSince(epoch uint64) (*Delta, bool) {
	if epoch >= sn.epoch {
		return nil, false
	}
	var base []int
	for _, h := range sn.history {
		if h.epoch == epoch {
			base = h.shardRows
			break
		}
	}
	if base == nil || len(base) != len(sn.segs) {
		return nil, false
	}
	d := &Delta{FromEpoch: epoch, ToEpoch: sn.epoch}
	for i, segs := range sn.segs {
		prefix := base[i]
		if prefix > sn.shardRows[i] {
			// Rows never shrink in an append-only store; a larger baseline
			// means the history and snapshot disagree. Refuse the delta.
			return nil, false
		}
		d.BaseRows += prefix
		d.NewRows += sn.shardRows[i] - prefix
		off := 0
		for _, sg := range segs {
			n := sg.numRows()
			switch {
			case off+n <= prefix:
				d.ReusedSegments++
			case off >= prefix:
				tab, err := sg.open(sn.ld)
				if err != nil {
					return nil, false
				}
				d.SharedSegments++
				d.tables = append(d.tables, tab)
				d.shards = append(d.shards, i)
			default:
				tab, err := sg.open(sn.ld)
				if err != nil {
					return nil, false
				}
				if sg.tab == nil {
					d.CopiedRows += off + n - prefix
				}
				part, err := tab.View(prefix-off, n)
				if err != nil {
					// View bounds derive from the counts just checked.
					panic("store: delta view: " + err.Error())
				}
				d.tables = append(d.tables, part)
				d.shards = append(d.shards, i)
			}
			off += n
		}
	}
	return d, true
}
