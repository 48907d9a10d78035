package store

import (
	"bytes"
	"fmt"

	"indice/internal/table"
)

// Delta is the difference between a snapshot and an earlier remembered
// epoch of the same store: exactly the rows that arrived in between, read
// straight out of the snapshot's encodings.
//
// Because shards are append-only, the rows of any earlier epoch form a
// per-shard prefix of the current rows. Sealed segments lying entirely
// inside that prefix are the consumer's already and are never touched —
// never loaded from disk either. The new rows of a shard form runs: each
// sealed segment holding new rows is one (all of it, or its rows past the
// prefix when it straddles the boundary), and the shard's tail parts
// holding new rows are one more. A delta shares the encodings and decodes
// nothing until it is read.
type Delta struct {
	// FromEpoch and ToEpoch bound the delta (exclusive, inclusive).
	FromEpoch, ToEpoch uint64
	// BaseRows is the row count at FromEpoch; NewRows the rows added since.
	BaseRows, NewRows int
	// ReusedSegments counts sealed segments fully covered by the baseline —
	// the data the consumer keeps from its previous epoch at zero cost.
	// SharedSegments counts sealed segments and tail parts that are new
	// as a whole.
	ReusedSegments, SharedSegments int

	runs []deltaRun
}

// deltaRun is one run of a shard's new rows: those of encs[0] from row
// from on, then every row of the rest.
type deltaRun struct {
	shard int
	encs  []*table.Encoded
	from  int
}

// DeltaSince computes the delta between the snapshot and the remembered
// baseline at the given earlier epoch. The second return value is false
// when the baseline is unknown — the epoch was never snapshotted, it has
// aged out of the bounded history, or it lies at or beyond this snapshot —
// or a segment holding new rows cannot be read back from disk; the
// consumer must then rebuild from scratch.
func (sn *Snapshot) DeltaSince(epoch uint64) (*Delta, bool) {
	if epoch >= sn.epoch {
		return nil, false
	}
	for _, h := range sn.history {
		if h.epoch == epoch && len(h.shardRows) == len(sn.segs) {
			d, err := sn.delta(epoch, h.shardRows)
			return d, err == nil
		}
	}
	return nil, false
}

// delta cuts the runs of rows past base[i] in each shard i.
func (sn *Snapshot) delta(epoch uint64, base []int) (*Delta, error) {
	d := &Delta{FromEpoch: epoch, ToEpoch: sn.epoch}
	for i, segs := range sn.segs {
		prefix := base[i]
		if prefix > sn.shardRows[i] {
			// Rows never shrink in an append-only store; a larger baseline
			// means the history and snapshot disagree. Refuse the delta.
			return nil, fmt.Errorf("store: shard %d held %d rows at epoch %d, %d at %d", i, prefix, epoch, sn.shardRows[i], sn.epoch)
		}
		d.BaseRows += prefix
		d.NewRows += sn.shardRows[i] - prefix
		off := 0
		tail := -1 // index in d.runs of this shard's tail run
		for j, sg := range segs {
			n := sg.numRows()
			if off+n <= prefix {
				d.ReusedSegments++
				off += n
				continue
			}
			enc, err := sg.openEnc(sn.ld)
			if err != nil {
				return nil, err
			}
			if j >= sn.tailAt[i] && tail >= 0 {
				d.runs[tail].encs = append(d.runs[tail].encs, enc)
			} else {
				if j >= sn.tailAt[i] {
					tail = len(d.runs)
				}
				d.runs = append(d.runs, deltaRun{shard: i, encs: []*table.Encoded{enc}, from: max(prefix-off, 0)})
			}
			if off >= prefix {
				d.SharedSegments++
			}
			off += n
		}
	}
	return d, nil
}

// AppendTo decodes the delta's rows onto the end of dst, in shard order
// (within a shard, arrival order), matching columns by name: the columns
// dst does not carry are never decoded.
func (d *Delta) AppendTo(dst *table.Table) error {
	dst.Grow(d.NewRows)
	for _, r := range d.runs {
		if err := appendRun(dst, r.encs, r.from); err != nil {
			return err
		}
	}
	return nil
}

// Encode returns the encoding of the delta's rows, in AppendTo's order,
// with the columns of schema: Encode's for the same rows decoded, built
// from the runs' encodings in code space (table.EncodeRows), so nothing
// is decoded.
func (d *Delta) Encode(schema []table.Field) (*table.Encoded, error) {
	var srcs []*table.Encoded
	var g table.Gather
	for _, r := range d.runs {
		from := r.from
		for _, enc := range r.encs {
			g.AddRange(len(srcs), from, enc.NumRows())
			srcs = append(srcs, enc)
			from = 0
		}
	}
	return table.EncodeRows(schema, srcs, &g)
}

// EncodeFrames appends the delta to buf as part frames (frame.go), one per
// run: a whole new sealed segment or lone tail part as its encoding
// stands, any other run as the one encoding of its rows (merge). A
// replica adding the frames in order seals its tails where its leader
// sealed them.
func (d *Delta) EncodeFrames(buf *bytes.Buffer) error {
	for _, r := range d.runs {
		if err := EncodeFrame(buf, r.shard, merge(r.encs, r.from)); err != nil {
			return err
		}
	}
	return nil
}

// Delta returns the whole snapshot as its delta from an empty store:
// every sealed segment and tail part as runs, sharing the encodings and
// decoding nothing until it is read. An error means a segment could not
// be read back from disk.
func (sn *Snapshot) Delta() (*Delta, error) {
	return sn.delta(0, make([]int, len(sn.segs)))
}

// EncodeFrames appends the whole snapshot to buf as part frames: its
// delta from an empty store (see Delta.EncodeFrames).
func (sn *Snapshot) EncodeFrames(buf *bytes.Buffer) error {
	d, err := sn.Delta()
	if err != nil {
		return err
	}
	return d.EncodeFrames(buf)
}
