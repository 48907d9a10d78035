// Package scaleout implements scale-out serving on top of the single-node
// primitives: leader-side replication endpoints that stream encoded
// segments and per-epoch deltas, a replica pull loop that applies them
// without decoding, and a scatter-gather coordinator that fans queries
// out over replicas at one common epoch and merges the partial
// aggregates through the store's own accumulators (table.AggPartial, the
// fold a single node runs over its shards).
package scaleout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"indice/internal/store"
	"indice/internal/table"
)

// Replication responses carry their epoch bookkeeping in headers so the
// body can stay a pure segment stream.
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

// maxFramePayload bounds one frame's encoded segment. Segments hold at
// most SegmentRows rows (8k by default), so anything near this limit is
// a corrupt or hostile stream, not data.
const maxFramePayload = 64 << 20

// A replication body is a sequence of frames, each one sealed segment in
// the encoded binary columnar format (v2), prefixed by the shard it
// belongs to:
//
//	u32 shard | u32 payloadLen | payload (table encoded-binary bytes)
//
// Shard ids travel on the wire instead of being re-derived by hashing so
// every replica mirrors the leader's exact shard layout and per-shard
// row order — the property that makes coordinator-side shard-range
// partitioning disjoint and covering across the whole cluster.

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, shard int, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("scaleout: frame payload %d bytes exceeds limit", len(payload))
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(shard))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// EncodeFrame appends one encoded segment as a frame to buf.
func EncodeFrame(buf *bytes.Buffer, shard int, enc *table.Encoded) error {
	var body bytes.Buffer
	if err := enc.WriteBinary(&body); err != nil {
		return err
	}
	return WriteFrame(buf, shard, body.Bytes())
}

// ReadFrame reads one frame, returning io.EOF at a clean stream end and
// io.ErrUnexpectedEOF on a truncated one.
func ReadFrame(r io.Reader) (shard int, payload []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.EOF: clean end; ErrUnexpectedEOF: truncated header.
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxFramePayload {
		return 0, nil, fmt.Errorf("scaleout: frame payload of %d bytes", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return int(binary.BigEndian.Uint32(hdr[0:4])), payload, nil
}

// ReadFrames decodes a whole replication body into adoptable parts,
// validating every frame before any of them is applied — a truncated or
// corrupt stream is rejected as a unit, never half-applied.
func ReadFrames(r io.Reader, shards int) ([]store.AdoptPart, int, error) {
	var parts []store.AdoptPart
	rows := 0
	for {
		shard, payload, err := ReadFrame(r)
		if err == io.EOF {
			return parts, rows, nil
		}
		if err != nil {
			return nil, 0, err
		}
		if shard < 0 || shard >= shards {
			return nil, 0, fmt.Errorf("scaleout: frame for shard %d of %d", shard, shards)
		}
		enc, err := table.ReadEncoded(bytes.NewReader(payload))
		if err != nil {
			return nil, 0, fmt.Errorf("scaleout: frame decode: %w", err)
		}
		parts = append(parts, store.AdoptPart{Shard: shard, Enc: enc})
		rows += enc.NumRows()
	}
}
