package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"indice/internal/table"
)

// Part frames carry one encoded table (binary format v2) and the shard it
// belongs to. A WAL record and a replication body are both sequences of
// them:
//
//	u32 shard | u32 payloadLen | payload (table encoded-binary bytes)
//
// The header is big endian. Shard ids travel with the part instead of
// being re-derived by hashing, so WAL replay and replicas reproduce the
// exact shard layout and per-shard row order of the node that wrote them
// — the property that makes coordinator-side shard-range partitioning
// disjoint and covering across the whole cluster.

// maxFramePayload bounds one frame's encoded table. A segment holds about
// SegmentRows rows (2 048 by default, plus the rest of the part that
// crossed the bound) and ingest bodies are capped well below the limit,
// so anything near it is a corrupt or hostile stream, not data.
const maxFramePayload = 64 << 20

// EncodeFrame appends one encoded table as a frame to buf. A table whose
// encoding exceeds the frame bound is refused and leaves buf as it was.
func EncodeFrame(buf *bytes.Buffer, shard int, enc *table.Encoded) error {
	start := buf.Len()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(shard))
	buf.Write(hdr[:])
	if err := enc.WriteBinary(buf); err != nil {
		buf.Truncate(start)
		return err
	}
	n := buf.Len() - start - len(hdr)
	if n > maxFramePayload {
		buf.Truncate(start)
		return fmt.Errorf("store: part of %d encoded bytes exceeds the %d-byte frame bound", n, maxFramePayload)
	}
	binary.BigEndian.PutUint32(buf.Bytes()[start+4:], uint32(n))
	return nil
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
		return 0, nil, fmt.Errorf("store: frame payload of %d bytes", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return int(binary.BigEndian.Uint32(hdr[0:4])), payload, nil
}

// ReadFrames decodes a whole frame sequence into parts, validating every
// frame before any of them is applied — a truncated or corrupt stream is
// rejected as a unit, never half-applied.
func ReadFrames(r io.Reader, shards int) ([]AdoptPart, int, error) {
	var parts []AdoptPart
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
			return nil, 0, fmt.Errorf("store: frame for shard %d of %d", shard, shards)
		}
		enc, err := table.ReadEncoded(bytes.NewReader(payload))
		if err != nil {
			return nil, 0, fmt.Errorf("store: frame decode: %w", err)
		}
		parts = append(parts, AdoptPart{Shard: shard, Enc: enc})
		rows += enc.NumRows()
	}
}
