package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Every binary table body starts with the same header:
//
//	magic "INDT" | u16 version | u32 rows | u32 cols
//
// followed by the column payloads of its version; binary_v2.go holds the
// one version there is. All integers are little endian.

const (
	binaryMagic = "INDT"

	// maxBinaryRows bounds the row count a binary header may claim, so a
	// corrupt or hostile header cannot trigger multi-gigabyte upfront
	// allocations. 2^28 rows is an order of magnitude beyond the largest
	// regional EPC registry.
	maxBinaryRows = 1 << 28
)

// binChunkPool recycles the per-call decode scratch of readU64s: one
// 64 KiB chunk serves the validity and code words, so a high-rate ingest
// endpoint decodes batches without per-batch scratch allocations.
var binChunkPool = sync.Pool{New: func() any {
	b := make([]byte, 1<<16)
	return &b
}}

// readBinaryHeader consumes the "INDT"+version+rows+cols prefix and
// applies the hostile-header bounds.
func readBinaryHeader(br *bufio.Reader) (version uint16, rows, cols uint32, err error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, 0, fmt.Errorf("table: reading binary magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return 0, 0, 0, fmt.Errorf("table: bad magic %q", magic)
	}
	if version, err = readU16(br); err != nil {
		return 0, 0, 0, err
	}
	if rows, err = readU32(br); err != nil {
		return 0, 0, 0, err
	}
	if cols, err = readU32(br); err != nil {
		return 0, 0, 0, err
	}
	// Sanity bound: a column header needs ≥ 3 bytes.
	if cols > 1<<20 {
		return 0, 0, 0, fmt.Errorf("table: implausible column count %d", cols)
	}
	if rows > maxBinaryRows {
		return 0, 0, 0, fmt.Errorf("table: implausible row count %d", rows)
	}
	return version, rows, cols, nil
}

func writeU16(w io.Writer, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU16(r io.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("table: reading u16: %w", err)
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("table: reading u32: %w", err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
