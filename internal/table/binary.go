package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// Binary columnar format, the fast on-disk representation for large EPC
// collections (the typed CSV stays the interchange format):
//
//	magic "INDT" | u16 version | u32 rows | u32 cols
//	per column: u16 nameLen | name | u8 type
//	            validity bitmap (ceil(rows/8) bytes)
//	            float64 column: rows × u64 (IEEE 754 bits, little endian)
//	            string column:  rows × u32 length-prefixed byte strings
//
// All integers are little endian.

const (
	binaryMagic   = "INDT"
	binaryVersion = 1

	// maxBinaryRows bounds the row count a binary header may claim, so a
	// corrupt or hostile header cannot trigger multi-gigabyte upfront
	// allocations. 2^28 rows is an order of magnitude beyond the largest
	// regional EPC registry.
	maxBinaryRows = 1 << 28
)

// WriteBinary serializes the table in the binary columnar format.
func (t *Table) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("table: writing binary header: %w", err)
	}
	if err := writeU16(bw, binaryVersion); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(t.rows)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(t.cols))); err != nil {
		return err
	}
	for _, c := range t.cols {
		if len(c.Name) > math.MaxUint16 {
			return fmt.Errorf("table: column name %q too long", c.Name[:32])
		}
		if err := writeU16(bw, uint16(len(c.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(c.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(c.Typ)); err != nil {
			return err
		}
		// Validity bitmap.
		bitmap := make([]byte, (t.rows+7)/8)
		for i, ok := range c.Valid {
			if ok {
				bitmap[i/8] |= 1 << (i % 8)
			}
		}
		if _, err := bw.Write(bitmap); err != nil {
			return err
		}
		if c.Typ == Float64 {
			var buf [8]byte
			for _, v := range c.Floats {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				if _, err := bw.Write(buf[:]); err != nil {
					return err
				}
			}
		} else {
			for _, k := range c.Codes {
				s := c.Dict[k]
				if err := writeU32(bw, uint32(len(s))); err != nil {
					return err
				}
				if _, err := bw.WriteString(s); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// binChunkPool recycles the per-call decode scratch of ReadBinary: one
// 64 KiB chunk serves both the validity bitmaps and the bulk float reads,
// so a high-rate ingest endpoint decodes batches without per-batch
// scratch allocations.
var binChunkPool = sync.Pool{New: func() any {
	b := make([]byte, 1<<16)
	return &b
}}

// readBinaryHeader consumes the shared "INDT"+version+rows+cols prefix
// of every binary version and applies the hostile-header bounds.
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

// ReadBinary parses a table from the v1 binary columnar format (the
// ingest wire and WAL batch format).
func ReadBinary(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	version, rows, cols, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("table: unsupported binary version %d", version)
	}
	return readBinaryV1Body(br, rows, cols)
}

// readBinaryV1Body parses the column payloads of the v1 format.
func readBinaryV1Body(br *bufio.Reader, rows, cols uint32) (*Table, error) {
	chunkp := binChunkPool.Get().(*[]byte)
	chunk := *chunkp
	defer binChunkPool.Put(chunkp)

	t := New()
	for ci := uint32(0); ci < cols; ci++ {
		nameLen, err := readU16(br)
		if err != nil {
			return nil, err
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("table: reading column name: %w", err)
		}
		typByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("table: reading column type: %w", err)
		}
		typ := Type(typByte)
		if typ != Float64 && typ != String {
			return nil, fmt.Errorf("table: unknown column type %d", typByte)
		}
		// Decode the bitmap in pooled chunks so allocation grows with the
		// bytes actually supplied, not with the claimed row count.
		valid := make([]bool, 0, min(int(rows), 1<<16))
		for remaining := int((rows + 7) / 8); remaining > 0; {
			n := min(remaining, len(chunk))
			if _, err := io.ReadFull(br, chunk[:n]); err != nil {
				return nil, fmt.Errorf("table: reading validity bitmap: %w", err)
			}
			for _, b := range chunk[:n] {
				for bit := 0; bit < 8 && len(valid) < int(rows); bit++ {
					valid = append(valid, b&(1<<bit) != 0)
				}
			}
			remaining -= n
		}
		if typ == Float64 {
			// Bulk-read the column through the pooled chunk (8 KiB of
			// values per ReadFull instead of one call per cell) while
			// still growing the destination incrementally: the claimed
			// row count is attacker controlled, so allocations must track
			// data actually read.
			vals := make([]float64, 0, min(int(rows), 1<<16))
			for remaining := int(rows); remaining > 0; {
				n := min(remaining, len(chunk)/8)
				if _, err := io.ReadFull(br, chunk[:n*8]); err != nil {
					return nil, fmt.Errorf("table: reading float column: %w", err)
				}
				for j := 0; j < n; j++ {
					vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(chunk[j*8:])))
				}
				remaining -= n
			}
			if err := t.AddFloatsValid(string(nameBuf), vals, valid); err != nil {
				return nil, err
			}
		} else {
			c := &Column{Name: string(nameBuf), Typ: String, Valid: append([]bool(nil), valid...)}
			c.Codes = make([]uint32, 0, min(int(rows), 1<<16))
			var sb []byte
			for i := uint32(0); i < rows; i++ {
				l, err := readU32(br)
				if err != nil {
					return nil, err
				}
				if l > 1<<24 {
					return nil, fmt.Errorf("table: implausible string length %d", l)
				}
				if sb = sb[:0]; cap(sb) < int(l) {
					sb = make([]byte, 0, l)
				}
				sb = sb[:l]
				if _, err := io.ReadFull(br, sb); err != nil {
					return nil, fmt.Errorf("table: reading string column: %w", err)
				}
				k, ok := c.findBytes(sb)
				if !ok {
					k = c.add(string(sb))
				}
				c.Codes = append(c.Codes, k)
			}
			c.index = nil
			if err := t.checkAdd(c.Name, len(c.Codes)); err != nil {
				return nil, err
			}
			t.push(c)
		}
	}
	if t.NumCols() == 0 {
		t.rows = int(rows)
	}
	return t, nil
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
