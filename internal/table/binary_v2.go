package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary format v2 — encoded segment files. The shared header is the v1
// header with version = 2; the column payloads carry the encoded layout
// instead of raw cells:
//
//	magic "INDT" | u16 version=2 | u32 rows | u32 cols
//	per column: u16 nameLen | name | u8 type | u8 kind
//	            u8 allValid | if 0: validity words ((rows+63)/64 × u64)
//	            kind raw-float:  rows × u64 (IEEE 754 bits)
//	            kind raw-string: rows × u32 length-prefixed byte strings
//	            kind dict:       u32 dictLen | dict entries (u32 len | bytes)
//	                             u8 width | code words ((rows·width+63)/64 × u64)
//	            kind packed:     u64 base (two's complement) | u8 width | code words
//
// All integers are little endian. Word counts are derived from rows and
// width, never read from the file, so a hostile header cannot inflate
// them independently.
//
// A raw (v1) payload is not a segment: ReadEncoded refuses any other
// version by name. v1 stays the format of WAL records and binary ingest
// bodies (WriteBinary/ReadBinary on Table).

const binaryVersionEncoded = 2

// maxDictWidth bounds the per-code bit width v2 files may claim. The
// encoder never exceeds 32 (dict cardinality is capped at rows/4 ≤ 2^26,
// packed spans at 32 bits).
const maxDictWidth = 32

// WriteBinary serializes the encoded table in the v2 binary format.
func (e *Encoded) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("table: writing binary header: %w", err)
	}
	if err := writeU16(bw, binaryVersionEncoded); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(e.rows)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(e.cols))); err != nil {
		return err
	}
	for _, c := range e.cols {
		if len(c.name) > math.MaxUint16 {
			return fmt.Errorf("table: column name %q too long", c.name[:32])
		}
		if err := writeU16(bw, uint16(len(c.name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(c.name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(c.typ)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(c.kind)); err != nil {
			return err
		}
		if c.valid == nil {
			if err := bw.WriteByte(1); err != nil {
				return err
			}
		} else {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			if err := writeU64s(bw, c.valid); err != nil {
				return err
			}
		}
		switch c.kind {
		case KindRawFloat:
			var buf [8]byte
			for _, v := range c.rawF {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				if _, err := bw.Write(buf[:]); err != nil {
					return err
				}
			}
		case KindRawString:
			for _, s := range c.rawS {
				if err := writeU32(bw, uint32(len(s))); err != nil {
					return err
				}
				if _, err := bw.WriteString(s); err != nil {
					return err
				}
			}
		case KindDict:
			if err := writeU32(bw, uint32(len(c.dict))); err != nil {
				return err
			}
			for _, s := range c.dict {
				if err := writeU32(bw, uint32(len(s))); err != nil {
					return err
				}
				if _, err := bw.WriteString(s); err != nil {
					return err
				}
			}
			if err := bw.WriteByte(byte(c.codes.width)); err != nil {
				return err
			}
			if err := writeU64s(bw, c.codes.words); err != nil {
				return err
			}
		case KindPacked:
			if err := writeU64(bw, uint64(c.base)); err != nil {
				return err
			}
			if err := bw.WriteByte(byte(c.codes.width)); err != nil {
				return err
			}
			if err := writeU64s(bw, c.codes.words); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEncoded parses an encoded table from a segment file or a
// replication frame.
func ReadEncoded(r io.Reader) (*Encoded, error) {
	br := bufio.NewReader(r)
	version, rows, cols, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	if version != binaryVersionEncoded {
		return nil, fmt.Errorf("table: encoded segment has binary version %d, want %d", version, binaryVersionEncoded)
	}
	return readBinaryV2Body(br, rows, cols)
}

func readBinaryV2Body(br *bufio.Reader, rows, cols uint32) (*Encoded, error) {
	e := &Encoded{rows: int(rows), index: make(map[string]int, cols)}
	for ci := uint32(0); ci < cols; ci++ {
		nameLen, err := readU16(br)
		if err != nil {
			return nil, err
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("table: reading column name: %w", err)
		}
		name := string(nameBuf)
		if name == "" {
			return nil, fmt.Errorf("table: empty column name")
		}
		if _, dup := e.index[name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", name)
		}
		typByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("table: reading column type: %w", err)
		}
		typ := Type(typByte)
		if typ != Float64 && typ != String {
			return nil, fmt.Errorf("table: unknown column type %d", typByte)
		}
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("table: reading column kind: %w", err)
		}
		kind := ColKind(kindByte)
		switch {
		case typ == Float64 && (kind == KindRawFloat || kind == KindPacked):
		case typ == String && (kind == KindRawString || kind == KindDict):
		default:
			return nil, fmt.Errorf("table: column %q: kind %v does not match type %v", name, kind, typ)
		}
		c := &EncodedColumn{name: name, typ: typ, kind: kind, rows: int(rows)}

		validFlag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("table: reading validity flag: %w", err)
		}
		if validFlag == 0 {
			c.valid, err = readU64s(br, (int(rows)+63)/64)
			if err != nil {
				return nil, fmt.Errorf("table: reading validity words: %w", err)
			}
		} else if validFlag != 1 {
			return nil, fmt.Errorf("table: bad validity flag %d", validFlag)
		}

		switch kind {
		case KindRawFloat:
			c.rawF = make([]float64, 0, min(int(rows), 1<<16))
			var buf [8]byte
			for i := uint32(0); i < rows; i++ {
				if _, err := io.ReadFull(br, buf[:]); err != nil {
					return nil, fmt.Errorf("table: reading float column: %w", err)
				}
				c.rawF = append(c.rawF, math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
			}
		case KindRawString:
			c.rawS = make([]string, 0, min(int(rows), 1<<16))
			for i := uint32(0); i < rows; i++ {
				s, err := readLenString(br)
				if err != nil {
					return nil, err
				}
				c.rawS = append(c.rawS, s)
			}
		case KindDict, KindPacked:
			if kind == KindDict {
				dictLen, err := readU32(br)
				if err != nil {
					return nil, err
				}
				if dictLen > maxBinaryRows {
					return nil, fmt.Errorf("table: implausible dictionary size %d", dictLen)
				}
				c.dict = make([]string, 0, min(int(dictLen), 1<<16))
				for i := uint32(0); i < dictLen; i++ {
					s, err := readLenString(br)
					if err != nil {
						return nil, err
					}
					if i > 0 && s <= c.dict[i-1] {
						return nil, fmt.Errorf("table: dictionary of %q is not strictly sorted", name)
					}
					c.dict = append(c.dict, s)
				}
				c.dict = withEmptySlot(c.dict)
			} else {
				base, err := readU64(br)
				if err != nil {
					return nil, err
				}
				c.base = int64(base)
			}
			widthByte, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("table: reading code width: %w", err)
			}
			width := int(widthByte)
			if width > maxDictWidth {
				return nil, fmt.Errorf("table: implausible code width %d", width)
			}
			if kind == KindDict && len(c.dict) > 1<<uint(width) {
				return nil, fmt.Errorf("table: dict column %q: width %d cannot address %d entries", name, width, len(c.dict))
			}
			c.codes = packed{width: width, n: int(rows)}
			if width > 0 {
				c.codes.words, err = readU64s(br, (int(rows)*width+63)/64)
				if err != nil {
					return nil, fmt.Errorf("table: reading code words: %w", err)
				}
			}
			if kind == KindDict {
				// Codes are attacker controlled: every valid row's code
				// must index the dictionary or StringAt would panic.
				for i := 0; i < int(rows); i++ {
					if c.ValidAt(i) && c.codes.at(i) >= uint64(len(c.dict)) {
						return nil, fmt.Errorf("table: dict column %q: code %d out of range at row %d", name, c.codes.at(i), i)
					}
				}
			}
		}
		e.index[name] = len(e.cols)
		e.cols = append(e.cols, c)
	}
	return e, nil
}

func readLenString(br *bufio.Reader) (string, error) {
	l, err := readU32(br)
	if err != nil {
		return "", err
	}
	if l > 1<<24 {
		return "", fmt.Errorf("table: implausible string length %d", l)
	}
	sb := make([]byte, l)
	if _, err := io.ReadFull(br, sb); err != nil {
		return "", fmt.Errorf("table: reading string: %w", err)
	}
	return string(sb), nil
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("table: reading u64: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func writeU64s(w io.Writer, words []uint64) error {
	var buf [8]byte
	for _, v := range words {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// readU64s reads n words, growing the destination incrementally so a
// hostile header cannot trigger a huge upfront allocation.
func readU64s(r io.Reader, n int) ([]uint64, error) {
	chunkp := binChunkPool.Get().(*[]byte)
	chunk := *chunkp
	defer binChunkPool.Put(chunkp)
	out := make([]uint64, 0, min(n, 1<<13))
	for remaining := n; remaining > 0; {
		k := min(remaining, len(chunk)/8)
		if _, err := io.ReadFull(r, chunk[:k*8]); err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			out = append(out, binary.LittleEndian.Uint64(chunk[j*8:]))
		}
		remaining -= k
	}
	return out, nil
}
