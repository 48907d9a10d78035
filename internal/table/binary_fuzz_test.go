package table

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// fuzzSeedTable builds a small table exercising both column types, invalid
// cells, NaN payloads and multi-byte strings.
func fuzzSeedTable(tb testing.TB) *Table {
	tb.Helper()
	t := New()
	if err := t.AddFloats("v", []float64{1.5, math.NaN(), -3, 0, math.Inf(1)}); err != nil {
		tb.Fatal(err)
	}
	if err := t.AddStringsValid("l",
		[]string{"a", "", "été", "x", "y"},
		[]bool{true, false, true, true, true}); err != nil {
		tb.Fatal(err)
	}
	return t
}

// FuzzReadBinary feeds arbitrary bytes to the binary decoder. The decoder
// must never panic, and whenever it accepts an input the decoded table must
// re-encode and decode to an identical table (a full round-trip fixed
// point) — this is the property ingestion relies on, since `/api/ingest`
// accepts this format straight off the network.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzSeedTable(f).WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(nil))
	f.Add([]byte("INDT"))
	f.Add([]byte("INDT\x01\x00\xff\xff\xff\xff\x01\x00\x00\x00"))
	// Header claiming one valid empty-named string column and zero rows.
	f.Add([]byte("INDT\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tab.WriteBinary(&out); err != nil {
			t.Fatalf("decoded table failed to re-encode: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded table failed to decode: %v", err)
		}
		if back.NumRows() != tab.NumRows() || !reflect.DeepEqual(back.Schema(), tab.Schema()) {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				tab.NumRows(), tab.NumCols(), back.NumRows(), back.NumCols())
		}
		for _, name := range tab.ColumnNames() {
			am, _ := tab.ValidMask(name)
			bm, _ := back.ValidMask(name)
			if !reflect.DeepEqual(am, bm) {
				t.Fatalf("column %q validity changed across round trip", name)
			}
		}
	})
}

// mutate returns a copy of data with the byte at off replaced.
func mutate(data []byte, off int, b byte) []byte {
	out := append([]byte(nil), data...)
	out[off] = b
	return out
}

// TestReadBinaryCorruptHeaders drives the decoder through systematically
// corrupted encodings of a known-good table; every case must fail with an
// error (never a panic, never a silent success with wrong data).
func TestReadBinaryCorruptHeaders(t *testing.T) {
	var buf bytes.Buffer
	if err := fuzzSeedTable(t).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	hugeRows := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeRows[6:], math.MaxUint32)

	overCapRows := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(overCapRows[6:], maxBinaryRows+1)

	hugeCols := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeCols[10:], math.MaxUint32)

	hugeName := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(hugeName[14:], math.MaxUint16)

	// The first column is "v" (float64): header bytes are
	// [14:16]=nameLen, [16]='v', [17]=type.
	badType := mutate(good, 17, 0x7f)

	// The string column's first length prefix sits right after the float
	// column payload and the string column's header+bitmap; corrupt it to
	// an implausible length. Layout: 14-byte file header, then per column
	// (2+nameLen+1)-byte header + 1-byte bitmap (5 rows) + payload
	// (5×8 bytes for the float column).
	hugeStr := append([]byte(nil), good...)
	strLenOff := 14 + (2 + 1 + 1) + 1 + 5*8 + (2 + 1 + 1) + 1
	binary.LittleEndian.PutUint32(hugeStr[strLenOff:], math.MaxUint32)

	cases := map[string][]byte{
		"rows u32 max":          hugeRows,
		"rows beyond cap":       overCapRows,
		"cols u32 max":          hugeCols,
		"column name len max":   hugeName,
		"unknown column type":   badType,
		"string length max":     hugeStr,
		"truncated mid bitmap":  good[:19],
		"truncated mid floats":  good[:30],
		"header only":           good[:14],
		"declared cols missing": good[:14+2+1+1],
		"zero-length input":     nil,
		"magic only":            good[:4],
		"version truncated":     good[:5],
		"rows truncated":        good[:8],
		"cols truncated":        good[:13],
		"extra col declared":    mutate(good, 10, 3),
		"version 2":             mutate(good, 4, 2),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoder accepted corrupt input", name)
		}
	}
}

// TestReadBinaryTrailingGarbage documents that the decoder reads exactly
// the declared payload and ignores trailing bytes (streams may carry more
// than one table).
func TestReadBinaryTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := fuzzSeedTable(t).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0xde, 0xad, 0xbe, 0xef)
	tab, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 5 || tab.NumCols() != 2 {
		t.Fatalf("shape = %dx%d", tab.NumRows(), tab.NumCols())
	}
}
