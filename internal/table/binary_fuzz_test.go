package table

import (
	"bytes"
	"encoding/binary"
	"math"
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

// mutate returns a copy of data with the byte at off replaced.
func mutate(data []byte, off int, b byte) []byte {
	out := append([]byte(nil), data...)
	out[off] = b
	return out
}

// TestReadEncodedCorruptHeaders drives the decoder through systematically
// corrupted encodings of a known-good table; every case must fail with an
// error (never a panic, never a silent success with wrong data).
func TestReadEncodedCorruptHeaders(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(fuzzSeedTable(t)).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Layout of the seed table, which the offsets below index: a 14-byte
	// file header; column "v" (raw float) at 14: u16 nameLen, 'v', type,
	// kind, validity flag 0, one validity word, 5 × 8 value bytes (ends at
	// 68); column "l" (dict) at 68: nameLen, 'l', type, kind, flag, one
	// validity word, u32 dictLen at 82, entries "a" (86), "x", "y", "été"
	// (101), width byte at 110, one code word (ends at 119).
	if len(good) != 119 {
		t.Fatalf("seed table encodes to %d bytes, the offsets below assume 119", len(good))
	}

	hugeRows := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeRows[6:], math.MaxUint32)

	overCapRows := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(overCapRows[6:], maxBinaryRows+1)

	hugeCols := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeCols[10:], math.MaxUint32)

	hugeName := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(hugeName[14:], math.MaxUint16)

	hugeStr := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeStr[86:], math.MaxUint32)

	cases := map[string][]byte{
		"rows u32 max":          hugeRows,
		"rows beyond cap":       overCapRows,
		"cols u32 max":          hugeCols,
		"column name len max":   hugeName,
		"unknown column type":   mutate(good, 17, 0x7f),
		"kind of another type":  mutate(good, 18, byte(KindDict)),
		"bad validity flag":     mutate(good, 19, 7),
		"string length max":     hugeStr,
		"dictionary unsorted":   mutate(good, 90, 'z'),
		"code width beyond 32":  mutate(good, 110, 33),
		"truncated mid bitmap":  good[:24],
		"truncated mid floats":  good[:40],
		"header only":           good[:14],
		"declared cols missing": good[:68],
		"zero-length input":     nil,
		"magic only":            good[:4],
		"version truncated":     good[:5],
		"rows truncated":        good[:8],
		"cols truncated":        good[:13],
		"extra col declared":    mutate(good, 10, 3),
		"version 1":             mutate(good, 4, 1),
	}
	for name, data := range cases {
		if _, err := ReadEncoded(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoder accepted corrupt input", name)
		}
	}
}

// TestReadEncodedTrailingGarbage documents that the decoder reads exactly
// the declared payload and ignores trailing bytes (streams may carry more
// than one table).
func TestReadEncodedTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(fuzzSeedTable(t)).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0xde, 0xad, 0xbe, 0xef)
	enc, err := ReadEncoded(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if enc.NumRows() != 5 || len(enc.Schema()) != 2 {
		t.Fatalf("shape = %dx%d", enc.NumRows(), len(enc.Schema()))
	}
}
