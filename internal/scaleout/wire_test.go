package scaleout

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"indice/internal/store"
	"indice/internal/table"
)

// wireSchema is the small mixed-type schema the wire tests ship around.
var wireSchema = []table.Field{
	{Name: "id", Type: table.String},
	{Name: "class", Type: table.String},
	{Name: "v", Type: table.Float64},
}

// wireTable builds n rows over wireSchema, with some invalid cells so
// validity bitmaps travel too.
func wireTable(t testing.TB, seed int64, n int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab, err := table.NewWithSchema(wireSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cells := []table.Cell{
			{Str: fmt.Sprintf("id-%06d", i), Valid: true},
			{Str: fmt.Sprintf("c%d", rng.Intn(5)), Valid: rng.Intn(4) != 0},
			{Float: rng.NormFloat64() * 100, Valid: rng.Intn(10) != 0},
		}
		if err := tab.AppendRow(cells); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// encodedBytes is a table's encoded binary form: equal stores produce
// equal bytes, so replication fidelity is byte-checkable.
func encodedBytes(t testing.TB, tab *table.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := table.Encode(tab).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tabs := map[int]*table.Table{0: wireTable(t, 1, 5), 3: wireTable(t, 2, 40), 1: wireTable(t, 3, 1)}
	for _, shard := range []int{0, 3, 1} {
		if err := store.EncodeFrame(&buf, shard, table.Encode(tabs[shard])); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for _, want := range []int{0, 3, 1} {
		shard, payload, err := store.ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if shard != want || !bytes.Equal(payload, encodedBytes(t, tabs[want])) {
			t.Fatalf("frame = (shard %d, %d bytes), want shard %d and its table's bytes", shard, len(payload), want)
		}
	}
	if _, _, err := store.ReadFrame(r); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsTruncationAndJunk(t *testing.T) {
	var buf bytes.Buffer
	if err := store.EncodeFrame(&buf, 0, table.Encode(wireTable(t, 4, 3))); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Every strict prefix is either a clean EOF (empty) or an error —
	// never a successfully parsed frame.
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := store.ReadFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes parsed as a frame", cut)
		}
	}

	// A zero-length payload marks a corrupt stream.
	if _, _, err := store.ReadFrame(bytes.NewReader(make([]byte, 8))); err == nil || err == io.EOF {
		t.Fatalf("zero-length frame accepted: %v", err)
	}

	// An absurd declared length is rejected before allocation.
	junk := []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := store.ReadFrame(bytes.NewReader(junk)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// TestWireV2BitwiseRoundTrip: a leader-side encoded segment must arrive
// at the replica as exactly the same bytes it would re-serialize to —
// the stream is applied without decoding, so byte identity is the
// equivalence that matters.
func TestWireV2BitwiseRoundTrip(t *testing.T) {
	tab := wireTable(t, 1, 500)
	enc := table.Encode(tab)

	var stream bytes.Buffer
	if err := store.EncodeFrame(&stream, 2, enc); err != nil {
		t.Fatal(err)
	}
	parts, rows, err := store.ReadFrames(bytes.NewReader(stream.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0].Shard != 2 || rows != 500 {
		t.Fatalf("ReadFrames = %d parts, shard %d, %d rows", len(parts), parts[0].Shard, rows)
	}

	var leaderBytes, replicaBytes bytes.Buffer
	if err := enc.WriteBinary(&leaderBytes); err != nil {
		t.Fatal(err)
	}
	if err := parts[0].Enc.WriteBinary(&replicaBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leaderBytes.Bytes(), replicaBytes.Bytes()) {
		t.Fatal("v2 segment is not bitwise-stable across the wire")
	}
}

// TestWireRefusesV1Frames: a frame whose payload header says binary
// version 1 (the raw per-cell layout) is not a segment. The whole stream
// is rejected, naming the version, and the valid frame ahead of it is not
// handed out either.
func TestWireRefusesV1Frames(t *testing.T) {
	tab := wireTable(t, 2, 300)

	var stream bytes.Buffer
	if err := store.EncodeFrame(&stream, 0, table.Encode(tab)); err != nil {
		t.Fatal(err)
	}
	second := stream.Len()
	if err := store.EncodeFrame(&stream, 1, table.Encode(tab)); err != nil {
		t.Fatal(err)
	}
	stream.Bytes()[second+8+4] = 1 // the u16 version after the frame header and "INDT"

	parts, rows, err := store.ReadFrames(bytes.NewReader(stream.Bytes()), 2)
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("mixed-version stream: err = %v, want one naming version 1", err)
	}
	if len(parts) != 0 || rows != 0 {
		t.Fatalf("rejected stream still returned %d parts, %d rows", len(parts), rows)
	}
}

func TestReadFramesRejectsBadShard(t *testing.T) {
	var stream bytes.Buffer
	if err := store.EncodeFrame(&stream, 7, table.Encode(wireTable(t, 3, 10))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.ReadFrames(bytes.NewReader(stream.Bytes()), 4); err == nil {
		t.Fatal("frame for shard 7 of 4 accepted")
	}
}
