package store

import (
	"bytes"
	"fmt"
	"testing"

	"indice/internal/epc"
	"indice/internal/table"
)

// deltaTestStore builds a 2-shard store with tiny segments so deltas
// exercise sealed-segment reuse, sharing and boundary slicing.
func deltaTestStore(t *testing.T) *Store {
	t.Helper()
	st, err := New(Config{
		Shards:      2,
		SegmentRows: 8,
		Schema: []table.Field{
			{Name: epc.AttrCertificateID, Type: table.String},
			{Name: epc.AttrEPH, Type: table.Float64},
		},
		KeyAttr: epc.AttrCertificateID,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// deltaBatch builds rows [lo, hi) with identifying certificate ids.
func deltaBatch(t *testing.T, st *Store, lo, hi int) *table.Table {
	t.Helper()
	tab, err := table.NewWithSchema(st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		err := tab.AppendRow([]table.Cell{
			{Str: fmt.Sprintf("cert-%04d", i), Valid: true},
			{Float: float64(i), Valid: true},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// snapIDs collects the certificate-id multiset of a snapshot.
func snapIDs(t *testing.T, sn *Snapshot) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for i := 0; i < sn.NumShards(); i++ {
		segs, err := sn.ShardSegments(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			ids, err := seg.Strings(epc.AttrCertificateID)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				out[id]++
			}
		}
	}
	return out
}

func TestDeltaSinceMatchesRowDiff(t *testing.T) {
	st := deltaTestStore(t)
	if _, err := st.AppendTable(deltaBatch(t, st, 0, 40)); err != nil {
		t.Fatal(err)
	}
	s1 := st.Snapshot()
	if _, err := st.AppendTable(deltaBatch(t, st, 40, 55)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(deltaBatch(t, st, 55, 70)); err != nil {
		t.Fatal(err)
	}
	s2 := st.Snapshot()

	d, ok := s2.DeltaSince(s1.Epoch())
	if !ok {
		t.Fatal("delta against the previous epoch not available")
	}
	if d.FromEpoch != s1.Epoch() || d.ToEpoch != s2.Epoch() {
		t.Fatalf("delta epochs = [%d, %d]", d.FromEpoch, d.ToEpoch)
	}
	if d.BaseRows != 40 || d.NewRows != 30 {
		t.Fatalf("delta rows = base %d new %d, want 40/30", d.BaseRows, d.NewRows)
	}

	// The delta's id multiset must be exactly s2 minus s1.
	want := snapIDs(t, s2)
	for id, n := range snapIDs(t, s1) {
		want[id] -= n
		if want[id] == 0 {
			delete(want, id)
		}
	}
	got := make(map[string]int)
	rows := 0
	for _, tab := range d.Tables() {
		ids, err := tab.Strings(epc.AttrCertificateID)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			got[id]++
		}
		rows += tab.NumRows()
	}
	if rows != d.NewRows {
		t.Fatalf("delta tables carry %d rows, NewRows = %d", rows, d.NewRows)
	}
	if len(got) != len(want) {
		t.Fatalf("delta ids = %d, want %d", len(got), len(want))
	}
	for id, n := range want {
		if got[id] != n {
			t.Fatalf("delta id %q count = %d, want %d", id, got[id], n)
		}
	}

	// With 8-row segments and 40 base rows, both shards sealed segments
	// before s1: the delta must reuse them rather than re-materialize.
	if d.ReusedSegments == 0 {
		t.Fatal("no sealed segments reused across the delta")
	}
	if len(d.runs) == 0 {
		t.Fatal("delta carried rows but no run of them")
	}
}

func TestDeltaSinceEmptyAndUnknown(t *testing.T) {
	st := deltaTestStore(t)
	if _, err := st.AppendTable(deltaBatch(t, st, 0, 20)); err != nil {
		t.Fatal(err)
	}
	s1 := st.Snapshot()
	s2 := st.Snapshot() // no appends in between

	d, ok := s2.DeltaSince(s1.Epoch())
	if !ok {
		t.Fatal("empty delta not available")
	}
	if d.NewRows != 0 || len(d.Tables()) != 0 {
		t.Fatalf("empty delta = %d new rows, %d tables", d.NewRows, len(d.Tables()))
	}
	if d.BaseRows != 20 {
		t.Fatalf("empty delta base rows = %d", d.BaseRows)
	}

	if _, ok := s2.DeltaSince(s2.Epoch()); ok {
		t.Fatal("delta against own epoch must be unavailable")
	}
	if _, ok := s2.DeltaSince(s2.Epoch() + 7); ok {
		t.Fatal("delta against a future epoch must be unavailable")
	}
	if _, ok := s2.DeltaSince(0); ok {
		t.Fatal("delta against an unremembered epoch must be unavailable")
	}
}

func TestDeltaSinceHistoryAgesOut(t *testing.T) {
	st := deltaTestStore(t)
	if _, err := st.AppendTable(deltaBatch(t, st, 0, 10)); err != nil {
		t.Fatal(err)
	}
	first := st.Snapshot()
	var last *Snapshot
	for i := 0; i < maxSnapHistory+2; i++ {
		if _, err := st.AppendTable(deltaBatch(t, st, 10+i, 11+i)); err != nil {
			t.Fatal(err)
		}
		last = st.Snapshot()
	}
	if _, ok := last.DeltaSince(first.Epoch()); ok {
		t.Fatalf("epoch %d should have aged out of the %d-deep history", first.Epoch(), maxSnapHistory)
	}
	// The immediately preceding epoch is always remembered.
	if _, ok := last.DeltaSince(last.Epoch() - 1); !ok {
		t.Fatal("delta against the previous epoch unavailable")
	}
}

func TestGenerationBumpsOnAcceptedRowsOnly(t *testing.T) {
	st := deltaTestStore(t)
	if g := st.Generation(); g != 0 {
		t.Fatalf("fresh store generation = %d", g)
	}
	if _, err := st.AppendTable(deltaBatch(t, st, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 1 {
		t.Fatalf("generation after append = %d", g)
	}
	// Empty batches land no rows and must not bump the generation.
	empty, err := table.NewWithSchema(st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(empty); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 1 {
		t.Fatalf("generation after empty append = %d", g)
	}
	snap := st.Snapshot()
	if snap.Generation() != 1 {
		t.Fatalf("snapshot generation = %d", snap.Generation())
	}
	if st.Status().Generation != 1 {
		t.Fatalf("status generation = %d", st.Status().Generation)
	}
}

// TestDeltaEncodeMatchesDecodeThenEncode pins Delta.Encode to the
// decode-then-encode it replaces: decoding the delta (AppendTo) and
// encoding that (table.Encode) writes the same bytes, for every column
// subset and order, on a delta whose runs start mid-segment and on the
// whole snapshot's.
func TestDeltaEncodeMatchesDecodeThenEncode(t *testing.T) {
	st := deltaTestStore(t)
	// 10 rows a shard seal, 5 more wait in the tail at the baseline and
	// seal with the next 10: that segment straddles the baseline.
	for _, b := range [][2]int{{0, 20}, {20, 30}, {30, 50}, {50, 54}} {
		if _, err := st.AppendTable(deltaBatch(t, st, b[0], b[1])); err != nil {
			t.Fatal(err)
		}
		if b[1] == 30 {
			st.Snapshot()
		}
	}
	sn := st.Snapshot()
	since, ok := sn.DeltaSince(sn.Epoch() - 1)
	if !ok {
		t.Fatal("no delta since the first snapshot")
	}
	midSegment := false
	for _, r := range since.runs {
		midSegment = midSegment || r.from > 0
	}
	if !midSegment {
		t.Fatal("no run of the delta starts mid-segment: the test does not cover the boundary")
	}
	whole, err := sn.Delta()
	if err != nil {
		t.Fatal(err)
	}
	schema := st.Schema()
	id, eph := schema[0], schema[1]
	for name, d := range map[string]*Delta{"since": since, "whole": whole} {
		for _, fields := range [][]table.Field{schema, {eph}, {eph, id}, nil} {
			label := fmt.Sprintf("%s delta, %d columns", name, len(fields))
			dec, _ := table.NewWithSchema(fields)
			if err := d.AppendTo(dec); err != nil {
				t.Fatal(err)
			}
			enc, err := d.Encode(fields)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var got, want bytes.Buffer
			if err := enc.WriteBinary(&got); err != nil {
				t.Fatal(err)
			}
			if err := table.Encode(dec).WriteBinary(&want); err != nil {
				t.Fatal(err)
			}
			if enc.NumRows() != d.NewRows || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: Encode holds %d rows and differs from the decoded delta encoded (%d rows)", label, enc.NumRows(), d.NewRows)
			}
		}
	}
}
