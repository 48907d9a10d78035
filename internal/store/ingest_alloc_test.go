package store

import (
	"bytes"
	"fmt"
	"testing"

	"indice/internal/epc"
	"indice/internal/table"
)

// TestIngestAllocsPerRecord is the allocation ratchet on the record
// ingest hot loop: with the per-batch scratch pooled (projection table,
// cell buffer, schema check) the steady-state cost per ingested record
// must stay bounded by the data the shards actually keep. The bound is
// deliberately generous — it catches a pooling regression (which shows up
// as several allocations per record), not incidental churn.
func TestIngestAllocsPerRecord(t *testing.T) {
	st, err := New(Config{
		Shards:      1,
		SegmentRows: 1 << 20, // no sealing during the measurement
		Schema: []table.Field{
			{Name: epc.AttrCertificateID, Type: table.String},
			{Name: epc.AttrDistrict, Type: table.String},
			{Name: epc.AttrEPH, Type: table.Float64},
		},
		KeyAttr:    epc.AttrCertificateID,
		IndexAttrs: []string{epc.AttrDistrict},
		StatsAttrs: []string{epc.AttrEPH},
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 128
	recs := make([]Record, batch)
	for i := range recs {
		recs[i] = Record{
			epc.AttrCertificateID: fmt.Sprintf("cert-%05d", i),
			epc.AttrDistrict:      fmt.Sprintf("D%02d", i%8),
			epc.AttrEPH:           float64(i % 400),
		}
	}
	// Warm the pools and the shard tail capacity.
	for i := 0; i < 4; i++ {
		if _, err := st.AppendRecords(recs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := st.AppendRecords(recs); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / batch
	t.Logf("ingest allocations: %.1f per %d-record batch (%.3f per record)", allocs, batch, perRecord)
	// Each kept record necessarily appends into the tail columns and the
	// district index (amortized growth), but the per-batch scaffolding is
	// pooled: anything beyond ~2 allocations per record means the scratch
	// is being rebuilt per call again.
	if perRecord > 2 {
		t.Fatalf("ingest hot loop allocates %.2f objects per record (batch total %.0f); scratch pooling regressed", perRecord, allocs)
	}
}

// TestAppendBinaryRoundTrip pins the bulk decode path: a round-tripped
// binary batch must come back identical (the pooled chunk must never leak
// between columns or calls).
func TestAppendBinaryRoundTrip(t *testing.T) {
	st, err := New(Config{Shards: 1, Schema: []table.Field{
		{Name: "id", Type: table.String},
		{Name: "x", Type: table.Float64},
	}, KeyAttr: "id"})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table.NewWithSchema(st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// More rows than one 64 KiB chunk holds (8192 floats) to force the
	// chunked loop around at least twice.
	const rows = 20_000
	for i := 0; i < rows; i++ {
		err := tab.AppendRow([]table.Cell{
			{Str: fmt.Sprintf("r%05d", i), Valid: true},
			{Float: float64(i) * 0.5, Valid: i%7 != 0},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := table.Encode(tab).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := st.AppendBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != rows {
		t.Fatalf("accepted %d of %d", res.Accepted, rows)
	}
	snap := st.Snapshot()
	got, err := snap.Table()
	if err != nil {
		t.Fatal(err)
	}
	xs, err := got.Floats("x")
	if err != nil {
		t.Fatal(err)
	}
	mask, _ := got.ValidMask("x")
	for i := 0; i < rows; i++ {
		if mask[i] != (i%7 != 0) {
			t.Fatalf("row %d validity = %v", i, mask[i])
		}
		if mask[i] && xs[i] != float64(i)*0.5 {
			t.Fatalf("row %d = %v, want %v", i, xs[i], float64(i)*0.5)
		}
	}
}
