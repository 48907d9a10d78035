package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"indice/internal/geocode"
	"indice/internal/store"
	"indice/internal/synth"
)

// TestResidentCopiesStayWithinBudget is the heap profile of the serving
// node as a permanent test. A node that has refreshed owns two copies of
// its corpus — the store's sealed segments and tails, and the published
// serving table, both encoded — plus the lineage's narrow parts (the
// screened columns of every pre-drop row, the dropped rows) and the
// analysis. The corpus is 20 000 rows in 1 000-row batches, so every
// shard seals twice at the default SegmentRows and the store's copy is
// mostly encoded segments, as on a served node. The budget is in bytes,
// not in copies: the live heap the node adds may be residentFixedBytes —
// for what does not grow with the corpus: the analysis, index headers,
// pooled scratch — plus so many bytes per stored row, after the full
// refresh and again after three incremental ones. (A budget in multiples
// of table.SizeBytes would loosen by itself whenever a copy grew.) Of
// those bytes per row, at most residentUnownedBytes* may lie outside what
// the store, the lineage (LineageBytes) and the serving table (TableBytes)
// report: a copy nobody accounts for, like the clustering matrix the
// lineage kept until it clustered the serving table's rows instead (158
// and 202 B per row then). The serving table itself may take at most
// residentTableBytes per row. Each bound is what this run measured plus
// 15 %: 490 and 530 B per row of 132 attributes, of which the store's copy
// is ≈ 200 (sealed segments keep 41 of the 43 numeric columns as scaled
// codes), the serving table, which keeps the 51 columns its readers name,
// encoded, 128, and no owner 82 and 118. A decoded serving table again
// (808 and 855 B per row, the table 444), packing only integral floats
// again, a full-width serving table, store copies held as raw tails again
// (SegmentRows 8 192), one more copy, or string cells held as 16-byte
// headers again fail it.
const (
	residentFixedBytes           = 1 << 20
	residentRowBytesFull         = 564
	residentRowBytesFollowUp     = 610
	residentUnownedBytesFull     = 95
	residentUnownedBytesFollowUp = 136
	residentTableBytes           = 148
)

func TestResidentCopiesStayWithinBudget(t *testing.T) {
	const base, deltaRows, deltas, batchRows = 20000, 200, 3, 1000
	ds, sm, _ := world(t, base+deltas*deltaRows)
	corpus, _, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The corpus reaches the store the way the server receives it: as
	// typed-CSV batches.
	var bodies [][]byte
	for lo := 0; lo < corpus.NumRows(); {
		hi := lo + deltaRows
		if lo < base {
			hi = lo + batchRows
		}
		part, err := corpus.View(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := part.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
		lo = hi
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()

	scfg := store.DefaultConfig()
	scfg.Shards = 4
	st, err := store.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLive(st, ds.City.Hierarchy, LiveConfig{
		Options: Options{StreetMap: sm, Geocoder: geocode.NewMockGeocoder(sm, 2000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The planted extreme values can move a standard deviation past the
	// drift gate on a 200-row delta; the test is about copies, not about
	// when the fast path yields.
	live.cfg.Incremental.DriftThreshold = math.Inf(1)
	checkBudget := func(pub *Published, rowBytes, unownedBytes int64) {
		t.Helper()
		resident := heap() - before
		rows := int64(pub.Rows)
		status := st.Status()
		owned := status.TailBytes + status.SealedResidentBytes + int64(pub.LineageBytes) + int64(pub.TableBytes)
		perRow := (resident - residentFixedBytes) / rows
		unowned := (resident - residentFixedBytes - owned) / rows
		t.Logf("epoch %d: node holds %.1f MB live for %d rows: %d B per row over the fixed %d (store + lineage + serving table account for %d, the store for %d, the serving table for %d, no owner for %d)",
			pub.Epoch, float64(resident)/1e6, rows, perRow, residentFixedBytes, owned/rows, (status.TailBytes+status.SealedResidentBytes)/rows, int64(pub.TableBytes)/rows, unowned)
		if perRow > rowBytes {
			t.Errorf("epoch %d: live heap is %d B per stored row (%d B for %d rows), budget %d: something holds the corpus again, or holds it wider",
				pub.Epoch, perRow, resident, rows, rowBytes)
		}
		if tableBytes := int64(pub.TableBytes) / rows; tableBytes > residentTableBytes {
			t.Errorf("epoch %d: the serving table holds %d B per stored row, budget %d: it is held decoded again, or wider",
				pub.Epoch, tableBytes, residentTableBytes)
		}
		if unowned > unownedBytes {
			t.Errorf("epoch %d: %d B per stored row lie outside the store, the lineage and the serving table, budget %d: a copy no owner reports",
				pub.Epoch, unowned, unownedBytes)
		}
	}
	for i, body := range bodies {
		if _, err := st.AppendCSV(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		const lastBase = base/batchRows - 1
		if i < lastBase {
			continue
		}
		pub, err := live.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if pub.Incremental != (i > lastBase) {
			t.Fatalf("refresh after batch %d: incremental=%v (%s)", i, pub.Incremental, live.LastIncrementalError())
		}
		switch i {
		case lastBase:
			checkBudget(pub, residentRowBytesFull, residentUnownedBytesFull)
		case len(bodies) - 1:
			checkBudget(pub, residentRowBytesFollowUp, residentUnownedBytesFollowUp)
		}
	}
	for i, sh := range st.Status().Shards {
		if sh.Segments < 2 {
			t.Errorf("shard %d sealed %d segments, want at least 2: the budget did not see the store's encoded road", i, sh.Segments)
		}
	}
	if live.FullRefreshes() != 1 || live.IncrementalRefreshes() != deltas {
		t.Fatalf("%d full and %d incremental refreshes, want 1 and %d", live.FullRefreshes(), live.IncrementalRefreshes(), deltas)
	}

	runtime.KeepAlive(bodies)
	runtime.KeepAlive(corpus)
	runtime.KeepAlive(ds)
	runtime.KeepAlive(live)
}
