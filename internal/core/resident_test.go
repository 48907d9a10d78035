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
// node as a permanent test. A node that has refreshed owns three copies of
// its corpus — the store's tails, the lineage's pre-drop table and the
// published serving table — plus the analysis and the clustering matrix.
// After the full refresh, and again after three incremental ones, the live
// heap the node adds must stay within 3.5 materialized copies
// (table.SizeBytes of the whole snapshot). A snapshot that copies tails, a
// materialization the snapshot keeps, or a clone handed to the engine each
// pin one more and fail it: with all three this run measured 4.8
// copies after the full refresh and 3.9 after the incremental ones.
func TestResidentCopiesStayWithinBudget(t *testing.T) {
	const base, deltaRows, deltas, batchRows = 6000, 200, 3, 1000
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
	checkBudget := func(pub *Published) {
		t.Helper()
		resident := heap() - before
		mat, err := pub.Snapshot.Table()
		if err != nil {
			t.Fatal(err)
		}
		copyBytes := int64(mat.SizeBytes())
		owned := st.Status().TailBytes + int64(pub.LineageBytes) + int64(pub.TableBytes)
		ratio := float64(resident) / float64(copyBytes)
		t.Logf("epoch %d: node holds %.1f MB live for a %.1f MB corpus copy: %.2f copies (tails + lineage + serving table account for %.2f)",
			pub.Epoch, float64(resident)/1e6, float64(copyBytes)/1e6, ratio, float64(owned)/float64(copyBytes))
		if ratio > 3.5 {
			t.Errorf("epoch %d: live heap is %.2f corpus copies (%d B over a %d B copy), budget 3.5: something pins another copy",
				pub.Epoch, ratio, resident, copyBytes)
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
		if i == lastBase || i == len(bodies)-1 {
			checkBudget(pub)
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
