package store

import (
	"math"
	"runtime"
	"testing"

	"indice/internal/epc"
	"indice/internal/query"
	"indice/internal/synth"
)

// TestPageAllocatesFractionOfQuery is the allocation ratchet on the row
// page path: a limit=20 page over a predicate matching about half the
// certificates must allocate under a fifth of the bytes Query spends
// materializing that match set, at the real schema's width (the cost of a
// match is its 132 decoded cells). The page's own cost is the match
// ordinals and the aggregate accumulators (both shared with QueryAgg)
// plus 20 decoded rows — a regression that decodes the match set again
// shows up as a ratio near 1.
func TestPageAllocatesFractionOfQuery(t *testing.T) {
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 30, 8
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 3000
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SegmentRows = 256
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	p := query.NumRange{Attr: epc.AttrEPH, Min: math.Inf(-1), Max: totalOf(t, snap, epc.AttrEPH).Mean()}
	spec := AggSpec{By: epc.AttrEnergyClass, Attrs: []string{epc.AttrEPH}}

	allocated := func(f func()) uint64 {
		f() // warm evaluator pools and lazily built state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	matched := 0
	queryBytes := allocated(func() {
		tab, _, err := snap.Query(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		matched = tab.NumRows()
	})
	pageBytes := allocated(func() {
		_, page, _, err := snap.QueryShardsPage(p, 0, snap.NumShards(), 1, spec, 40, 20)
		if err != nil {
			t.Fatal(err)
		}
		if n := decodePage(t, snap, page).NumRows(); n != 20 {
			t.Fatalf("page has %d rows", n)
		}
	})
	if sel := float64(matched) / float64(snap.NumRows()); sel < 0.35 || sel > 0.65 {
		t.Fatalf("predicate matches %.0f%% of the corpus; the guard wants about half", sel*100)
	}
	t.Logf("Query allocates %d B, a limit=20 page %d B (%.1f%%)", queryBytes, pageBytes, 100*float64(pageBytes)/float64(queryBytes))
	if pageBytes*5 >= queryBytes {
		t.Fatalf("limit=20 page allocates %d B, Query %d B: not under a fifth", pageBytes, queryBytes)
	}
}
