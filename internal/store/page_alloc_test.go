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
	snap := synthSnapshot(t, 3000)
	p := query.NumRange{Attr: epc.AttrEPH, Min: math.Inf(-1), Max: totalOf(t, snap, epc.AttrEPH).Mean()}
	spec := AggSpec{By: epc.AttrEnergyClass, Attrs: []string{epc.AttrEPH}}

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

// TestColdAggregateAllocatesPerGroupNotPerMatch is the allocation ratchet
// on the aggregate itself: a grouped, 2-attribute statistics query
// (limit=0) whose predicate matches about 90 % of the certificates must
// allocate under 1.25× the bytes of one matching about 10 %. It groups by
// district, which an eph range does not thin out, so both hold the same
// groups. The
// selection travels as words (8 B per 64 rows, matched or not) and each
// group's sketches are sized once from the columns' code ranges, so what
// the aggregate allocates follows its groups; an ordinal list per match
// or a sketch grown per row shows up as a ratio near 2.
func TestColdAggregateAllocatesPerGroupNotPerMatch(t *testing.T) {
	snap := synthSnapshot(t, 6000)
	eph := totalOf(t, snap, epc.AttrEPH)
	spec := AggSpec{By: epc.AttrDistrict, Attrs: []string{epc.AttrEPH, epc.AttrUWindows}}
	cost := func(q float64) (uint64, float64) {
		p := query.NumRange{Attr: epc.AttrEPH, Min: math.Inf(-1), Max: eph.S.Quantile(q)}
		matched := 0
		bytes := allocated(func() {
			res, page, _, err := snap.QueryShardsPage(p, 0, snap.NumShards(), 1, spec, 0, 0)
			if err != nil || page != nil {
				t.Fatalf("stats query: page %v, %v", page, err)
			}
			matched = res.Matched
		})
		return bytes, float64(matched) / float64(snap.NumRows())
	}
	few, fewSel := cost(0.1)
	most, mostSel := cost(0.9)
	if fewSel < 0.05 || fewSel > 0.15 || mostSel < 0.85 || mostSel > 0.95 {
		t.Fatalf("predicates match %.0f%% and %.0f%% of the corpus; the guard wants about 10 and 90", fewSel*100, mostSel*100)
	}
	t.Logf("%.0f%% matched: %d B; %.0f%% matched: %d B (%.2f×)", fewSel*100, few, mostSel*100, most, float64(most)/float64(few))
	if most*4 >= few*5 {
		t.Fatalf("the 90%% query allocates %d B, the 10%% one %d B: not under 1.25×", most, few)
	}
}

// synthSnapshot loads n synthetic certificates of a small city into a
// store of 256-row segments and returns its snapshot.
func synthSnapshot(t *testing.T, n int) *Snapshot {
	t.Helper()
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 30, 8
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = n
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
	return st.Snapshot()
}

// allocated returns the bytes one call of f allocates, averaged over
// five calls after a warm-up one (evaluator pools, lazily built state).
func allocated(f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
