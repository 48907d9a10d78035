package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/obs"
	"indice/internal/query"
	"indice/internal/store"
	"indice/internal/table"
)

// The incremental-refresh equivalence world: a reduced EPC schema whose
// clustering attributes carry four well-separated blobs (so the elbow is
// stable at K=4 on any same-distribution sample) plus rare injected
// extreme values the MAD screen flags far from any fence boundary (so the
// dropped row set is identical however the rows are ordered).
var incrAttrs = []string{"ua", "ub", "uc"}

func incrSchema() []table.Field {
	return []table.Field{
		{Name: epc.AttrCertificateID, Type: table.String},
		{Name: epc.AttrDistrict, Type: table.String},
		{Name: epc.AttrLatitude, Type: table.Float64},
		{Name: epc.AttrLongitude, Type: table.Float64},
		{Name: "ua", Type: table.Float64},
		{Name: "ub", Type: table.Float64},
		{Name: "uc", Type: table.Float64},
		{Name: epc.AttrEPH, Type: table.Float64},
	}
}

// incrCenters places the four blobs at distinct corners of the attribute
// cube, so the SSE elbow is decisively K=4 on any same-distribution
// sample.
var incrCenters = [4][3]float64{
	{0.2, 0.2, 0.8},
	{0.8, 0.2, 0.2},
	{0.2, 0.8, 0.2},
	{0.8, 0.8, 0.8},
}

// incrBatch generates rows [lo, hi): blob b = i%4 at incrCenters[b]
// (+shift), σ=0.02; every 97th row is an extreme outlier.
func incrBatch(t testing.TB, lo, hi int, shift float64, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab, err := table.NewWithSchema(incrSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		b := i % 4
		c := incrCenters[b]
		cells := []table.Cell{
			{Str: fmt.Sprintf("cert-%06d", i), Valid: true},
			{Str: fmt.Sprintf("D%d", b), Valid: true},
			{Float: rng.Float64(), Valid: true},
			{Float: rng.Float64(), Valid: true},
			{Float: c[0] + shift + rng.NormFloat64()*0.02, Valid: true},
			{Float: c[1] + shift + rng.NormFloat64()*0.02, Valid: true},
			{Float: c[2] + shift + rng.NormFloat64()*0.02, Valid: true},
			{Float: 100 + 50*float64(b) + rng.NormFloat64()*3, Valid: true},
		}
		if i%97 == 0 {
			cells[4].Float = 50 + rng.Float64() // unambiguous MAD outlier
		}
		if err := tab.AppendRow(cells); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func incrLiveConfig(inc IncrementalConfig) LiveConfig {
	acfg := DefaultAnalysisConfig()
	acfg.Attributes = append([]string(nil), incrAttrs...)
	acfg.KMin, acfg.KMax = 2, 6
	acfg.Restarts = 2
	pcfg := DefaultPreprocessConfig()
	pcfg.OutlierAttrs = append([]string(nil), incrAttrs...)
	return LiveConfig{
		Preprocess:  pcfg,
		Analysis:    acfg,
		MinRows:     50,
		Incremental: inc,
	}
}

func incrLive(t testing.TB, inc IncrementalConfig) (*store.Store, *Live) {
	t.Helper()
	st, err := store.New(store.Config{
		Shards:      2,
		SegmentRows: 256,
		Schema:      incrSchema(),
		KeyAttr:     epc.AttrCertificateID,
		IndexAttrs:  []string{epc.AttrDistrict},
	})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := geo.GridHierarchy("t", geo.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLive(st, hier, incrLiveConfig(inc))
	if err != nil {
		t.Fatal(err)
	}
	return st, live
}

// labelsByID returns certificate-id → cluster label for a published state.
func labelsByID(t *testing.T, pub *Published) map[string]int {
	t.Helper()
	ids, err := pub.Engine.Decode().Strings(epc.AttrCertificateID)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int, len(ids))
	for i, id := range ids {
		out[id] = pub.Analysis.RowLabels[i]
	}
	return out
}

// TestIncrementalMatchesColdPath is the randomized equivalence test the
// tentpole demands: the fast path must publish the same preprocessing
// outcome as the cold pipeline on the same snapshot — the same served
// certificates (the fences are computed over the same value multiset),
// also after a delta that moves a fence across rows of earlier epochs — and
// a clustering over the same normalization bounds that agrees with the
// cold one up to cluster relabeling and summation-order rounding.
func TestIncrementalMatchesColdPath(t *testing.T) {
	stInc, liveInc := incrLive(t, IncrementalConfig{DriftThreshold: 1e9, FullEvery: 1 << 30})
	stCold, liveCold := incrLive(t, IncrementalConfig{Disable: true})
	// The latitude is screened too: its ladder of rows around the upper
	// fence lets the last delta move a fence across rows of earlier epochs.
	for _, l := range []*Live{liveInc, liveCold} {
		l.cfg.Preprocess.OutlierAttrs = append(slices.Clone(incrAttrs), epc.AttrLatitude)
	}

	base := latBatch(t, 0, 1200, 7, latLadder)
	for _, st := range []*store.Store{stInc, stCold} {
		if _, err := st.AppendTable(base); err != nil {
			t.Fatal(err)
		}
	}
	first, err := liveInc.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := liveCold.Refresh(); err != nil {
		t.Fatal(err)
	}
	if liveInc.IncrementalRefreshes() != 0 || liveInc.FullRefreshes() != 1 {
		t.Fatalf("first refresh not cold: %d inc, %d full",
			liveInc.IncrementalRefreshes(), liveInc.FullRefreshes())
	}

	const rounds = 4
	served := servedIDs(t, first)
	for round := 0; round < rounds; round++ {
		lat := latUniform(0, 1)
		if round == rounds-1 {
			lat = latUniform(0, 2.4) // widens the spread: the upper fence moves out
		}
		delta := latBatch(t, 1200+120*round, 1200+120*(round+1), int64(100+round), lat)
		for _, st := range []*store.Store{stInc, stCold} {
			if _, err := st.AppendTable(delta); err != nil {
				t.Fatal(err)
			}
		}
		pubInc, err := liveInc.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		pubCold, err := liveCold.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if !pubInc.Incremental {
			t.Fatalf("round %d: fast path not taken", round)
		}
		if pubCold.Incremental {
			t.Fatal("disabled live took the fast path")
		}
		if pubInc.DeltaRows != 120 {
			t.Fatalf("round %d: delta rows = %d, want 120", round, pubInc.DeltaRows)
		}
		if pubInc.ReusedRows != 1200+120*round {
			t.Fatalf("round %d: reused rows = %d", round, pubInc.ReusedRows)
		}

		// Preprocessing equivalence: identical value multisets mean
		// identical fences, so the same certificates survive on both paths
		// (in different row orders).
		if pubInc.Report.RowsBefore != pubCold.Report.RowsBefore ||
			pubInc.Report.RowsAfter != pubCold.Report.RowsAfter {
			t.Fatalf("round %d: rows inc %d→%d vs cold %d→%d", round,
				pubInc.Report.RowsBefore, pubInc.Report.RowsAfter,
				pubCold.Report.RowsBefore, pubCold.Report.RowsAfter)
		}
		if len(pubInc.Report.OutlierRows) != len(pubCold.Report.OutlierRows) {
			t.Fatalf("round %d: flagged %d vs %d rows", round,
				len(pubInc.Report.OutlierRows), len(pubCold.Report.OutlierRows))
		}
		wasServed := served
		served = servedIDs(t, pubInc)
		if !maps.Equal(served, servedIDs(t, pubCold)) {
			t.Fatalf("round %d: the incremental and the cold path serve different certificates", round)
		}
		if round == rounds-1 {
			moved := 0
			for id := range served {
				if !wasServed[id] && id < fmt.Sprintf("cert-%06d", 1200+120*round) {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("round %d: the widening delta re-admitted no earlier certificate", round)
			}
		}

		// Clustering equivalence: same K, SSE within summation-order
		// rounding, and the same partition of certificates up to cluster
		// index permutation.
		anInc, anCold := pubInc.Analysis, pubCold.Analysis
		// Both paths cluster the same multiset of rows, so the order-free
		// normalization bounds agree bit for bit.
		if !bitsEqual(anInc.NormMins, anCold.NormMins) || !bitsEqual(anInc.NormMaxs, anCold.NormMaxs) {
			t.Fatalf("round %d: bounds inc (%v, %v) vs cold (%v, %v)", round,
				anInc.NormMins, anInc.NormMaxs, anCold.NormMins, anCold.NormMaxs)
		}
		if anInc.ChosenK != anCold.ChosenK {
			t.Fatalf("round %d: K = %d (inc) vs %d (cold)", round, anInc.ChosenK, anCold.ChosenK)
		}
		relSSE := math.Abs(anInc.Clustering.SSE-anCold.Clustering.SSE) /
			math.Max(anCold.Clustering.SSE, 1e-300)
		if relSSE > 1e-6 {
			t.Fatalf("round %d: SSE %v (inc) vs %v (cold), rel %v",
				round, anInc.Clustering.SSE, anCold.Clustering.SSE, relSSE)
		}
		incIDs := labelsByID(t, pubInc)
		coldIDs := labelsByID(t, pubCold)
		if len(incIDs) != len(coldIDs) {
			t.Fatalf("round %d: %d vs %d served certificates", round, len(incIDs), len(coldIDs))
		}
		perm := map[int]int{} // incremental cluster -> cold cluster
		for id, li := range incIDs {
			lc, ok := coldIDs[id]
			if !ok {
				t.Fatalf("round %d: certificate %s missing from cold state", round, id)
			}
			if (li < 0) != (lc < 0) {
				t.Fatalf("round %d: certificate %s clustered on one path only (%d vs %d)", round, id, li, lc)
			}
			if li < 0 {
				continue
			}
			if prev, seen := perm[li]; seen && prev != lc {
				t.Fatalf("round %d: incremental cluster %d maps to cold clusters %d and %d",
					round, li, prev, lc)
			}
			perm[li] = lc
		}
		if len(perm) != anCold.ChosenK {
			t.Fatalf("round %d: label permutation covers %d of %d clusters", round, len(perm), anCold.ChosenK)
		}

		// Cluster response means agree under the same permutation.
		for li, lc := range perm {
			mi, mc := anInc.ClusterResponseMeans[li], anCold.ClusterResponseMeans[lc]
			if math.Abs(mi-mc) > 1e-6*math.Max(1, math.Abs(mc)) {
				t.Fatalf("round %d: response mean %v vs %v for cluster %d→%d", round, mi, mc, li, lc)
			}
		}
	}
	if liveInc.IncrementalRefreshes() != rounds {
		t.Fatalf("incremental refreshes = %d, want %d", liveInc.IncrementalRefreshes(), rounds)
	}
}

// TestIncrementalEmptyDeltaAndRejectedIngest pins the no-op skip: an
// unchanged ingest generation — including ingests whose every record is
// rejected — returns the published state without recomputing anything.
func TestIncrementalEmptyDeltaAndRejectedIngest(t *testing.T) {
	st, live := incrLive(t, IncrementalConfig{})
	if _, err := st.AppendTable(incrBatch(t, 0, 400, 0, 3)); err != nil {
		t.Fatal(err)
	}
	pub, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	again, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if again != pub {
		t.Fatal("no-op refresh rebuilt the published state")
	}
	// A fully rejected ingest (unknown attribute) lands no rows, so the
	// generation — and therefore the published state — must not move.
	res, err := st.AppendRecords([]store.Record{{"no_such_attribute": "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Rejected != 1 {
		t.Fatalf("rejected ingest = %+v", res)
	}
	again, err = live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if again != pub {
		t.Fatal("rejected-only ingest triggered a recompute")
	}
	if live.Refreshes() != 1 {
		t.Fatalf("refreshes = %d, want 1", live.Refreshes())
	}
}

// TestIncrementalDriftGate drives the drift threshold from both sides:
// a same-distribution delta stays on the fast path, a shifted delta
// beyond the threshold forces the full sweep, and a threshold just above
// the measured drift lets the same shifted delta through — the boundary
// the correctness fallback hinges on.
func TestIncrementalDriftGate(t *testing.T) {
	const threshold = 0.05
	st, live := incrLive(t, IncrementalConfig{DriftThreshold: threshold, FullEvery: 1 << 30})
	if _, err := st.AppendTable(incrBatch(t, 0, 1200, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Same distribution: negligible drift, fast path. The drift read is
	// no query: it moves none of the indice_query_* families.
	if _, err := st.AppendTable(incrBatch(t, 1200, 1260, 0, 6)); err != nil {
		t.Fatal(err)
	}
	before := queryFamilies(t)
	pub, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Incremental {
		t.Fatal("same-distribution delta did not take the fast path")
	}
	if after := queryFamilies(t); after != before {
		t.Fatalf("an incremental refresh moved the query metrics:\n%s\nthen\n%s", before, after)
	}
	if pub.Drift > threshold {
		t.Fatalf("measured drift %v above threshold on same-distribution delta", pub.Drift)
	}

	// Massively shifted delta (means move by many σ): full sweep.
	if _, err := st.AppendTable(incrBatch(t, 1260, 2500, 3.0, 8)); err != nil {
		t.Fatal(err)
	}
	pub, err = live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Incremental {
		t.Fatal("drifted delta stayed on the fast path")
	}
	if live.FullRefreshes() != 2 {
		t.Fatalf("full refreshes = %d, want 2", live.FullRefreshes())
	}

	// Boundary from the other side: with a huge threshold the same kind
	// of shift is tolerated and the fast path resumes from the new
	// baseline.
	stBig, liveBig := incrLive(t, IncrementalConfig{DriftThreshold: 1e9, FullEvery: 1 << 30})
	if _, err := stBig.AppendTable(incrBatch(t, 0, 1200, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := liveBig.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := stBig.AppendTable(incrBatch(t, 1200, 1500, 0.5, 8)); err != nil {
		t.Fatal(err)
	}
	pubBig, err := liveBig.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !pubBig.Incremental {
		t.Fatal("shift below (huge) threshold did not take the fast path")
	}
	if pubBig.Drift <= 0 {
		t.Fatalf("shifted delta measured drift %v, want > 0", pubBig.Drift)
	}
}

// queryFamilies returns the indice_query_* samples of the process
// registry.
func queryFamilies(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "indice_query_") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestIncrementalFullEveryFallback pins the unconditional re-sweep: with
// FullEvery=2 the pipeline alternates full and incremental refreshes.
func TestIncrementalFullEveryFallback(t *testing.T) {
	st, live := incrLive(t, IncrementalConfig{DriftThreshold: 1e9, FullEvery: 2})
	if _, err := st.AppendTable(incrBatch(t, 0, 1200, 0, 9)); err != nil {
		t.Fatal(err)
	}
	wantFull := []bool{true, false, true, false, true}
	for i, want := range wantFull {
		if i > 0 {
			if _, err := st.AppendTable(incrBatch(t, 1200+60*i, 1260+60*i, 0, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		pub, err := live.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if pub.Incremental == want {
			t.Fatalf("refresh %d: incremental = %v, want full = %v", i, pub.Incremental, want)
		}
	}
	if live.FullRefreshes() != 3 || live.IncrementalRefreshes() != 2 {
		t.Fatalf("refresh split = %d full / %d incremental, want 3/2",
			live.FullRefreshes(), live.IncrementalRefreshes())
	}
}

// TestIncrementalStress interleaves ingestion, refreshes and query/read
// traffic against the incremental path; run with -race this is the data
// safety net for the lineage's zero-copy sharing.
func TestIncrementalStress(t *testing.T) {
	st, live := incrLive(t, IncrementalConfig{DriftThreshold: 1e9, FullEvery: 4})
	if _, err := st.AppendTable(incrBatch(t, 0, 600, 0, 13)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // ingester
		defer wg.Done()
		next := 600
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.AppendTable(incrBatch(t, next, next+40, 0, int64(i))); err != nil {
				t.Error(err)
				return
			}
			next += 40
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // refresher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := live.Refresh(); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	q := query.MustParse("ua in [0, 1]")
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // readers: published analysis + snapshot queries
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pub := live.Current()
				if pub == nil {
					continue
				}
				if pub.Analysis != nil {
					if got := len(pub.Analysis.RowLabels); got != pub.Engine.NumRows() {
						t.Errorf("labels %d vs rows %d", got, pub.Engine.NumRows())
						return
					}
				}
				if _, _, err := pub.Snapshot.Query(q, 2); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if live.IncrementalRefreshes() == 0 {
		t.Fatal("stress run never took the incremental path")
	}
}
