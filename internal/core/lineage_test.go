package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"indice/internal/epc"
	"indice/internal/parallel"
	"indice/internal/table"
)

// latBatch is incrBatch with the latitude of row i set by lat: the
// attribute the fence tests screen besides the clustering ones. It is
// uniform on [0, 1] in incrBatch, so its MAD fences sit where lat puts
// them and nothing else moves them.
func latBatch(t *testing.T, lo, hi int, seed int64, lat func(rng *rand.Rand, i int) float64) *table.Table {
	t.Helper()
	tab := incrBatch(t, lo, hi, 0, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := lo; i < hi; i++ {
		if err := tab.SetFloat(epc.AttrLatitude, i-lo, lat(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// latUniform spreads latitudes uniformly over [lo, hi).
func latUniform(lo, hi float64) func(*rand.Rand, int) float64 {
	return func(rng *rand.Rand, _ int) float64 { return lo + (hi-lo)*rng.Float64() }
}

// latLadder is uniform on [0, 1] except every 40th row, which sits on a
// rung of a ladder over [1.5, 2.1): rows just inside and just outside the
// upper fence of a uniform latitude, wherever a delta moves it.
func latLadder(rng *rand.Rand, i int) float64 {
	if i%40 == 0 {
		return 1.5 + 0.6*float64(i/40%30)/30
	}
	return rng.Float64()
}

// oracleLineage is the incremental lineage as it was while it kept the
// whole post-clean, pre-drop table: every delta appended to it
// (AppendTable), the serving table filtered out of it (FilterMask) every
// epoch. It replays refreshIncremental over that table.
type oracleLineage struct {
	raw *table.Table
	an  *Analysis
}

// newOracleLineage starts the oracle from a cold publication of a live
// loop that does not clean: its pre-drop table is the snapshot's
// materialization.
func newOracleLineage(t *testing.T, pub *Published) *oracleLineage {
	t.Helper()
	raw, err := pub.Snapshot.Table()
	if err != nil {
		t.Fatal(err)
	}
	return &oracleLineage{raw: raw, an: pub.Analysis}
}

// refresh replays the incremental refresh that published pub, whose
// predecessor was published at epoch since, and returns its serving table,
// report and analysis.
func (o *oracleLineage) refresh(t *testing.T, l *Live, pub *Published, since uint64) (*table.Table, *PreprocessReport, *Analysis) {
	t.Helper()
	delta, ok := pub.Snapshot.DeltaSince(since)
	if !ok {
		t.Fatalf("no delta from epoch %d", since)
	}
	deltaTab, err := table.NewWithSchema(o.raw.Schema())
	if err == nil {
		err = delta.AppendTo(deltaTab)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := o.raw.AppendTable(deltaTab); err != nil {
		t.Fatal(err)
	}

	pcfg := l.cfg.Preprocess
	rep := &PreprocessReport{RowsBefore: o.raw.NumRows()}
	union, err := univariateScreen(o.raw, pcfg, pcfg.Univariate, rep)
	if err != nil {
		t.Fatal(err)
	}
	rep.OutlierRows = union
	keep := make([]bool, o.raw.NumRows())
	for i := range keep {
		keep[i] = true
	}
	if pcfg.DropOutliers {
		for _, r := range union {
			keep[r] = false
		}
	}
	tab, err := o.raw.FilterMask(keep)
	if err != nil {
		t.Fatal(err)
	}
	rep.RowsAfter = tab.NumRows()
	eng, err := NewEngine(tab, l.hier, l.cfg.Options)
	if err != nil {
		t.Fatal(err)
	}
	an, err := analyzeIncremental(eng, l.cfg.Analysis, o.an)
	if err != nil {
		t.Fatal(err)
	}
	o.an = an
	return tab, rep, an
}

// servedIDs is the set of certificates a published state serves.
func servedIDs(t *testing.T, pub *Published) map[string]bool {
	t.Helper()
	ids, err := pub.Engine.Table().Strings(epc.AttrCertificateID)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// TestLineageFollowsMovingFences drives a live loop through incremental
// rounds whose deltas move the MAD fences of the latitude screen out and
// in again, so that rows dropped at an earlier epoch are re-admitted and
// rows kept at an earlier epoch are dropped. Every round, the serving
// table, the report and the analysis must equal, bit for bit, what the
// lineage that kept the whole pre-drop table publishes.
func TestLineageFollowsMovingFences(t *testing.T) {
	rounds := []struct {
		rows int
		lat  func(*rand.Rand, int) float64
	}{
		{300, latUniform(0, 1.6)},      // wider: the upper fence moves out
		{900, latUniform(0.45, 0.55)},  // narrower: it moves in past the ladder
		{900, latUniform(-0.8, 2.2)},   // wider again
		{1200, latUniform(0.48, 0.52)}, // and in again
		{200, latLadder},
		{150, latUniform(0, 1)},
	}
	for _, dropOutliers := range []bool{true, false} {
		for _, workers := range []int{1, parallel.Auto} {
			label := fmt.Sprintf("DropOutliers=%v Parallelism=%d", dropOutliers, workers)
			st, live := incrLive(t, IncrementalConfig{DriftThreshold: 1e9, FullEvery: 1 << 30})
			live.cfg.Preprocess.OutlierAttrs = append(slices.Clone(incrAttrs), epc.AttrLatitude)
			live.cfg.Preprocess.DropOutliers = dropOutliers
			live.cfg.Preprocess.Parallelism = workers
			live.cfg.Analysis.Parallelism = workers

			if _, err := st.AppendTable(latBatch(t, 0, 1200, 21, latLadder)); err != nil {
				t.Fatal(err)
			}
			pub, err := live.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			oracle := newOracleLineage(t, pub)
			served := servedIDs(t, pub)
			readmitted, newlyDropped := 0, 0
			next := 1200
			for r, round := range rounds {
				if _, err := st.AppendTable(latBatch(t, next, next+round.rows, int64(40+r), round.lat)); err != nil {
					t.Fatal(err)
				}
				next += round.rows
				since := pub.Epoch
				wasServed, had := served, pub.Snapshot.NumRows()
				if pub, err = live.Refresh(); err != nil {
					t.Fatal(err)
				}
				if !pub.Incremental {
					t.Fatalf("%s round %d: fast path not taken (%s)", label, r, live.LastIncrementalError())
				}
				tab, rep, an := oracle.refresh(t, live, pub, since)

				var got, want bytes.Buffer
				if err := pub.Engine.Table().WriteCSV(&got); err != nil {
					t.Fatal(err)
				}
				if err := tab.WriteCSV(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s round %d: serving table (%d rows) differs from the oracle's (%d rows)",
						label, r, pub.Engine.Table().NumRows(), tab.NumRows())
				}
				if !reflect.DeepEqual(pub.Report, rep) {
					t.Fatalf("%s round %d: report %d → %d rows, %d flagged; oracle %d → %d, %d flagged", label, r,
						pub.Report.RowsBefore, pub.Report.RowsAfter, len(pub.Report.OutlierRows),
						rep.RowsBefore, rep.RowsAfter, len(rep.OutlierRows))
				}
				mustMatchAnalyses(t, fmt.Sprintf("%s round %d", label, r), pub.Analysis, an)
				if !bitsEqual(pub.Analysis.NormMins, an.NormMins) || !bitsEqual(pub.Analysis.NormMaxs, an.NormMaxs) ||
					!reflect.DeepEqual(pub.Analysis, an) {
					t.Fatalf("%s round %d: analysis differs from the oracle's", label, r)
				}

				served = servedIDs(t, pub)
				for i := 0; i < had; i++ {
					id := fmt.Sprintf("cert-%06d", i)
					switch {
					case served[id] && !wasServed[id]:
						readmitted++
					case !served[id] && wasServed[id]:
						newlyDropped++
					}
				}
				if !dropOutliers && len(served) != pub.Snapshot.NumRows() {
					t.Fatalf("%s round %d: %d of %d rows served without dropping", label, r, len(served), pub.Snapshot.NumRows())
				}
			}
			t.Logf("%s: %d re-admissions, %d new drops of earlier rows over %d rounds", label, readmitted, newlyDropped, len(rounds))
			if dropOutliers && (readmitted == 0 || newlyDropped == 0) {
				t.Fatalf("%s: the fences never moved both ways (%d re-admitted, %d newly dropped)", label, readmitted, newlyDropped)
			}
		}
	}
}
