package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"indice/internal/geocode"
	"indice/internal/parallel"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// mustMatchTables fails the test unless the two tables hold the same
// schema, validity and cells, floats compared by bit pattern (NULL floats
// are NaN).
func mustMatchTables(t *testing.T, label string, got, want *table.Table) {
	t.Helper()
	if !reflect.DeepEqual(got.Schema(), want.Schema()) || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: shape differs: %d rows x %d columns, want %d x %d", label,
			got.NumRows(), len(got.Schema()), want.NumRows(), len(want.Schema()))
	}
	for _, f := range want.Schema() {
		gv, _ := got.ValidMask(f.Name)
		wv, _ := want.ValidMask(f.Name)
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: column %q: validity differs", label, f.Name)
		}
		if f.Type == table.Float64 {
			gf, _ := got.Floats(f.Name)
			wf, _ := want.Floats(f.Name)
			for i := range wf {
				if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
					t.Fatalf("%s: column %q row %d: %v, want %v", label, f.Name, i, gf[i], wf[i])
				}
			}
			continue
		}
		gs, _ := got.Strings(f.Name)
		ws, _ := want.Strings(f.Name)
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s: column %q differs", label, f.Name)
		}
	}
}

// TestOutlierRowsSortedAndDistinct pins the union of the univariate and
// multivariate screens: ascending and duplicate-free although the two
// screens flag overlapping rows.
func TestOutlierRowsSortedAndDistinct(t *testing.T) {
	eng := engineFor(t, 1500, true)
	cfg := DefaultPreprocessConfig()
	cfg.SkipCleaning = true
	cfg.Multivariate = true
	rep, err := eng.Preprocess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	univariate := map[int]bool{}
	for _, res := range rep.Univariate {
		for _, r := range res.Rows {
			univariate[r] = true
		}
	}
	overlap := 0
	for _, r := range rep.Multivariate.Rows {
		if univariate[r] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatalf("the screens flag disjoint rows (%d univariate, %d multivariate): the test needs an overlap",
			len(univariate), len(rep.Multivariate.Rows))
	}
	if want := len(univariate) + len(rep.Multivariate.Rows) - overlap; len(rep.OutlierRows) != want {
		t.Fatalf("union holds %d rows, want %d", len(rep.OutlierRows), want)
	}
	if !slices.IsSorted(rep.OutlierRows) {
		t.Fatalf("outlier rows not ascending: %v", rep.OutlierRows)
	}
	if len(slices.Compact(slices.Clone(rep.OutlierRows))) != len(rep.OutlierRows) {
		t.Fatalf("outlier rows repeat: %v", rep.OutlierRows)
	}
}

// coldLive builds a store holding the first base rows of a corrupted
// corpus and a Live wired like cmd/indice-server's buildLive (default
// tiers, street map, mock geocoder with a 2000-request quota), optionally
// without the cleaning step. The rest of the corpus comes back for deltas.
func coldLive(t *testing.T, certs, base int, corrupt, clean bool, workers int) (*store.Store, *Live, *table.Table) {
	t.Helper()
	ds, sm, _ := world(t, certs)
	tab := ds.Table
	if corrupt {
		dirty, _, err := synth.Corrupt(tab, synth.DefaultCorruptionConfig())
		if err != nil {
			t.Fatal(err)
		}
		tab = dirty
	}
	scfg := store.DefaultConfig()
	scfg.Shards = 4
	st, err := store.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	head, err := tab.Slice(0, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(head); err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPreprocessConfig()
	pcfg.Parallelism = workers
	acfg := DefaultAnalysisConfig()
	acfg.KMax = 10
	acfg.Parallelism = workers
	var opts Options
	if clean {
		opts = Options{StreetMap: sm, Geocoder: geocode.NewMockGeocoder(sm, 2000)}
	}
	live, err := NewLive(st, ds.City.Hierarchy, LiveConfig{Preprocess: pcfg, Analysis: acfg, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return st, live, tab
}

// TestColdRefreshNeverTouchesSnapshotTable pins the ownership rule: the
// cold refresh cleans its own materialization of the snapshot in place,
// and the incremental refreshes append deltas to the lineage's copies cut
// out of it — neither ever writes a cell the published snapshot (a view of
// the store's tails) can read.
func TestColdRefreshNeverTouchesSnapshotTable(t *testing.T) {
	for _, clean := range []bool{true, false} {
		st, live, corpus := coldLive(t, 2400, 2000, true, clean, parallel.Auto)
		// The corrupted corpus plants extreme values, so a 200-row delta
		// can move a standard deviation past the drift gate; this test is
		// about aliasing, not about when the fast path yields.
		live.cfg.Incremental.DriftThreshold = math.Inf(1)
		// An independent snapshot of the same epoch materializes its own
		// table: what the published snapshot's table must stay equal to.
		before, err := st.Snapshot().Table()
		if err != nil {
			t.Fatal(err)
		}
		first, err := live.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if first.Incremental || (first.Report.Cleaning != nil) != clean {
			t.Fatalf("clean=%v: first refresh incremental=%v cleaning=%v", clean, first.Incremental, first.Report.Cleaning != nil)
		}
		if clean && first.Report.Cleaning.StreetMap == 0 {
			t.Fatal("cleaning repaired no address: the corpus holds no typos")
		}
		for lo := 2000; lo < 2400; lo += 200 {
			delta, err := corpus.Slice(lo, lo+200)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.AppendTable(delta); err != nil {
				t.Fatal(err)
			}
			pub, err := live.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if !pub.Incremental || pub.DeltaRows != 200 {
				t.Fatalf("clean=%v: refresh at %d rows: incremental=%v delta=%d (%s)", clean, lo+200, pub.Incremental, pub.DeltaRows, live.LastIncrementalError())
			}
		}
		after, err := first.Snapshot.Table()
		if err != nil {
			t.Fatal(err)
		}
		mustMatchTables(t, "first snapshot's table", after, before)
		scan, err := first.Snapshot.FullScan(nil)
		if err != nil {
			t.Fatal(err)
		}
		if scan.NumRows() != 2000 || first.Snapshot.NumRows() != 2000 {
			t.Fatalf("clean=%v: full scan of the first snapshot returns %d rows, want 2000", clean, scan.NumRows())
		}
	}
}

// TestColdRefreshParallelEquivalence runs the server's cold refresh at
// Parallelism 1 and at parallel.Auto: the report (cleaning included), the
// cleaned table and the analysis must not depend on the worker count.
func TestColdRefreshParallelEquivalence(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		_, seqLive, _ := coldLive(t, 3000, 3000, corrupt, true, 1)
		seq, err := seqLive.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		_, parLive, _ := coldLive(t, 3000, 3000, corrupt, true, parallel.Auto)
		par, err := parLive.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		mustMatchTables(t, "published table", par.Engine.Decode(), seq.Engine.Decode())
		mustMatchAnalyses(t, "cold refresh", par.Analysis, seq.Analysis)
		// What the lineage cut out of the pre-drop table, compared bitwise
		// (NULL floats are NaN, which DeepEqual never equates).
		pl, sl := parLive.lineage, seqLive.lineage
		mustMatchTables(t, "lineage screen", pl.screen, sl.screen)
		mustMatchTables(t, "lineage dropped rows", pl.dropped.Decode(), sl.dropped.Decode())
		if !slices.Equal(pl.droppedAt, sl.droppedAt) || len(pl.droppedAt) != pl.dropped.NumRows() {
			t.Fatalf("corrupt=%v: dropped rows at %v, want %v", corrupt, pl.droppedAt, sl.droppedAt)
		}
		if !reflect.DeepEqual(par.Report, seq.Report) {
			t.Fatalf("corrupt=%v: report differs between Parallelism 1 and parallel.Auto", corrupt)
		}
		if !corrupt {
			// No NULL cell anywhere, so the analysis can be compared
			// structurally too.
			if !reflect.DeepEqual(par.Analysis, seq.Analysis) {
				t.Fatal("registry corpus: analysis differs between Parallelism 1 and parallel.Auto")
			}
			continue
		}
		if c := par.Report.Cleaning; c.StreetMap == 0 || c.GeocoderRequests == 0 {
			t.Fatalf("corrupted corpus exercised neither repair path: %+v", c)
		}
	}
}

// TestFullRefreshIsTheBatchPipeline pins the one data road: a full
// refresh runs the data step over the whole snapshot from an empty
// lineage, then Analyze, and must publish what the batch pipeline —
// NewEngine, Preprocess, Analyze — makes of the same snapshot's table,
// cleaning included: the served table bit for bit, the report and the
// analysis. It holds for the first refresh and for the one FullEvery
// forces after incremental refreshes, on the clean and the corrupted
// corpus.
func TestFullRefreshIsTheBatchPipeline(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		st, live, corpus := coldLive(t, 2300, 2000, corrupt, true, parallel.Auto)
		// The corrupted corpus plants extreme values that can move a
		// standard deviation past the drift gate on a small delta; here
		// FullEvery alone decides when a refresh is full.
		live.cfg.Incremental.DriftThreshold = math.Inf(1)
		live.cfg.Incremental.FullEvery = 3
		sm := live.cfg.Options.StreetMap
		wantFull := []bool{true, false, false, true}
		for i, full := range wantFull {
			if i > 0 {
				delta, err := corpus.Slice(1900+100*i, 2000+100*i)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.AppendTable(delta); err != nil {
					t.Fatal(err)
				}
			}
			pub, err := live.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("corrupt=%v refresh %d", corrupt, i)
			if pub.Incremental == full {
				t.Fatalf("%s: incremental=%v, want full=%v (%s)", label, pub.Incremental, full, live.LastIncrementalError())
			}
			if !full {
				continue
			}
			var cols []string
			for _, f := range live.schema {
				cols = append(cols, f.Name)
			}
			all, err := pub.Snapshot.Table()
			if err != nil {
				t.Fatal(err)
			}
			tab, err := all.Select(cols...)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(tab, live.hier, Options{StreetMap: sm, Geocoder: geocode.NewMockGeocoder(sm, 2000)})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Preprocess(live.cfg.Preprocess)
			if err != nil {
				t.Fatal(err)
			}
			an, err := eng.Analyze(live.cfg.Analysis)
			if err != nil {
				t.Fatal(err)
			}
			mustMatchTables(t, label+": served table", pub.Engine.Decode(), eng.Decode())
			if !reflect.DeepEqual(pub.Report, rep) {
				t.Fatalf("%s: report %d → %d rows, %d flagged; batch %d → %d, %d flagged", label,
					pub.Report.RowsBefore, pub.Report.RowsAfter, len(pub.Report.OutlierRows),
					rep.RowsBefore, rep.RowsAfter, len(rep.OutlierRows))
			}
			mustMatchAnalyses(t, label, pub.Analysis, an)
			if corrupt && (rep.Cleaning.StreetMap == 0 || rep.Cleaning.GeocoderRequests == 0) {
				t.Fatalf("%s: the corrupted corpus exercised neither repair path: %+v", label, rep.Cleaning)
			}
		}
	}
}
