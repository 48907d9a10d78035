package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"indice/internal/epc"
	"indice/internal/parallel"
	"indice/internal/table"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// mustMatchClusterings fails the test unless the two analyses hold the
// same final clustering, bit for bit, spread over the same rows.
func mustMatchClusterings(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	gc, wc := got.Clustering, want.Clustering
	if gc.K != wc.K || gc.Iterations != wc.Iterations || math.Float64bits(gc.SSE) != math.Float64bits(wc.SSE) {
		t.Fatalf("%s: clustering has K %d, %d iterations, SSE %v; want K %d, %d iterations, SSE %v",
			label, gc.K, gc.Iterations, gc.SSE, wc.K, wc.Iterations, wc.SSE)
	}
	for c := range wc.Centroids {
		if !bitsEqual(gc.Centroids[c], wc.Centroids[c]) {
			t.Fatalf("%s: centroid %d = %v, want %v", label, c, gc.Centroids[c], wc.Centroids[c])
		}
	}
	if !slices.Equal(gc.Labels, wc.Labels) || !slices.Equal(gc.Sizes, wc.Sizes) {
		t.Fatalf("%s: Clustering.Labels or Sizes diverge", label)
	}
	if !slices.Equal(got.RowLabels, want.RowLabels) {
		t.Fatalf("%s: RowLabels diverge", label)
	}
	if !bitsEqual(got.ClusterResponseMeans, want.ClusterResponseMeans) {
		t.Fatalf("%s: ClusterResponseMeans = %v, want %v", label, got.ClusterResponseMeans, want.ClusterResponseMeans)
	}
}

// mustMatchAnalyses fails the test unless the two analyses are
// bitwise-identical (NaN-aware) in every reported field.
func mustMatchAnalyses(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	fail := func(field string) {
		t.Fatalf("%s: Analysis.%s diverges from the sequential run", label, field)
	}
	if fmt.Sprint(got.Attributes) != fmt.Sprint(want.Attributes) || got.Response != want.Response {
		fail("Attributes/Response")
	}
	if got.WeaklyCorrelated != want.WeaklyCorrelated {
		fail("WeaklyCorrelated")
	}
	if len(got.Correlations.Coef) != len(want.Correlations.Coef) {
		fail("Correlations")
	}
	for i := range want.Correlations.Coef {
		if !bitsEqual(got.Correlations.Coef[i], want.Correlations.Coef[i]) {
			fail("Correlations")
		}
	}
	if len(got.SSECurve) != len(want.SSECurve) {
		fail("SSECurve")
	}
	for i := range want.SSECurve {
		if got.SSECurve[i].K != want.SSECurve[i].K ||
			math.Float64bits(got.SSECurve[i].SSE) != math.Float64bits(want.SSECurve[i].SSE) {
			fail("SSECurve")
		}
	}
	if got.ChosenK != want.ChosenK {
		fail("ChosenK")
	}
	mustMatchClusterings(t, label, got, want)
	if len(got.Binnings) != len(want.Binnings) {
		fail("Binnings")
	}
	for attr, wb := range want.Binnings {
		gb, ok := got.Binnings[attr]
		if !ok || gb.String() != wb.String() {
			fail("Binnings[" + attr + "]")
		}
	}
	if len(got.Rules) != len(want.Rules) {
		fail("Rules")
	}
	for i := range want.Rules {
		if got.Rules[i].String() != want.Rules[i].String() {
			fail("Rules")
		}
	}
}

// TestAnalyzeParallelEquivalence is the contract behind
// AnalysisConfig.Parallelism: Analyze at Parallelism N returns a
// bitwise-identical Analysis to Parallelism 1 on the same engine state.
func TestAnalyzeParallelEquivalence(t *testing.T) {
	eng := engineFor(t, 420, false)
	cfg := DefaultAnalysisConfig()
	cfg.KMax = 8
	cfg.Parallelism = 1
	want, err := eng.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, parallel.Auto} {
		cfg.Parallelism = p
		got, err := eng.Analyze(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		mustMatchAnalyses(t, fmt.Sprintf("parallelism %d", p), got, want)
	}
}

// TestPreprocessParallelEquivalence checks the pre-processing tier the
// same way: the flagged rows and surviving table are independent of the
// worker count.
func TestPreprocessParallelEquivalence(t *testing.T) {
	seq := engineFor(t, 300, false)
	scfg := DefaultPreprocessConfig()
	scfg.SkipCleaning = true
	scfg.Multivariate = true
	scfg.Parallelism = 1
	seqRep, err := seq.Preprocess(scfg)
	if err != nil {
		t.Fatal(err)
	}
	par := engineFor(t, 300, false)
	pcfg := scfg
	pcfg.Parallelism = 4
	parRep, err := par.Preprocess(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(parRep.OutlierRows) != fmt.Sprint(seqRep.OutlierRows) {
		t.Fatalf("flagged rows diverge: %v != %v", parRep.OutlierRows, seqRep.OutlierRows)
	}
	if parRep.RowsAfter != seqRep.RowsAfter {
		t.Fatalf("surviving rows diverge: %d != %d", parRep.RowsAfter, seqRep.RowsAfter)
	}
	if par.NumRows() != seq.NumRows() {
		t.Fatalf("table rows diverge: %d != %d", par.NumRows(), seq.NumRows())
	}
}

// TestNewEngineRejectsMissingEPCAttributes is the regression guard for
// the engine's schema validation: every required attribute must be
// individually enforced.
func TestNewEngineRejectsMissingEPCAttributes(t *testing.T) {
	ds, _, _ := world(t, 40)
	required := []string{epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH}
	for _, missing := range required {
		tab := table.New()
		n := ds.Table.NumRows()
		for _, attr := range required {
			if attr == missing {
				continue
			}
			vals, err := ds.Table.Floats(attr)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.AddFloats(attr, vals[:n]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := NewEngine(tab, ds.City.Hierarchy, Options{}); err == nil {
			t.Fatalf("NewEngine accepted a table missing %q", missing)
		}
	}
}
