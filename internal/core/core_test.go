package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"indice/internal/epc"
	"indice/internal/geocode"
	"indice/internal/outlier"
	"indice/internal/query"
	"indice/internal/synth"
	"indice/internal/table"
)

// world builds a compact synthetic universe for pipeline tests.
func world(t testing.TB, certs int) (*synth.Dataset, *geocode.StreetMap, geocode.Geocoder) {
	t.Helper()
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 60, 12
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = certs
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		t.Fatal(err)
	}
	return ds, sm, geocode.NewMockGeocoder(sm, 2000)
}

func engineFor(t testing.TB, certs int, corrupt bool) *Engine {
	t.Helper()
	ds, sm, gc := world(t, certs)
	tab := ds.Table
	if corrupt {
		dirty, _, err := synth.Corrupt(tab, synth.DefaultCorruptionConfig())
		if err != nil {
			t.Fatal(err)
		}
		tab = dirty
	}
	eng, err := NewEngine(tab, ds.City.Hierarchy, Options{StreetMap: sm, Geocoder: gc})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineDecodesTheColumnsNamed pins the engine's read API over its
// encoded table: the named columns in the order given, bitwise the table
// it was built from, names it lacks and repeats skipped; every column when
// none is named; row count and column types without a decode.
func TestEngineDecodesTheColumnsNamed(t *testing.T) {
	ds, _, _ := world(t, 300)
	eng, err := NewEngine(ds.Table, ds.City.Hierarchy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Table(epc.AttrEnergyClass, "no_such_column", epc.AttrEPH, epc.AttrEnergyClass)
	want, err := ds.Table.Select(epc.AttrEnergyClass, epc.AttrEPH)
	if err != nil {
		t.Fatal(err)
	}
	mustMatchTables(t, "named columns", got, want)
	mustMatchTables(t, "every column", eng.Decode(), ds.Table)
	mustMatchTables(t, "no names", eng.Table(), ds.Table)
	if eng.NumRows() != ds.Table.NumRows() {
		t.Fatalf("NumRows = %d, want %d", eng.NumRows(), ds.Table.NumRows())
	}
	for name, typ := range map[string]table.Type{epc.AttrEPH: table.Float64, epc.AttrEnergyClass: table.String} {
		if got, err := eng.TypeOf(name); err != nil || got != typ {
			t.Fatalf("TypeOf(%q) = %v, %v; want %v", name, got, err, typ)
		}
	}
	if _, err := eng.TypeOf("no_such_column"); !errors.Is(err, table.ErrNoColumn) {
		t.Fatalf("TypeOf of a missing column: %v, want ErrNoColumn", err)
	}
}

func TestNewEngineValidation(t *testing.T) {
	ds, _, _ := world(t, 50)
	if _, err := NewEngine(nil, ds.City.Hierarchy, Options{}); err == nil {
		t.Fatal("want error for nil table")
	}
	if _, err := NewEngine(table.New(), ds.City.Hierarchy, Options{}); err == nil {
		t.Fatal("want error for empty table")
	}
	if _, err := NewEngine(ds.Table, nil, Options{}); err == nil {
		t.Fatal("want error for nil hierarchy")
	}
	bad := table.New()
	if err := bad.AddFloats("x", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(bad, ds.City.Hierarchy, Options{}); err == nil {
		t.Fatal("want error for missing required attributes")
	}
}

func TestSelect(t *testing.T) {
	eng := engineFor(t, 400, false)
	before := eng.NumRows()
	n, err := eng.Select(query.Residential())
	if err != nil {
		t.Fatal(err)
	}
	if n >= before || n != eng.NumRows() {
		t.Fatalf("selection: %d of %d", n, before)
	}
	uses, _ := eng.Decode().Strings(epc.AttrIntendedUse)
	for _, u := range uses {
		if u != epc.UseResidential {
			t.Fatalf("non-residential row survived: %q", u)
		}
	}
	if _, err := eng.Select(query.InCity("Atlantis")); err == nil {
		t.Fatal("want error for empty selection")
	}
}

func TestPreprocessPipeline(t *testing.T) {
	eng := engineFor(t, 800, true)
	rep, err := eng.Preprocess(DefaultPreprocessConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cleaning == nil {
		t.Fatal("cleaning skipped despite street map")
	}
	if rep.Cleaning.Unresolved > rep.Rows()/10 {
		t.Fatalf("unresolved = %d", rep.Cleaning.Unresolved)
	}
	if rep.UnivariateMethod != outlier.MethodMAD {
		t.Fatalf("method = %v", rep.UnivariateMethod)
	}
	if len(rep.OutlierRows) == 0 {
		t.Fatal("no outliers found despite corruption")
	}
	if rep.RowsAfter != rep.RowsBefore-len(rep.OutlierRows) {
		t.Fatalf("rows: %d -> %d with %d outliers", rep.RowsBefore, rep.RowsAfter, len(rep.OutlierRows))
	}
	if eng.NumRows() != rep.RowsAfter {
		t.Fatal("engine table not replaced")
	}
	// Expert run recorded configurations for future suggestion.
	if eng.suggestions.Len() == 0 {
		t.Fatal("expert configurations not recorded")
	}
}

func TestPreprocessSuggestionPath(t *testing.T) {
	eng := engineFor(t, 300, false)
	// Seed the store with an expert gESD preference.
	cfg := outlier.DefaultConfig(outlier.MethodGESD)
	cfg.GESDMaxOutliers = 10
	eng.suggestions.Record(outlier.UsageRecord{Attr: epc.AttrAspectRatio, Config: cfg, Expert: true})

	pcfg := DefaultPreprocessConfig()
	pcfg.SkipCleaning = true
	pcfg.Univariate = outlier.Config{} // non-expert: no method chosen
	rep, err := eng.Preprocess(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Suggested {
		t.Fatal("suggestion not used")
	}
	if rep.UnivariateMethod != outlier.MethodGESD {
		t.Fatalf("suggested method = %v, want expert's gESD", rep.UnivariateMethod)
	}
}

func TestPreprocessMultivariate(t *testing.T) {
	eng := engineFor(t, 600, true)
	cfg := DefaultPreprocessConfig()
	cfg.SkipCleaning = true
	cfg.Multivariate = true
	rep, err := eng.Preprocess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Multivariate == nil {
		t.Fatal("multivariate screen skipped")
	}
	if rep.Multivariate.Eps <= 0 || rep.Multivariate.MinPts < 1 {
		t.Fatalf("multivariate params = %+v", rep.Multivariate)
	}
}

func TestAnalyzeCaseStudy(t *testing.T) {
	eng := engineFor(t, 2500, false)
	if _, err := eng.Select(query.Residential()); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAnalysisConfig()
	cfg.KMax = 8
	an, err := eng.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3 shape: weakly correlated predictors.
	if !an.WeaklyCorrelated {
		t.Fatalf("predictors strongly correlated: max|r| = %v", an.Correlations.MaxAbsOffDiagonal())
	}
	// Elbow-chosen K within the sweep.
	if an.ChosenK < cfg.KMin || an.ChosenK > cfg.KMax {
		t.Fatalf("chosen K = %d", an.ChosenK)
	}
	if len(an.SSECurve) != cfg.KMax-cfg.KMin+1 {
		t.Fatalf("curve = %d points", len(an.SSECurve))
	}
	// Every complete row labelled.
	labelled := 0
	for _, l := range an.RowLabels {
		if l >= 0 {
			labelled++
		}
	}
	if labelled == 0 {
		t.Fatal("no rows labelled")
	}
	if len(an.ClusterResponseMeans) != an.ChosenK {
		t.Fatalf("cluster means = %d", len(an.ClusterResponseMeans))
	}
	// Discretizations exist for the five attributes plus the response.
	if len(an.Binnings) != len(cfg.Attributes)+1 {
		t.Fatalf("binnings = %d", len(an.Binnings))
	}
	for attr, b := range an.Binnings {
		if b.Classes() < 2 {
			t.Fatalf("%s: %d classes", attr, b.Classes())
		}
	}
	// Rules found, with quality constraints honoured.
	if len(an.Rules) == 0 {
		t.Fatal("no rules mined")
	}
	for _, r := range an.Rules {
		if r.Confidence < cfg.MinConfidence || r.Lift < cfg.MinLift {
			t.Fatalf("rule violates constraints: %v", r)
		}
	}
}

func TestAnalyzeTooFewRows(t *testing.T) {
	eng := engineFor(t, 300, false)
	cfg := DefaultAnalysisConfig()
	cfg.KMax = 301
	if _, err := eng.Analyze(cfg); err == nil {
		t.Fatal("want error when rows < KMax")
	}
}

func TestDashboardPerStakeholder(t *testing.T) {
	eng := engineFor(t, 1500, false)
	cfg := DefaultAnalysisConfig()
	cfg.KMax = 6
	an, err := eng.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []query.Stakeholder{query.Citizen, query.PublicAdministration, query.EnergyScientist} {
		html, err := eng.Dashboard(s, an)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !strings.Contains(html, "<!DOCTYPE html>") {
			t.Fatalf("%s: not a document", s)
		}
		if !strings.Contains(html, string(s)) {
			t.Fatalf("%s: title missing", s)
		}
		if !strings.Contains(html, "<svg") {
			t.Fatalf("%s: no panels", s)
		}
	}
	// PA dashboard must include the analytic panels.
	html, _ := eng.Dashboard(query.PublicAdministration, an)
	for _, want := range []string{"Correlation matrix", "Cluster analysis", "Association rules", "Cluster-marker maps"} {
		if !strings.Contains(html, want) {
			t.Fatalf("PA dashboard missing %q", want)
		}
	}
}

func TestDashboardRequiresAnalysis(t *testing.T) {
	eng := engineFor(t, 400, false)
	if _, err := eng.Dashboard(query.PublicAdministration, nil); err == nil {
		t.Fatal("PA dashboard without analysis should fail")
	}
	// The citizen dashboard has no analytic panel and works without one.
	if _, err := eng.Dashboard(query.Citizen, nil); err != nil {
		t.Fatalf("citizen dashboard: %v", err)
	}
}

func TestDashboardUnknownStakeholder(t *testing.T) {
	eng := engineFor(t, 300, false)
	if _, err := eng.Dashboard(query.Stakeholder("alien"), nil); err == nil {
		t.Fatal("want error for unknown stakeholder")
	}
}

// Rows is a helper for tests: total rows the cleaning saw.
func (r *PreprocessReport) Rows() int { return r.RowsBefore }

func BenchmarkFullPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := engineFor(b, 2000, true)
		b.StartTimer()
		if _, err := eng.Preprocess(DefaultPreprocessConfig()); err != nil {
			b.Fatal(err)
		}
		cfg := DefaultAnalysisConfig()
		cfg.KMax = 6
		an, err := eng.Analyze(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Dashboard(query.PublicAdministration, an); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPipelineDeterministic(t *testing.T) {
	// Two identical engines over the same data must produce byte-identical
	// dashboards: the whole pipeline is seed-driven with no map-iteration
	// leakage into the output.
	build := func() string {
		eng := engineFor(t, 800, true)
		if _, err := eng.Preprocess(DefaultPreprocessConfig()); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultAnalysisConfig()
		cfg.KMax = 6
		an, err := eng.Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		html, err := eng.Dashboard(query.PublicAdministration, an)
		if err != nil {
			t.Fatal(err)
		}
		return html
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("dashboards differ across identical runs (%d vs %d bytes)", len(a), len(b))
	}
}

func TestPreprocessZeroQuotaGeocoder(t *testing.T) {
	// Failure injection: a geocoder with no budget degrades gracefully —
	// rows below phi stay unresolved but the pipeline completes.
	ds, sm, _ := world(t, 600)
	dirty, _, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dirty, ds.City.Hierarchy, Options{
		StreetMap: sm,
		Geocoder:  geocode.NewMockGeocoder(sm, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPreprocessConfig()
	cfg.Clean.Phi = 0.95 // strict: many rows need the dead fallback
	rep, err := eng.Preprocess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cleaning.Geocoded != 0 {
		t.Fatalf("geocoded = %d with zero quota", rep.Cleaning.Geocoded)
	}
	if rep.Cleaning.Unresolved == 0 {
		t.Fatal("expected unresolved rows with a dead geocoder and strict phi")
	}
	// The rest of the pipeline still works on the partially-cleaned data.
	acfg := DefaultAnalysisConfig()
	acfg.KMax = 6
	if _, err := eng.Analyze(acfg); err != nil {
		t.Fatal(err)
	}
}

func TestReport(t *testing.T) {
	eng := engineFor(t, 800, true)
	pre, err := eng.Preprocess(DefaultPreprocessConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAnalysisConfig()
	cfg.KMax = 6
	an, err := eng.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Report(pre, an)
	for _, want := range []string{
		"# INDICE run report",
		"## Pre-processing",
		"geospatial cleaning:",
		"univariate outlier screen: mad",
		"## Analytics",
		"elbow K =",
		"association rules:",
		"## Energy demand by district",
		"District 1",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// Nil sections are omitted cleanly.
	short := eng.Report(nil, nil)
	if strings.Contains(short, "## Pre-processing") || strings.Contains(short, "## Analytics") {
		t.Fatal("nil sections rendered")
	}
	if !strings.Contains(short, "# INDICE run report") {
		t.Fatal("header missing")
	}
}

// TestAnalyzeZeroConfigIsTheDefault pins one default table: an empty
// AnalysisConfig runs the paper's analysis, rule thresholds, seed, extra
// rule attributes and CART depth included.
func TestAnalyzeZeroConfigIsTheDefault(t *testing.T) {
	eng := engineFor(t, 600, false)
	want, err := eng.Analyze(DefaultAnalysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Analyze(AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze(AnalysisConfig{}) differs from Analyze(DefaultAnalysisConfig()): K %d vs %d, %d vs %d rules",
			got.ChosenK, want.ChosenK, len(got.Rules), len(want.Rules))
	}
}
