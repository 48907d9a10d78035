package outlier

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"indice/internal/table"
)

// tableWith builds a single-column table holding xs under name "v".
func tableWith(t *testing.T, xs []float64) *table.Table {
	t.Helper()
	tab := table.New()
	if err := tab.AddFloats("v", xs); err != nil {
		t.Fatal(err)
	}
	return tab
}

// gaussianWithOutliers returns 200 N(0,1) values plus gross outliers at
// the end.
func gaussianWithOutliers(seed int64, outliers ...float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, 0, 200+len(outliers))
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.NormFloat64())
	}
	return append(xs, outliers...)
}

func TestDetectColumnBoxplot(t *testing.T) {
	xs := gaussianWithOutliers(1, 25, -30)
	tab := tableWith(t, xs)
	res, err := DetectColumn(tab, "v", DefaultConfig(MethodBoxplot))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != len(xs) {
		t.Fatalf("checked = %d", res.Checked)
	}
	if !containsAll(res.Rows, 200, 201) {
		t.Fatalf("boxplot missed planted outliers: %v", res.Rows)
	}
}

func TestDetectColumnGESD(t *testing.T) {
	xs := gaussianWithOutliers(2, 18, -22, 30)
	tab := tableWith(t, xs)
	cfg := DefaultConfig(MethodGESD)
	cfg.GESDMaxOutliers = 8
	res, err := DetectColumn(tab, "v", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(res.Rows, 200, 201, 202) {
		t.Fatalf("gESD missed planted outliers: %v", res.Rows)
	}
	if len(res.Rows) > 5 {
		t.Fatalf("gESD flagged too many: %v", res.Rows)
	}
}

func TestDetectColumnMAD(t *testing.T) {
	xs := gaussianWithOutliers(3, 40, -35)
	tab := tableWith(t, xs)
	res, err := DetectColumn(tab, "v", DefaultConfig(MethodMAD))
	if err != nil {
		t.Fatal(err)
	}
	if !containsAll(res.Rows, 200, 201) {
		t.Fatalf("MAD missed planted outliers: %v", res.Rows)
	}
}

func TestDetectColumnSkipsInvalid(t *testing.T) {
	xs := gaussianWithOutliers(4, 50)
	xs[10] = math.NaN()
	tab := tableWith(t, xs)
	res, err := DetectColumn(tab, "v", DefaultConfig(MethodMAD))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != len(xs)-1 {
		t.Fatalf("checked = %d, want %d", res.Checked, len(xs)-1)
	}
	for _, r := range res.Rows {
		if r == 10 {
			t.Fatal("invalid cell flagged")
		}
	}
}

func TestDetectColumnErrors(t *testing.T) {
	tab := tableWith(t, []float64{1, 2, 3})
	if _, err := DetectColumn(tab, "missing", DefaultConfig(MethodMAD)); err == nil {
		t.Fatal("want error for missing column")
	}
	if _, err := DetectColumn(tab, "v", Config{Method: "magic"}); err == nil {
		t.Fatal("want error for unknown method")
	}
}

func TestDetectColumnEmptyAndShort(t *testing.T) {
	tab := tableWith(t, []float64{math.NaN(), math.NaN()})
	res, err := DetectColumn(tab, "v", DefaultConfig(MethodMAD))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 0 || len(res.Rows) != 0 {
		t.Fatalf("res = %+v", res)
	}
	// gESD quietly reports nothing for fewer than 3 valid values.
	tab2 := tableWith(t, []float64{1, 2})
	res, err = DetectColumn(tab2, "v", DefaultConfig(MethodGESD))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDetectColumnsUnion(t *testing.T) {
	tab := table.New()
	a := gaussianWithOutliers(5, 60) // outlier at row 200
	b := gaussianWithOutliers(6, 0)  // same length, inlier tail
	b[7] = -45                       // outlier at row 7
	if err := tab.AddFloats("a", a); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("b", b); err != nil {
		t.Fatal(err)
	}
	results, union, err := DetectColumns(tab, []string{"a", "b"}, DefaultConfig(MethodMAD))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if !containsAll(union, 7, 200) {
		t.Fatalf("union = %v", union)
	}
	// Ascending order.
	for i := 1; i < len(union); i++ {
		if union[i] <= union[i-1] {
			t.Fatalf("union not sorted: %v", union)
		}
	}
	if _, _, err := DetectColumns(tab, nil, DefaultConfig(MethodMAD)); err == nil {
		t.Fatal("want error for no attributes")
	}
}

func TestRemoveRows(t *testing.T) {
	tab := tableWith(t, []float64{0, 1, 2, 3, 4})
	out, err := RemoveRows(tab, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := out.Floats("v")
	if len(vals) != 3 || vals[0] != 0 || vals[1] != 2 || vals[2] != 4 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestDetectMultivariate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 400
	a := make([]float64, n+3)
	b := make([]float64, n+3)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	// Jointly extreme rows: univariate-ish fine on each margin is hard to
	// plant, so use clearly separated noise points.
	a[n], b[n] = 30, 30
	a[n+1], b[n+1] = -25, 28
	a[n+2], b[n+2] = 28, -26
	tab := table.New()
	if err := tab.AddFloats("a", a); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("b", b); err != nil {
		t.Fatal(err)
	}
	res, err := DetectMultivariate(tab, []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eps <= 0 || res.MinPts < 1 {
		t.Fatalf("params not estimated: %+v", res)
	}
	if !containsAll(res.Rows, n, n+1, n+2) {
		t.Fatalf("multivariate missed planted noise: %v", res.Rows)
	}
	if len(res.Rows) > n/10 {
		t.Fatalf("too many rows flagged: %d", len(res.Rows))
	}
}

func TestDetectMultivariateSkipsIncompleteRows(t *testing.T) {
	tab := table.New()
	if err := tab.AddFloats("a", []float64{0, math.NaN(), 0.2, 0.3, 0.1, 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("b", []float64{0, 0.1, 0.2, 0.3, 0.15, 0.28}); err != nil {
		t.Fatal(err)
	}
	res, err := DetectMultivariate(tab, []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 5 {
		t.Fatalf("checked = %d, want 5", res.Checked)
	}
	if _, err := DetectMultivariate(tab, nil, 0); err == nil {
		t.Fatal("want error for no attributes")
	}
}

func TestDetectColumnsParallelEquivalence(t *testing.T) {
	// Two value regimes, around 10 and around 100, with one value planted
	// between them.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 10 + 90*float64(i%2) + rng.NormFloat64()
	}
	xs[0], xs[1] = 40, 60
	tab := table.New()
	if err := tab.AddFloats("x", xs); err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(MethodMAD)
	seqRes, seqUnion, err := DetectColumns(tab, []string{"x"}, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Parallelism = 4
	parRes, parUnion, err := DetectColumns(tab, []string{"x"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(parRes) != len(seqRes) {
		t.Fatalf("results = %d, want %d", len(parRes), len(seqRes))
	}
	for i := range seqRes {
		if !slices.Equal(parRes[i].Rows, seqRes[i].Rows) || parRes[i].Checked != seqRes[i].Checked {
			t.Fatalf("attribute %d diverges", i)
		}
	}
	if !slices.Equal(parUnion, seqUnion) {
		t.Fatalf("union diverges: %v != %v", parUnion, seqUnion)
	}
}

func TestSuggestionStorePerAttribute(t *testing.T) {
	s := NewSuggestionStore()
	gesd := DefaultConfig(MethodGESD)
	mad := DefaultConfig(MethodMAD)
	s.Record(UsageRecord{Attr: "u_opaque", Config: gesd, Expert: true})
	s.Record(UsageRecord{Attr: "u_opaque", Config: gesd, Expert: true})
	s.Record(UsageRecord{Attr: "u_opaque", Config: mad, Expert: true})
	s.Record(UsageRecord{Attr: "etah", Config: mad, Expert: true})
	cfg, ok := s.Suggest("u_opaque")
	if !ok || cfg.Method != MethodGESD {
		t.Fatalf("suggest = %+v, %v", cfg, ok)
	}
	cfg, ok = s.Suggest("etah")
	if !ok || cfg.Method != MethodMAD {
		t.Fatalf("suggest = %+v, %v", cfg, ok)
	}
}

func TestSuggestionStoreFallbacks(t *testing.T) {
	s := NewSuggestionStore()
	// Non-expert records never drive suggestions.
	s.Record(UsageRecord{Attr: "x", Config: DefaultConfig(MethodBoxplot), Expert: false})
	cfg, ok := s.Suggest("x")
	if ok {
		t.Fatal("non-expert record drove a suggestion")
	}
	if cfg.Method != MethodMAD {
		t.Fatalf("default fallback = %+v", cfg)
	}
	// Global expert fallback for unseen attribute.
	s.Record(UsageRecord{Attr: "y", Config: DefaultConfig(MethodGESD), Expert: true})
	cfg, ok = s.Suggest("never_seen")
	if !ok || cfg.Method != MethodGESD {
		t.Fatalf("global fallback = %+v, %v", cfg, ok)
	}
}

func TestSuggestionStoreTieBreaksRecent(t *testing.T) {
	s := NewSuggestionStore()
	s.Record(UsageRecord{Attr: "x", Config: DefaultConfig(MethodBoxplot), Expert: true})
	s.Record(UsageRecord{Attr: "x", Config: DefaultConfig(MethodGESD), Expert: true})
	cfg, ok := s.Suggest("x")
	if !ok || cfg.Method != MethodGESD {
		t.Fatalf("tie should prefer most recent: %+v", cfg)
	}
}

func TestSuggestionStoreSaveLoad(t *testing.T) {
	s := NewSuggestionStore()
	s.Record(UsageRecord{Attr: "a", Config: DefaultConfig(MethodMAD), Expert: true})
	s.Record(UsageRecord{Attr: "b", Config: DefaultConfig(MethodBoxplot), Expert: false})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSuggestionStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("len = %d", back.Len())
	}
	cfg, ok := back.Suggest("a")
	if !ok || cfg.Method != MethodMAD {
		t.Fatalf("suggest after reload = %+v", cfg)
	}
	if _, err := LoadSuggestionStore(bytes.NewBufferString("{")); err == nil {
		t.Fatal("want error for bad JSON")
	}
	if _, err := LoadSuggestionStore(bytes.NewBufferString(`[{"attr":""}]`)); err == nil {
		t.Fatal("want error for empty attr")
	}
}

func containsAll(haystack []int, needles ...int) bool {
	set := make(map[int]bool, len(haystack))
	for _, h := range haystack {
		set[h] = true
	}
	for _, n := range needles {
		if !set[n] {
			return false
		}
	}
	return true
}

func BenchmarkDetectMAD(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 25000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	tab := table.New()
	if err := tab.AddFloats("v", xs); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(MethodMAD)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectColumn(tab, "v", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
