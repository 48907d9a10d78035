package outlier

import (
	"math/rand"
	"testing"

	"indice/internal/table"
)

// zoneTable builds a two-zone table where each zone has a distinct value
// regime for "x": zone A around 10, zone B around 100. One planted
// outlier per zone is extreme locally but unremarkable against the pooled
// distribution (A's 40 and B's 60 both sit inside the global spread).
func zoneTable(t *testing.T) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n := 400
	zones := make([]string, n)
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			zones[i] = "A"
			xs[i] = 10 + rng.NormFloat64()
		} else {
			zones[i] = "B"
			xs[i] = 100 + rng.NormFloat64()
		}
	}
	xs[0] = 40 // zone A local outlier, globally mid-range
	xs[1] = 60 // zone B local outlier, globally mid-range
	tab := table.New()
	if err := tab.AddStrings("district", zones); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("x", xs); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestDetectByZoneFindsLocalOutliers(t *testing.T) {
	tab := zoneTable(t)
	cfg := DefaultConfig(MethodMAD)

	// The pooled screen misses both planted outliers: 40 and 60 sit
	// between the two regimes.
	_, pooled, err := DetectColumns(tab, []string{"x"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pooled {
		if r == 0 || r == 1 {
			t.Fatalf("pooled screen unexpectedly flagged planted row %d", r)
		}
	}

	zones, union, err := DetectByZone(tab, "district", []string{"x"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 2 {
		t.Fatalf("zones = %d, want 2", len(zones))
	}
	if zones[0].Zone != "A" || zones[1].Zone != "B" {
		t.Fatalf("zone order = %q, %q", zones[0].Zone, zones[1].Zone)
	}
	if zones[0].Size != 200 || zones[1].Size != 200 {
		t.Fatalf("zone sizes = %d, %d", zones[0].Size, zones[1].Size)
	}
	found := map[int]bool{}
	for _, r := range union {
		found[r] = true
	}
	if !found[0] || !found[1] {
		t.Fatalf("per-zone screen missed the planted local outliers; union = %v", union)
	}
}

func TestDetectByZoneParallelEquivalence(t *testing.T) {
	tab := zoneTable(t)
	base := DefaultConfig(MethodBoxplot)
	seqZones, seqUnion, err := DetectByZone(tab, "district", []string{"x"}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		cfg := base
		cfg.Parallelism = p
		parZones, parUnion, err := DetectByZone(tab, "district", []string{"x"}, cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(parZones) != len(seqZones) {
			t.Fatalf("parallelism %d: %d zones, want %d", p, len(parZones), len(seqZones))
		}
		for zi := range seqZones {
			if parZones[zi].Zone != seqZones[zi].Zone || !intsEqual(parZones[zi].Rows, seqZones[zi].Rows) {
				t.Fatalf("parallelism %d: zone %d diverges", p, zi)
			}
		}
		if !intsEqual(parUnion, seqUnion) {
			t.Fatalf("parallelism %d: union %v != %v", p, parUnion, seqUnion)
		}
	}
}

func TestDetectColumnsParallelEquivalence(t *testing.T) {
	tab := zoneTable(t)
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
		if !intsEqual(parRes[i].Rows, seqRes[i].Rows) || parRes[i].Checked != seqRes[i].Checked {
			t.Fatalf("attribute %d diverges", i)
		}
	}
	if !intsEqual(parUnion, seqUnion) {
		t.Fatalf("union diverges: %v != %v", parUnion, seqUnion)
	}
}

func TestDetectByZoneErrors(t *testing.T) {
	tab := zoneTable(t)
	if _, _, err := DetectByZone(tab, "missing", []string{"x"}, DefaultConfig(MethodMAD)); err == nil {
		t.Fatal("want error for missing zone attribute")
	}
	if _, _, err := DetectByZone(tab, "district", nil, DefaultConfig(MethodMAD)); err == nil {
		t.Fatal("want error for empty attribute list")
	}
	if _, _, err := DetectByZone(tab, "district", []string{"nope"}, DefaultConfig(MethodMAD)); err == nil {
		t.Fatal("want error for missing screened attribute")
	}
	if _, _, err := DetectByZone(tab, "x", []string{"x"}, DefaultConfig(MethodMAD)); err == nil {
		t.Fatal("want error for numeric zone attribute")
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
