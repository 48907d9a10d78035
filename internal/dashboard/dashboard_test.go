package dashboard

import (
	"math"
	"strings"
	"testing"

	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/table"
)

// testWorld builds a 2-district hierarchy and a table of certificates:
// 3 units in D1 (eph 100, 120, 140), 2 in D2 (eph 200, 220), one with
// invalid coordinates.
func testWorld(t *testing.T) (*table.Table, *geo.Hierarchy) {
	t.Helper()
	city := geo.Zone{ID: "c", Name: "City", Level: geo.LevelCity,
		Ring: geo.Polygon{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 2}, {Lat: 2, Lon: 2}, {Lat: 2, Lon: 0}}}
	d1 := geo.Zone{ID: "d1", Name: "West", Level: geo.LevelDistrict, Parent: "c",
		Ring: geo.Polygon{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 1}, {Lat: 2, Lon: 1}, {Lat: 2, Lon: 0}}}
	d2 := geo.Zone{ID: "d2", Name: "East", Level: geo.LevelDistrict, Parent: "c",
		Ring: geo.Polygon{{Lat: 0, Lon: 1}, {Lat: 0, Lon: 2}, {Lat: 2, Lon: 2}, {Lat: 2, Lon: 1}}}
	n1 := geo.Zone{ID: "n1", Name: "W1", Level: geo.LevelNeighbourhood, Parent: "d1",
		Ring: geo.Polygon{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 1}, {Lat: 2, Lon: 1}, {Lat: 2, Lon: 0}}}
	n2 := geo.Zone{ID: "n2", Name: "E1", Level: geo.LevelNeighbourhood, Parent: "d2",
		Ring: geo.Polygon{{Lat: 0, Lon: 1}, {Lat: 0, Lon: 2}, {Lat: 2, Lon: 2}, {Lat: 2, Lon: 1}}}
	h, err := geo.NewHierarchy(city, []geo.Zone{d1, d2}, []geo.Zone{n1, n2})
	if err != nil {
		t.Fatal(err)
	}

	tab := table.New()
	steps := []error{
		tab.AddFloats(epc.AttrLatitude, []float64{0.5, 0.6, 0.7, 0.5, 0.6, math.NaN()}),
		tab.AddFloats(epc.AttrLongitude, []float64{0.5, 0.5, 0.5, 1.5, 1.5, math.NaN()}),
		tab.AddFloats(epc.AttrEPH, []float64{100, 120, 140, 200, 220, 500}),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab, h
}

func TestMapKindForLevel(t *testing.T) {
	cases := map[geo.Level]MapKind{
		geo.LevelCity:          KindClusterMarker,
		geo.LevelDistrict:      KindClusterMarker,
		geo.LevelNeighbourhood: KindChoropleth,
		geo.LevelUnit:          KindScatter,
	}
	for l, want := range cases {
		if got := MapKindForLevel(l); got != want {
			t.Errorf("MapKindForLevel(%v) = %v, want %v", l, got, want)
		}
	}
}

func TestAggregateByZone(t *testing.T) {
	tab, h := testWorld(t)
	zs, err := AggregateByZone(tab, h, geo.LevelDistrict, epc.AttrEPH)
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 2 {
		t.Fatalf("zones = %d", len(zs))
	}
	byID := map[string]ZoneStat{}
	for _, z := range zs {
		byID[z.Zone.ID] = z
	}
	if byID["d1"].Count != 3 || math.Abs(byID["d1"].Mean-120) > 1e-9 {
		t.Fatalf("d1 = %+v", byID["d1"])
	}
	if byID["d2"].Count != 2 || math.Abs(byID["d2"].Mean-210) > 1e-9 {
		t.Fatalf("d2 = %+v", byID["d2"])
	}
	if _, err := AggregateByZone(tab, h, geo.LevelUnit, epc.AttrEPH); err == nil {
		t.Fatal("want error for unit level")
	}
	if _, err := AggregateByZone(tab, h, geo.LevelDistrict, "missing"); err == nil {
		t.Fatal("want error for missing attr")
	}
}

func TestRenderMapPerLevel(t *testing.T) {
	tab, h := testWorld(t)
	for _, level := range []geo.Level{geo.LevelCity, geo.LevelDistrict, geo.LevelNeighbourhood, geo.LevelUnit} {
		b, kind, err := RenderMap(tab, h, MapSpec{Title: "t", Level: level, Attr: epc.AttrEPH})
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		svg := string(b)
		if kind != MapKindForLevel(level) {
			t.Fatalf("%v: kind = %v", level, kind)
		}
		if !strings.Contains(svg, "<svg") {
			t.Fatalf("%v: no svg output", level)
		}
		switch kind {
		case KindClusterMarker:
			if !strings.Contains(svg, ">3<") && !strings.Contains(svg, ">2<") {
				t.Fatalf("%v: cardinality labels missing", level)
			}
		case KindScatter:
			if strings.Count(svg, "<circle") < 5 {
				t.Fatalf("%v: scatter points missing", level)
			}
		}
	}
}

func TestClusterMarkers(t *testing.T) {
	tab, _ := testWorld(t)
	labels := []int{0, 0, 0, 1, 1, 1}
	ms, err := ClusterMarkers(tab, labels, epc.AttrEPH)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("markers = %d", len(ms))
	}
	// Cluster 0: 3 members around (0.6, 0.5), mean eph 120.
	if ms[0].Count != 3 || math.Abs(ms[0].Value-120) > 1e-9 {
		t.Fatalf("marker 0 = %+v", ms[0])
	}
	// The invalid-coordinate row is dropped from cluster 1.
	if ms[1].Count != 2 {
		t.Fatalf("marker 1 = %+v", ms[1])
	}
	if math.Abs(ms[1].Center.Lon-1.5) > 1e-9 {
		t.Fatalf("marker 1 center = %v", ms[1].Center)
	}
	// Noise labels are skipped entirely.
	ms, err = ClusterMarkers(tab, []int{-1, -1, -1, -1, -1, -1}, epc.AttrEPH)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("noise produced markers: %v", ms)
	}
	if _, err := ClusterMarkers(tab, []int{0}, epc.AttrEPH); err == nil {
		t.Fatal("want error for label length mismatch")
	}
}

func TestNewDistributionPanel(t *testing.T) {
	tab, _ := testWorld(t)
	p, err := NewDistributionPanel(tab, epc.AttrEPH, 5, 400, 240)
	if err != nil {
		t.Fatal(err)
	}
	if p.Desc.Count != 6 {
		t.Fatalf("count = %d", p.Desc.Count)
	}
	if svg, err := p.Draw(nil); err != nil || !strings.Contains(string(svg), "<svg") {
		t.Fatal("no svg")
	}
	row := p.StatsRow()
	if len(row) != len(StatsHeader()) {
		t.Fatalf("row/header mismatch: %v vs %v", row, StatsHeader())
	}
	if row[0] != epc.AttrEPH || row[1] != "6" {
		t.Fatalf("row = %v", row)
	}
	if _, err := NewDistributionPanel(tab, "missing", 5, 400, 240); err == nil {
		t.Fatal("want error for missing attr")
	}
}

func TestCategoricalPanel(t *testing.T) {
	tab, _ := testWorld(t)
	if err := tab.AddStrings("class", []string{"C", "C", "D", "D", "D", "G"}); err != nil {
		t.Fatal(err)
	}
	panel, d, err := CategoricalPanel(tab, "class", 2, 400, 240)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := panel(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != "D" || d.ModeFreq != 3 {
		t.Fatalf("desc = %+v", d)
	}
	if len(d.TopK) != 2 {
		t.Fatalf("topk = %v", d.TopK)
	}
	if !strings.Contains(string(svg), ">D<") {
		t.Fatal("mode label missing from chart")
	}
	if _, _, err := CategoricalPanel(tab, epc.AttrEPH, 2, 400, 240); err == nil {
		t.Fatal("want error for numeric attr")
	}
}
