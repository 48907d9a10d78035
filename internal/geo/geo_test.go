package geo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointValid(t *testing.T) {
	if !(Point{45, 7.6}).Valid() {
		t.Fatal("Turin should be valid")
	}
	bad := []Point{
		{91, 0}, {-91, 0}, {0, 181}, {0, -181},
		{math.NaN(), 0}, {0, math.NaN()},
	}
	for _, p := range bad {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestBounds(t *testing.T) {
	b := EmptyBounds()
	if !b.IsEmpty() {
		t.Fatal("EmptyBounds not empty")
	}
	b = b.Extend(Point{1, 2}).Extend(Point{-1, 5})
	if b.IsEmpty() {
		t.Fatal("extended bounds empty")
	}
	if !b.Contains(Point{0, 3}) || b.Contains(Point{2, 3}) {
		t.Fatal("Contains wrong")
	}
	c := b.Center()
	if c.Lat != 0 || c.Lon != 3.5 {
		t.Fatalf("center = %v", c)
	}
	bo := BoundsOf([]Point{{1, 1}, {3, 0}})
	if bo.MinLat != 1 || bo.MaxLat != 3 || bo.MinLon != 0 || bo.MaxLon != 1 {
		t.Fatalf("BoundsOf = %+v", bo)
	}
}

func unitSquare() Polygon {
	return Polygon{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
}

func TestPolygonContains(t *testing.T) {
	sq := unitSquare()
	if !sq.Contains(Point{0.5, 0.5}) {
		t.Fatal("center not inside")
	}
	outside := []Point{{1.5, 0.5}, {-0.5, 0.5}, {0.5, 1.5}, {0.5, -0.5}}
	for _, p := range outside {
		if sq.Contains(p) {
			t.Errorf("%v should be outside", p)
		}
	}
	if (Polygon{{0, 0}, {1, 1}}).Contains(Point{0, 0}) {
		t.Fatal("degenerate polygon contains nothing")
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// L-shape: the notch (0.75, 0.75) is outside.
	l := Polygon{{0, 0}, {0, 1}, {0.5, 1}, {0.5, 0.5}, {1, 0.5}, {1, 0}}
	if !l.Contains(Point{0.25, 0.25}) {
		t.Fatal("inner corner should be inside")
	}
	if l.Contains(Point{0.75, 0.75}) {
		t.Fatal("notch should be outside")
	}
}

func TestRectPolygonAgreesWithBounds(t *testing.T) {
	b := Bounds{MinLat: 1, MinLon: 2, MaxLat: 3, MaxLon: 4}
	pg := RectPolygon(b)
	f := func(la, lo uint16) bool {
		p := Point{1 + float64(la%3), 2 + float64(lo%3)}
		// Skip edge points, where ray casting is allowed to disagree.
		if p.Lat == 1 || p.Lat == 3 || p.Lon == 2 || p.Lon == 4 {
			return true
		}
		return pg.Contains(p) == b.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func testHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	city := Zone{ID: "c", Name: "City", Level: LevelCity, Ring: Polygon{{0, 0}, {0, 2}, {2, 2}, {2, 0}}}
	d1 := Zone{ID: "d1", Name: "West", Level: LevelDistrict, Parent: "c", Ring: Polygon{{0, 0}, {0, 1}, {2, 1}, {2, 0}}}
	d2 := Zone{ID: "d2", Name: "East", Level: LevelDistrict, Parent: "c", Ring: Polygon{{0, 1}, {0, 2}, {2, 2}, {2, 1}}}
	n1 := Zone{ID: "n1", Name: "SW", Level: LevelNeighbourhood, Parent: "d1", Ring: Polygon{{0, 0}, {0, 1}, {1, 1}, {1, 0}}}
	n2 := Zone{ID: "n2", Name: "NW", Level: LevelNeighbourhood, Parent: "d1", Ring: Polygon{{1, 0}, {1, 1}, {2, 1}, {2, 0}}}
	n3 := Zone{ID: "n3", Name: "E", Level: LevelNeighbourhood, Parent: "d2", Ring: Polygon{{0, 1}, {0, 2}, {2, 2}, {2, 1}}}
	h, err := NewHierarchy(city, []Zone{d1, d2}, []Zone{n1, n2, n3})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLocate(t *testing.T) {
	h := testHierarchy(t)
	z, ok := h.Locate(Point{0.5, 0.5}, LevelDistrict)
	if !ok || z.ID != "d1" {
		t.Fatalf("district = %+v ok=%v", z, ok)
	}
	z, ok = h.Locate(Point{0.5, 0.5}, LevelNeighbourhood)
	if !ok || z.ID != "n1" {
		t.Fatalf("neighbourhood = %+v ok=%v", z, ok)
	}
	z, ok = h.Locate(Point{1.5, 1.5}, LevelDistrict)
	if !ok || z.ID != "d2" {
		t.Fatalf("district = %+v", z)
	}
	if _, ok := h.Locate(Point{5, 5}, LevelDistrict); ok {
		t.Fatal("point outside city located")
	}
	if _, ok := h.Locate(Point{0.5, 0.5}, LevelUnit); ok {
		t.Fatal("unit level has no zones")
	}
}

func TestHierarchyAssign(t *testing.T) {
	h := testHierarchy(t)
	pts := []Point{{0.5, 0.5}, {1.5, 0.5}, {0.5, 1.5}, {9, 9}}
	ids := h.Assign(pts, LevelNeighbourhood)
	want := []string{"n1", "n2", "n3", ""}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("assign = %v, want %v", ids, want)
		}
	}
}

func TestHierarchyValidation(t *testing.T) {
	city := Zone{ID: "c", Level: LevelCity, Ring: unitSquare()}
	badDistrict := Zone{ID: "d", Level: LevelDistrict, Parent: "nope", Ring: unitSquare()}
	if _, err := NewHierarchy(city, []Zone{badDistrict}, nil); err == nil {
		t.Fatal("want error for wrong parent")
	}
	wrongLevel := Zone{ID: "d", Level: LevelCity, Parent: "c", Ring: unitSquare()}
	if _, err := NewHierarchy(city, []Zone{wrongLevel}, nil); err == nil {
		t.Fatal("want error for wrong level")
	}
	dup := Zone{ID: "c", Level: LevelDistrict, Parent: "c", Ring: unitSquare()}
	if _, err := NewHierarchy(city, []Zone{dup}, nil); err == nil {
		t.Fatal("want error for duplicate id")
	}
	orphan := Zone{ID: "n", Level: LevelNeighbourhood, Parent: "ghost", Ring: unitSquare()}
	if _, err := NewHierarchy(city, nil, []Zone{orphan}); err == nil {
		t.Fatal("want error for orphan neighbourhood")
	}
	if _, err := NewHierarchy(Zone{ID: "x", Level: LevelDistrict, Ring: unitSquare()}, nil, nil); err == nil {
		t.Fatal("want error for non-city root")
	}
}

func TestLevelStringParse(t *testing.T) {
	for _, l := range []Level{LevelCity, LevelDistrict, LevelNeighbourhood, LevelUnit} {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Fatalf("round trip %v: %v, %v", l, back, err)
		}
	}
	if _, err := ParseLevel("galaxy"); err == nil {
		t.Fatal("want error for unknown level")
	}
	if got := (Level(99)).String(); got != "Level(99)" {
		t.Fatalf("String = %q", got)
	}
}

func BenchmarkHierarchyAssign(b *testing.B) {
	city := Zone{ID: "c", Level: LevelCity, Ring: Polygon{{0, 0}, {0, 2}, {2, 2}, {2, 0}}}
	var districts []Zone
	for i := 0; i < 8; i++ {
		lo := float64(i) * 0.25
		districts = append(districts, Zone{
			ID: fmt.Sprintf("d%d", i), Level: LevelDistrict, Parent: "c",
			Ring: Polygon{{0, lo}, {0, lo + 0.25}, {2, lo + 0.25}, {2, lo}},
		})
	}
	h, err := NewHierarchy(city, districts, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	pts := make([]Point, 25000)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 2, rng.Float64() * 2}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Assign(pts, LevelDistrict)
	}
}
