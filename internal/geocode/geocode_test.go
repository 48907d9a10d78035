package geocode

import (
	"errors"
	"testing"

	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/table"
)

func refEntries() []ReferenceEntry {
	return []ReferenceEntry{
		{Street: "Via Roma", HouseNumber: "1", ZIP: "10101", Point: geo.Point{Lat: 45.01, Lon: 7.61}},
		{Street: "Via Roma", HouseNumber: "2", ZIP: "10101", Point: geo.Point{Lat: 45.011, Lon: 7.611}},
		{Street: "Via Roma", HouseNumber: "10", ZIP: "10101", Point: geo.Point{Lat: 45.012, Lon: 7.612}},
		{Street: "Corso Vittorio Emanuele", HouseNumber: "5", ZIP: "10102", Point: geo.Point{Lat: 45.02, Lon: 7.62}},
		{Street: "Piazza Castello", HouseNumber: "1", ZIP: "10103", Point: geo.Point{Lat: 45.03, Lon: 7.63}},
	}
}

func TestNewStreetMap(t *testing.T) {
	m, err := NewStreetMap(refEntries())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStreets() != 3 {
		t.Fatalf("streets = %d", m.NumStreets())
	}
	if _, err := NewStreetMap(nil); err == nil {
		t.Fatal("want error for empty map")
	}
	if _, err := NewStreetMap([]ReferenceEntry{{Street: "  "}}); err == nil {
		t.Fatal("want error for blank street")
	}
}

func TestMatchStreet(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	s, sim, ok := m.MatchStreet("via rona", 16)
	if !ok || s != "via roma" {
		t.Fatalf("match = %q, %v, %v", s, sim, ok)
	}
	if sim <= 0.8 {
		t.Fatalf("similarity = %v", sim)
	}
	if _, _, ok := m.MatchStreet("", 16); ok {
		t.Fatal("empty query matched")
	}
}

func TestCivicFallback(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	// Civic 5 is absent from via roma: nearest lower is 2.
	e, ok := m.civicFor("via roma", "5")
	if !ok || e.HouseNumber != "2" {
		t.Fatalf("civicFor = %+v, %v", e, ok)
	}
	// Below the lowest civic: first entry.
	e, ok = m.civicFor("via roma", "0")
	if !ok || e.HouseNumber != "1" {
		t.Fatalf("civicFor(0) = %+v", e)
	}
	if _, ok := m.civicFor("ghost street", "1"); ok {
		t.Fatal("unknown street matched")
	}
}

func TestMockGeocoder(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	g := NewMockGeocoder(m, 2)
	e, err := g.Geocode("Via Rma 2") // heavy typo, still resolvable
	if err != nil {
		t.Fatal(err)
	}
	if e.Street != "via roma" || e.HouseNumber != "2" {
		t.Fatalf("geocode = %+v", e)
	}
	if _, err := g.Geocode("Piazza Castello 1"); err != nil {
		t.Fatal(err)
	}
	// Quota exhausted.
	if _, err := g.Geocode("Via Roma 1"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want quota exceeded", err)
	}
	if g.RequestsUsed() != 2 {
		t.Fatalf("requests = %d", g.RequestsUsed())
	}
}

func TestMockGeocoderNotFound(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	g := NewMockGeocoder(m, -1)
	if _, err := g.Geocode("zzzzqqqq wwww 7"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want not found", err)
	}
}

// locTable builds a minimal table with the five location attributes.
func locTable(t *testing.T, addrs, civics, zips []string, lats, lons []float64) *table.Table {
	t.Helper()
	tab := table.New()
	for _, step := range []error{
		tab.AddStrings(epc.AttrAddress, addrs),
		tab.AddStrings(epc.AttrHouseNumber, civics),
		tab.AddStrings(epc.AttrZIP, zips),
		tab.AddFloats(epc.AttrLatitude, lats),
		tab.AddFloats(epc.AttrLongitude, lons),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return tab
}

func TestCleanerResolvesTypos(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	cl, err := NewCleaner(m, NewMockGeocoder(m, 100), DefaultCleanConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := locTable(t,
		[]string{"via roma", "via rona", "totally wrong xyzw"},
		[]string{"1", "2", "5"},
		[]string{"", "99999", ""},
		[]float64{0, 0, 0},
		[]float64{0, 0, 0},
	)
	rep, err := cl.Clean(tab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 3 {
		t.Fatalf("rows = %d", rep.Rows)
	}
	if rep.Untouched != 1 || rep.StreetMap != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Geocoded+rep.Unresolved != 1 {
		t.Fatalf("report = %+v", rep)
	}
	addr, _ := tab.Strings(epc.AttrAddress)
	if addr[1] != "via roma" {
		t.Fatalf("typo not fixed: %q", addr[1])
	}
	zips, _ := tab.Strings(epc.AttrZIP)
	if zips[0] != "10101" || zips[1] != "10101" {
		t.Fatalf("zips not reconstructed: %v", zips)
	}
	lat, _ := tab.Floats(epc.AttrLatitude)
	if lat[0] != 45.01 {
		t.Fatalf("coords not reconstructed: %v", lat[0])
	}
	if rep.Methods[0] != MethodUntouched || rep.Methods[1] != MethodStreetMap {
		t.Fatalf("methods = %v", rep.Methods)
	}
}

func TestCleanerGeocoderFallbackOnlyBelowPhi(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	g := NewMockGeocoder(m, 100)
	cfg := DefaultCleanConfig()
	cfg.Phi = 0.95 // strict: one-edit typos fall below phi on short names
	cl, _ := NewCleaner(m, g, cfg)
	tab := locTable(t,
		[]string{"via rona"}, []string{"2"}, []string{""}, []float64{0}, []float64{0},
	)
	rep, err := cl.Clean(tab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Geocoded != 1 || rep.GeocoderRequests != 1 {
		t.Fatalf("report = %+v", rep)
	}
	addr, _ := tab.Strings(epc.AttrAddress)
	if addr[0] != "via roma" {
		t.Fatalf("fallback did not fix: %q", addr[0])
	}
}

func TestCleanerNoGeocoder(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	cl, _ := NewCleaner(m, nil, DefaultCleanConfig())
	tab := locTable(t,
		[]string{"qqqq zzzz wwww"}, []string{"1"}, []string{""}, []float64{0}, []float64{0},
	)
	rep, err := cl.Clean(tab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unresolved != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Methods[0] != MethodUnresolved {
		t.Fatalf("methods = %v", rep.Methods)
	}
}

func TestCleanerQuotaExhaustion(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	g := NewMockGeocoder(m, 1)
	cl, _ := NewCleaner(m, g, DefaultCleanConfig())
	tab := locTable(t,
		[]string{"xxxx yyyy zzzz", "wwww vvvv uuuu"},
		[]string{"1", "1"},
		[]string{"", ""},
		[]float64{0, 0},
		[]float64{0, 0},
	)
	rep, err := cl.Clean(tab)
	if err != nil {
		t.Fatal(err)
	}
	// Both rows need the fallback; only one request is available and it
	// fails to resolve garbage, so both stay unresolved, but only one
	// request may be consumed... the mock consumes a request per call
	// until quota, so expect 1 consumed + quota errors after.
	if rep.Unresolved != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if g.RequestsUsed() != 1 {
		t.Fatalf("requests = %d", g.RequestsUsed())
	}
}

func TestCleanerValidation(t *testing.T) {
	m, _ := NewStreetMap(refEntries())
	if _, err := NewCleaner(nil, nil, DefaultCleanConfig()); err == nil {
		t.Fatal("want error for nil map")
	}
	if _, err := NewCleaner(m, nil, CleanConfig{Phi: 2}); err == nil {
		t.Fatal("want error for bad phi")
	}
	cl, _ := NewCleaner(m, nil, DefaultCleanConfig())
	if _, err := cl.Clean(table.New()); err == nil {
		t.Fatal("want error for table without location columns")
	}
}
