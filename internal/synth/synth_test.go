package synth

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/stats"
	"indice/internal/table"
)

func smallCity(t testing.TB) *City {
	t.Helper()
	cfg := DefaultCityConfig()
	cfg.Streets = 40
	cfg.CivicsPerStreet = 10
	c, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallDataset(t testing.TB, n int) *Dataset {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Certificates = n
	ds, err := Generate(cfg, smallCity(t))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateCityShape(t *testing.T) {
	c := smallCity(t)
	if len(c.Entries) != 40*10 {
		t.Fatalf("entries = %d", len(c.Entries))
	}
	if c.Hierarchy == nil {
		t.Fatal("no hierarchy")
	}
	if got := len(c.Hierarchy.Districts()); got != 8 {
		t.Fatalf("districts = %d", got)
	}
	if got := len(c.Hierarchy.Neighbourhoods()); got != 32 {
		t.Fatalf("neighbourhoods = %d", got)
	}
	for _, e := range c.Entries {
		if !e.Point.Valid() || !c.Bounds.Contains(e.Point) {
			t.Fatalf("entry out of bounds: %+v", e)
		}
		if e.Street == "" || e.HouseNumber == "" || len(e.ZIP) != 5 {
			t.Fatalf("malformed entry: %+v", e)
		}
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	cfg := DefaultCityConfig()
	cfg.Streets, cfg.CivicsPerStreet = 20, 5
	a, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("lengths differ")
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a.Entries[i], b.Entries[i])
		}
	}
}

func TestGenerateCityUniqueStreets(t *testing.T) {
	c := smallCity(t)
	seen := map[string]bool{}
	for _, e := range c.Entries {
		key := e.Street + "|" + e.HouseNumber
		if seen[key] {
			t.Fatalf("duplicate civic %q", key)
		}
		seen[key] = true
	}
}

func TestGenerateCityErrors(t *testing.T) {
	bad := DefaultCityConfig()
	bad.Streets = 0
	if _, err := GenerateCity(bad); err == nil {
		t.Fatal("want error for zero streets")
	}
	bad = DefaultCityConfig()
	bad.DistrictRows = 0
	if _, err := GenerateCity(bad); err == nil {
		t.Fatal("want error for zero district rows")
	}
}

func TestGenerateSchemaConformance(t *testing.T) {
	ds := smallDataset(t, 500)
	if ds.Table.NumRows() != 500 {
		t.Fatalf("rows = %d", ds.Table.NumRows())
	}
	if ds.Table.NumCols() != 132 {
		t.Fatalf("cols = %d, want 132", ds.Table.NumCols())
	}
	if issues := epc.ValidateTable(ds.Table); len(issues) != 0 {
		t.Fatalf("validation issues: %v", issues)
	}
	if len(ds.BuildingIndex) != 500 {
		t.Fatalf("building index = %d", len(ds.BuildingIndex))
	}
	for _, bi := range ds.BuildingIndex {
		if bi < 0 || bi >= len(ds.City.Entries) {
			t.Fatalf("building index out of range: %d", bi)
		}
	}
}

// TestCorpusPacksAllButCoordinates: the generator writes its numeric
// attributes as short decimals, as certificate registries do, so a sealed
// segment of the corpus, as ingest parses it from typed CSV, packs every
// numeric column as codes except latitude and longitude, whose values
// need all their digits.
func TestCorpusPacksAllButCoordinates(t *testing.T) {
	ds := smallDataset(t, 2000)
	var body bytes.Buffer
	if err := ds.Table.WriteCSV(&body); err != nil {
		t.Fatal(err)
	}
	parsed, err := table.ReadCSV(&body)
	if err != nil {
		t.Fatal(err)
	}
	enc := table.Encode(parsed)
	var raw []string
	for _, f := range enc.Schema() {
		if f.Type == table.Float64 && enc.Column(f.Name).Kind() != table.KindPacked {
			raw = append(raw, f.Name)
		}
	}
	if want := []string{epc.AttrLatitude, epc.AttrLongitude}; !slices.Equal(raw, want) {
		t.Fatalf("numeric columns left raw: %v, want %v", raw, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	city := smallCity(t)
	cfg := DefaultConfig()
	cfg.Certificates = 100
	a, err := Generate(cfg, city)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, city)
	if err != nil {
		t.Fatal(err)
	}
	av, _ := a.Table.Floats(epc.AttrEPH)
	bv, _ := b.Table.Floats(epc.AttrEPH)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("row %d differs: %v vs %v", i, av[i], bv[i])
		}
	}
}

func TestGenerateResidentialShare(t *testing.T) {
	ds := smallDataset(t, 3000)
	uses, _ := ds.Table.Strings(epc.AttrIntendedUse)
	res := 0
	for _, u := range uses {
		if u == epc.UseResidential {
			res++
		}
	}
	frac := float64(res) / float64(len(uses))
	if frac < 0.62 || frac > 0.82 {
		t.Fatalf("residential share = %.3f, want ~0.72", frac)
	}
}

func TestGenerateWeakPredictorCorrelations(t *testing.T) {
	// The Figure 3 shape: the five case-study attributes must be at most
	// weakly pairwise correlated.
	ds := smallDataset(t, 4000)
	cols := make([][]float64, len(epc.CaseStudyAttributes))
	for i, name := range epc.CaseStudyAttributes {
		v, err := ds.Table.Floats(name)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = v
	}
	m, err := stats.NewCorrelationMatrix(epc.CaseStudyAttributes, cols)
	if err != nil {
		t.Fatal(err)
	}
	if max := m.MaxAbsOffDiagonal(); max > 0.55 {
		t.Fatalf("max |r| = %.3f, want weak correlations", max)
	}
}

func TestGenerateEPHRespondsToPredictors(t *testing.T) {
	// EPH must correlate positively with U-values and negatively with
	// efficiency, otherwise the analytics have nothing to discover.
	ds := smallDataset(t, 4000)
	eph, _ := ds.Table.Floats(epc.AttrEPH)
	uo, _ := ds.Table.Floats(epc.AttrUOpaque)
	etah, _ := ds.Table.Floats(epc.AttrETAH)
	rUo, _ := stats.Pearson(eph, uo)
	rEta, _ := stats.Pearson(eph, etah)
	if rUo < 0.25 {
		t.Fatalf("corr(EPH, Uo) = %.3f, want positive", rUo)
	}
	if rEta > -0.2 {
		t.Fatalf("corr(EPH, ETAH) = %.3f, want negative", rEta)
	}
}

func TestGenerateClassConsistentWithEPH(t *testing.T) {
	ds := smallDataset(t, 300)
	eph, _ := ds.Table.Floats(epc.AttrEPH)
	cls, _ := ds.Table.Strings(epc.AttrEnergyClass)
	for i := range eph {
		if cls[i] != epc.ClassForEPH(eph[i]) {
			t.Fatalf("row %d: class %q inconsistent with eph %v", i, cls[i], eph[i])
		}
	}
}

func TestGenerateDistrictsAssigned(t *testing.T) {
	ds := smallDataset(t, 400)
	dist, _ := ds.Table.Strings(epc.AttrDistrict)
	missing := 0
	for _, d := range dist {
		if d == "" {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d certificates without district", missing)
	}
	neigh, _ := ds.Table.Strings(epc.AttrNeighbourhood)
	for i, nb := range neigh {
		if nb == "" {
			t.Fatalf("row %d without neighbourhood", i)
		}
		z, ok := ds.City.Hierarchy.Zone(nb)
		if !ok || z.Parent != dist[i] {
			t.Fatalf("row %d: neighbourhood %q not child of district %q", i, nb, dist[i])
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	city := smallCity(t)
	if _, err := Generate(Config{Certificates: 0}, city); err == nil {
		t.Fatal("want error for zero certificates")
	}
	if _, err := Generate(Config{Certificates: 10, ResidentialShare: 2}, city); err == nil {
		t.Fatal("want error for bad share")
	}
	if _, err := Generate(Config{Certificates: 10}, &City{}); err == nil {
		t.Fatal("want error for empty city")
	}
}

func TestCorruptLeavesOriginalIntact(t *testing.T) {
	ds := smallDataset(t, 500)
	origAddr, _ := ds.Table.Strings(epc.AttrAddress)
	before := append([]string(nil), origAddr...)
	_, _, err := Corrupt(ds.Table, DefaultCorruptionConfig())
	if err != nil {
		t.Fatal(err)
	}
	after, _ := ds.Table.Strings(epc.AttrAddress)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Corrupt modified the input table")
		}
	}
}

func TestCorruptRates(t *testing.T) {
	ds := smallDataset(t, 4000)
	cfg := DefaultCorruptionConfig()
	dirty, truth, err := Corrupt(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(ds.Table.NumRows())
	typoFrac := float64(len(truth.TypoRows)) / n
	if typoFrac < cfg.AddressTypoRate*0.6 || typoFrac > cfg.AddressTypoRate*1.4 {
		t.Fatalf("typo fraction = %.3f, want ~%.3f", typoFrac, cfg.AddressTypoRate)
	}
	if len(truth.ZIPDamagedRows) == 0 || len(truth.CoordDamagedRows) == 0 {
		t.Fatal("no ZIP/coordinate damage planted")
	}
	planted := 0
	for _, rows := range truth.OutlierRows {
		planted += len(rows)
	}
	if planted == 0 {
		t.Fatal("no outliers planted")
	}

	// Typos really changed the addresses.
	addr, _ := dirty.Strings(epc.AttrAddress)
	changed := 0
	for _, r := range truth.TypoRows {
		if addr[r] != truth.Address[r] {
			changed++
		}
	}
	if changed < len(truth.TypoRows)*9/10 {
		t.Fatalf("only %d/%d typo rows actually differ", changed, len(truth.TypoRows))
	}

	// Planted outliers land outside the attribute's plausible range.
	for attr, rows := range truth.OutlierRows {
		vals, _ := dirty.Floats(attr)
		spec, ok := epc.Spec(attr)
		if !ok {
			t.Fatalf("unknown outlier attribute %q", attr)
		}
		for _, r := range rows {
			if math.IsNaN(vals[r]) {
				continue
			}
			if vals[r] >= spec.Min && vals[r] <= spec.Max {
				t.Fatalf("%s row %d: planted outlier %v inside plausible range [%g, %g]",
					attr, r, vals[r], spec.Min, spec.Max)
			}
		}
	}
}

func TestCorruptZeroRates(t *testing.T) {
	ds := smallDataset(t, 200)
	dirty, truth, err := Corrupt(ds.Table, CorruptionConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.TypoRows)+len(truth.ZIPDamagedRows)+len(truth.CoordDamagedRows) != 0 {
		t.Fatal("zero-rate corruption planted defects")
	}
	a, _ := ds.Table.Strings(epc.AttrAddress)
	b, _ := dirty.Strings(epc.AttrAddress)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("zero-rate corruption changed data")
		}
	}
}

func TestCorruptRequiresLocationColumns(t *testing.T) {
	if _, _, err := Corrupt(table.New(), DefaultCorruptionConfig()); err == nil {
		t.Fatal("want error for table without location columns")
	}
}

func TestCorruptDeterministic(t *testing.T) {
	ds := smallDataset(t, 300)
	cfg := DefaultCorruptionConfig()
	d1, t1, err := Corrupt(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, t2, err := Corrupt(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.TypoRows) != len(t2.TypoRows) {
		t.Fatal("truth differs across runs")
	}
	a1, _ := d1.Strings(epc.AttrAddress)
	a2, _ := d2.Strings(epc.AttrAddress)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("corruption not deterministic")
		}
	}
}

func TestZipMatchesDistrict(t *testing.T) {
	c := smallCity(t)
	for _, e := range c.Entries {
		z, ok := c.Hierarchy.Locate(e.Point, geo.LevelDistrict)
		if !ok {
			t.Fatalf("entry %+v outside all districts", e)
		}
		want := zipFor(c.Hierarchy, e.Point)
		if e.ZIP != want {
			t.Fatalf("entry in %s has zip %s, want %s", z.ID, e.ZIP, want)
		}
	}
}

func BenchmarkGenerate25k(b *testing.B) {
	city, err := GenerateCity(DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, city); err != nil {
			b.Fatal(err)
		}
	}
}
