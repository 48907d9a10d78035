package synth

import (
	"fmt"
	"math/rand"

	"indice/internal/geo"
	"indice/internal/geocode"
)

// StreetEntry is one row of the referenced street map: a civic number on a
// named street with its authoritative ZIP code and geolocation. This is
// the ground truth the geospatial cleaning step reconciles against,
// standing in for the Turin municipal open dataset.
type StreetEntry struct {
	Street      string
	HouseNumber string
	ZIP         string
	Point       geo.Point
}

// City is the full synthetic urban substrate: the street registry and the
// administrative hierarchy used for dashboard drill-down.
type City struct {
	Name      string
	Bounds    geo.Bounds
	Entries   []StreetEntry
	Hierarchy *geo.Hierarchy
}

// ReferenceEntries returns the street registry in the form
// geocode.NewStreetMap takes.
func (c *City) ReferenceEntries() []geocode.ReferenceEntry {
	out := make([]geocode.ReferenceEntry, len(c.Entries))
	for i, e := range c.Entries {
		out[i] = geocode.ReferenceEntry(e)
	}
	return out
}

// CityConfig parameterizes city generation.
type CityConfig struct {
	// Name of the municipality.
	Name string
	// Seed drives the deterministic RNG.
	Seed int64
	// Streets is the number of streets in the registry.
	Streets int
	// CivicsPerStreet is the number of house numbers per street.
	CivicsPerStreet int
	// DistrictRows/Cols partition the city rectangle into districts.
	DistrictRows, DistrictCols int
	// NeighbourhoodsPerDistrict subdivides each district into a
	// neighbourhood grid (value is the per-side count, so 2 means 2x2).
	NeighbourhoodsPerDistrict int
}

// DefaultCityConfig mirrors a Turin-sized setup: 8 districts, 32
// neighbourhoods, a registry of 240 streets with 50 civics each.
func DefaultCityConfig() CityConfig {
	return CityConfig{
		Name:                      "Torino",
		Seed:                      1,
		Streets:                   240,
		CivicsPerStreet:           50,
		DistrictRows:              2,
		DistrictCols:              4,
		NeighbourhoodsPerDistrict: 2,
	}
}

// cityBounds is the synthetic city rectangle, roughly Turin's extent.
var cityBounds = geo.Bounds{MinLat: 45.00, MinLon: 7.60, MaxLat: 45.12, MaxLon: 7.76}

// GenerateCity builds the street registry and administrative hierarchy.
func GenerateCity(cfg CityConfig) (*City, error) {
	if cfg.Streets < 1 || cfg.CivicsPerStreet < 1 {
		return nil, fmt.Errorf("synth: city needs at least one street and one civic, got %d/%d", cfg.Streets, cfg.CivicsPerStreet)
	}
	if cfg.DistrictRows < 1 || cfg.DistrictCols < 1 || cfg.NeighbourhoodsPerDistrict < 1 {
		return nil, fmt.Errorf("synth: invalid district grid %dx%d/%d", cfg.DistrictRows, cfg.DistrictCols, cfg.NeighbourhoodsPerDistrict)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := cityBounds

	hier, err := buildHierarchy(cfg, b)
	if err != nil {
		return nil, err
	}

	// Street names: prefix x toponym combinations, deterministic order,
	// shuffled once so adjacent streets don't share prefixes.
	names := make([]string, 0, len(streetPrefixes)*len(streetNames))
	for _, p := range streetPrefixes {
		for _, n := range streetNames {
			names = append(names, p+" "+n)
		}
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if cfg.Streets > len(names) {
		// Extend with numbered variants to honour very large requests.
		base := len(names)
		for i := 0; len(names) < cfg.Streets; i++ {
			names = append(names, fmt.Sprintf("%s %d", names[i%base], i/base+2))
		}
	}
	names = names[:cfg.Streets]

	entries := make([]StreetEntry, 0, cfg.Streets*cfg.CivicsPerStreet)
	latSpan := b.MaxLat - b.MinLat
	lonSpan := b.MaxLon - b.MinLon
	// Keep civics strictly inside the city ring: points exactly on a zone
	// edge are ambiguous under ray casting.
	const inset = 1e-6
	bi := geo.Bounds{
		MinLat: b.MinLat + inset, MaxLat: b.MaxLat - inset,
		MinLon: b.MinLon + inset, MaxLon: b.MaxLon - inset,
	}
	for si, name := range names {
		// Each street is a straight segment: alternate east-west and
		// north-south; anchor position is random but in-bounds.
		horizontal := si%2 == 0
		anchorLat := b.MinLat + rng.Float64()*latSpan
		anchorLon := b.MinLon + rng.Float64()*lonSpan
		length := 0.25 + rng.Float64()*0.5 // fraction of the city span
		for c := 1; c <= cfg.CivicsPerStreet; c++ {
			frac := float64(c-1) / float64(cfg.CivicsPerStreet)
			var p geo.Point
			if horizontal {
				start := anchorLon - length*lonSpan/2
				p = geo.Point{Lat: anchorLat, Lon: clamp(start+frac*length*lonSpan, bi.MinLon, bi.MaxLon)}
			} else {
				start := anchorLat - length*latSpan/2
				p = geo.Point{Lat: clamp(start+frac*length*latSpan, bi.MinLat, bi.MaxLat), Lon: anchorLon}
			}
			zip := zipFor(hier, p)
			entries = append(entries, StreetEntry{
				Street:      name,
				HouseNumber: fmt.Sprintf("%d", c),
				ZIP:         zip,
				Point:       p,
			})
		}
	}

	return &City{
		Name:      cfg.Name,
		Bounds:    b,
		Entries:   entries,
		Hierarchy: hier,
	}, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// zipFor derives the postal code from the containing district: Turin-style
// 101xx codes, one per district, 10100 for points outside every district.
func zipFor(h *geo.Hierarchy, p geo.Point) string {
	if z, ok := h.Locate(p, geo.LevelDistrict); ok {
		var idx int
		fmt.Sscanf(z.ID, "D%d", &idx)
		return fmt.Sprintf("101%02d", idx)
	}
	return "10100"
}

// buildHierarchy constructs the rectangular district/neighbourhood grids.
func buildHierarchy(cfg CityConfig, b geo.Bounds) (*geo.Hierarchy, error) {
	return geo.GridHierarchy(cfg.Name, b, cfg.DistrictRows, cfg.DistrictCols, cfg.NeighbourhoodsPerDistrict)
}
