// Package geocode implements the geospatial cleaning step of INDICE
// (§2.1.1): reconciliation of free-text EPC addresses against a referenced
// street map via normalized Levenshtein similarity with threshold ϕ, and a
// remote-geocoder fallback (standing in for the Google Geocoding API) that
// is consulted only when the street map cannot resolve the address,
// because of its request quota.
package geocode

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"indice/internal/geo"
	"indice/internal/textmatch"
)

// ReferenceEntry is one row of the referenced street map.
type ReferenceEntry struct {
	Street      string // normalized street name
	HouseNumber string
	ZIP         string
	Point       geo.Point
}

// StreetMap is the referenced street registry with its blocking index.
type StreetMap struct {
	streets []string                    // unique normalized street names
	byName  map[string][]ReferenceEntry // street -> civics
	index   *textmatch.Index
}

// NewStreetMap indexes the given entries. Street names are normalized with
// textmatch.NormalizeAddress before indexing.
func NewStreetMap(entries []ReferenceEntry) (*StreetMap, error) {
	if len(entries) == 0 {
		return nil, errors.New("geocode: empty street map")
	}
	byName := make(map[string][]ReferenceEntry)
	for _, e := range entries {
		norm := textmatch.NormalizeAddress(e.Street)
		if norm == "" {
			return nil, fmt.Errorf("geocode: entry with empty street name: %+v", e)
		}
		e.Street = norm
		byName[norm] = append(byName[norm], e)
	}
	streets := make([]string, 0, len(byName))
	for s := range byName {
		streets = append(streets, s)
	}
	sort.Strings(streets)
	return &StreetMap{
		streets: streets,
		byName:  byName,
		index:   textmatch.NewIndex(3, streets),
	}, nil
}

// NumStreets returns the number of distinct streets.
func (m *StreetMap) NumStreets() int { return len(m.streets) }

// MatchStreet finds the referenced street most similar to the query and
// returns it with the Levenshtein similarity. The beam width bounds the
// candidate list examined.
func (m *StreetMap) MatchStreet(query string, beam int) (string, float64, bool) {
	norm := textmatch.NormalizeAddress(query)
	if norm == "" {
		return "", 0, false
	}
	best, ok := m.index.Best(norm, beam)
	if !ok {
		return "", 0, false
	}
	return best.Entry, best.Similarity, true
}

// MatchStreetExhaustive is the ablation counterpart of MatchStreet: it
// scans every registered street instead of using the blocking index.
func (m *StreetMap) MatchStreetExhaustive(query string) (string, float64, bool) {
	norm := textmatch.NormalizeAddress(query)
	if norm == "" {
		return "", 0, false
	}
	best, ok := m.index.BestExhaustive(norm)
	if !ok {
		return "", 0, false
	}
	return best.Entry, best.Similarity, true
}

// civicFor returns the reference entry of the civic on a street; when the
// exact civic is absent it falls back to the nearest lower civic, then the
// first entry, mirroring how municipal registries interpolate.
func (m *StreetMap) civicFor(street, houseNumber string) (ReferenceEntry, bool) {
	civics := m.byName[street]
	if len(civics) == 0 {
		return ReferenceEntry{}, false
	}
	for _, e := range civics {
		if e.HouseNumber == houseNumber {
			return e, true
		}
	}
	// Nearest numeric civic below the requested one.
	want := civicNumber(houseNumber)
	best := -1
	for i, e := range civics {
		n := civicNumber(e.HouseNumber)
		if n <= want && (best < 0 || n > civicNumber(civics[best].HouseNumber)) {
			best = i
		}
	}
	if best < 0 {
		best = 0
	}
	return civics[best], true
}

func civicNumber(s string) int {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// Geocoder is a remote geocoding service: given a free-text address it
// returns the authoritative entry. Implementations may fail or run out of
// quota.
type Geocoder interface {
	// Geocode resolves a free-text address to a reference entry.
	Geocode(address string) (ReferenceEntry, error)
	// RequestsUsed reports how many requests were consumed.
	RequestsUsed() int
}

// ErrQuotaExceeded is returned by a Geocoder whose free-request budget is
// exhausted, the condition that forces INDICE to prefer the street map.
var ErrQuotaExceeded = errors.New("geocode: request quota exceeded")

// ErrNotFound is returned when the geocoder cannot resolve an address.
var ErrNotFound = errors.New("geocode: address not found")

// MockGeocoder simulates the Google Geocoding API over the ground-truth
// street map: perfect resolution (it fuzzy-matches with a wide beam and no
// threshold) but a hard request quota. It is safe for concurrent use.
type MockGeocoder struct {
	m     *StreetMap
	quota int

	mu   sync.Mutex
	used int
}

// NewMockGeocoder wraps a street map with a request quota. A negative
// quota means unlimited.
func NewMockGeocoder(m *StreetMap, quota int) *MockGeocoder {
	return &MockGeocoder{m: m, quota: quota}
}

// Geocode implements Geocoder.
func (g *MockGeocoder) Geocode(address string) (ReferenceEntry, error) {
	if !g.consume() {
		return ReferenceEntry{}, ErrQuotaExceeded
	}
	norm := textmatch.NormalizeAddress(address)
	streetPart, civic := textmatch.SplitHouseNumber(norm)
	best, ok := g.m.index.Best(streetPart, 64)
	if !ok {
		return ReferenceEntry{}, ErrNotFound
	}
	// The remote service resolves anything plausibly close.
	if best.Similarity < 0.4 {
		return ReferenceEntry{}, ErrNotFound
	}
	e, ok := g.m.civicFor(best.Entry, civic)
	if !ok {
		return ReferenceEntry{}, ErrNotFound
	}
	return e, nil
}

// consume takes one request off the quota, or reports that none is left.
// Check and increment are one critical section: concurrent callers never
// overdraw the budget.
func (g *MockGeocoder) consume() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.quota >= 0 && g.used >= g.quota {
		return false
	}
	g.used++
	return true
}

// RequestsUsed implements Geocoder.
func (g *MockGeocoder) RequestsUsed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// normalizeCivic strips separators from a civic number ("12/B" -> "12b").
func normalizeCivic(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if r >= '0' && r <= '9' || r >= 'a' && r <= 'z' {
			b.WriteRune(r)
		}
	}
	return b.String()
}
