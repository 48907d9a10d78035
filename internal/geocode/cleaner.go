package geocode

import (
	"fmt"

	"indice/internal/epc"
	"indice/internal/parallel"
	"indice/internal/table"
	"indice/internal/textmatch"
)

// Method records how a row's location was resolved.
type Method uint8

const (
	// MethodUntouched means the address matched the street map exactly.
	MethodUntouched Method = iota
	// MethodStreetMap means the referenced address replaced the original
	// because the Levenshtein similarity reached the threshold ϕ.
	MethodStreetMap
	// MethodGeocoder means the remote fallback resolved the address.
	MethodGeocoder
	// MethodUnresolved means no source could fix the row.
	MethodUnresolved
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodUntouched:
		return "untouched"
	case MethodStreetMap:
		return "street-map"
	case MethodGeocoder:
		return "geocoder"
	case MethodUnresolved:
		return "unresolved"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// CleanConfig parameterizes the cleaning pass.
type CleanConfig struct {
	// Phi is the Levenshtein similarity threshold ϕ in [0,1]; a referenced
	// address replaces the original when similarity ≥ ϕ.
	Phi float64
	// Beam bounds the blocking-index candidate list (0 means default 32).
	Beam int
	// Parallelism bounds the worker goroutines matching the pass's distinct
	// addresses against the street map. 0 or 1 run sequentially; the
	// geocoder is only ever consulted from the calling goroutine, in row
	// order, so results and quota consumption are identical at any setting.
	Parallelism int
}

// DefaultCleanConfig uses ϕ = 0.8 and the default beam.
func DefaultCleanConfig() CleanConfig {
	return CleanConfig{Phi: 0.8, Beam: 32}
}

// Report summarizes a cleaning pass.
type Report struct {
	Rows       int
	Untouched  int
	StreetMap  int
	Geocoded   int
	Unresolved int
	// GeocoderRequests is the number of remote requests consumed,
	// including failed ones.
	GeocoderRequests int
	// Methods records the per-row resolution method.
	Methods []Method
}

// Cleaner reconciles a table's location attributes against a street map
// with a geocoder fallback.
type Cleaner struct {
	mapRef *StreetMap
	remote Geocoder
	cfg    CleanConfig
}

// NewCleaner builds a cleaner. The geocoder may be nil, in which case the
// fallback step is skipped and unresolvable rows stay unresolved.
func NewCleaner(m *StreetMap, remote Geocoder, cfg CleanConfig) (*Cleaner, error) {
	if m == nil {
		return nil, fmt.Errorf("geocode: cleaner needs a street map")
	}
	if cfg.Phi < 0 || cfg.Phi > 1 {
		return nil, fmt.Errorf("geocode: phi %v out of [0,1]", cfg.Phi)
	}
	if cfg.Beam <= 0 {
		cfg.Beam = 32
	}
	return &Cleaner{mapRef: m, remote: remote, cfg: cfg}, nil
}

// Clean reconciles the location attributes of t in place: address,
// house_number, zip_code, latitude and longitude are rewritten from the
// matched reference entry. It returns the per-row report.
//
// The multi-step algorithm follows §2.1.1: (1) normalize the free-text
// address; (2) find the most similar referenced street via the blocking
// index; (3) if similarity ≥ ϕ adopt the referenced address and
// reconstruct ZIP code, house number and coordinates from the registry;
// (4) otherwise fall back to the remote geocoder while quota lasts.
//
// Certificates repeat addresses — a city has far fewer streets than
// buildings — so step (2) runs once per distinct normalized address of the
// pass, fanned out over cfg.Parallelism workers, and steps (3) and (4)
// then walk the rows in order with the matches at hand.
func (c *Cleaner) Clean(t *table.Table) (*Report, error) {
	addrCodes, addrDict, err := t.StringCodes(epc.AttrAddress)
	if err != nil {
		return nil, fmt.Errorf("geocode: clean: %w", err)
	}
	civicCodes, civicDict, err := t.StringCodes(epc.AttrHouseNumber)
	if err != nil {
		return nil, fmt.Errorf("geocode: clean: %w", err)
	}
	for _, col := range []struct {
		name string
		typ  table.Type
	}{{epc.AttrZIP, table.String}, {epc.AttrLatitude, table.Float64}, {epc.AttrLongitude, table.Float64}} {
		typ, err := t.TypeOf(col.name)
		if err == nil && typ != col.typ {
			err = fmt.Errorf("%w: %q is %v, want %v", table.ErrTypeMismatch, col.name, typ, col.typ)
		}
		if err != nil {
			return nil, fmt.Errorf("geocode: clean: %w", err)
		}
	}

	n := t.NumRows()
	rep := &Report{Rows: n, Methods: make([]Method, n)}
	startRequests := 0
	if c.remote != nil {
		startRequests = c.remote.RequestsUsed()
	}
	// Distinct normalized addresses in first-seen order; keys[i] is row
	// i's position among them. Each address dictionary entry a row uses is
	// normalized once (keyOf[code] is its position + 1), however many rows
	// share it. Rewriting a row's address below appends to the
	// dictionary, never rewrites an entry, so addrDict stays valid.
	var distinct []string
	keys := make([]int32, n)
	keyOf := make([]int32, len(addrDict))
	seen := make(map[string]int32)
	for i, code := range addrCodes {
		if keyOf[code] == 0 {
			norm := textmatch.NormalizeAddress(addrDict[code])
			k, ok := seen[norm]
			if !ok {
				k = int32(len(distinct))
				seen[norm] = k
				distinct = append(distinct, norm)
			}
			keyOf[code] = k + 1
		}
		keys[i] = keyOf[code] - 1
	}
	type streetMatch struct {
		street string
		sim    float64
		ok     bool
	}
	matches := parallel.Map(len(distinct), c.cfg.Parallelism, func(k int) streetMatch {
		street, sim, ok := c.mapRef.MatchStreet(distinct[k], c.cfg.Beam)
		return streetMatch{street, sim, ok}
	})

	for i := 0; i < n; i++ {
		norm, m := distinct[keys[i]], matches[keys[i]]
		addr, civic := addrDict[addrCodes[i]], civicDict[civicCodes[i]]
		if m.ok && m.sim >= c.cfg.Phi {
			entry, found := c.mapRef.civicFor(m.street, normalizeCivic(civic))
			if found {
				if m.sim == 1 && norm == m.street {
					rep.Methods[i] = MethodUntouched
					rep.Untouched++
				} else {
					rep.Methods[i] = MethodStreetMap
					rep.StreetMap++
				}
				if err := c.apply(t, i, entry); err != nil {
					return nil, err
				}
				continue
			}
		}
		// Fallback: remote geocoder, quota permitting.
		if c.remote != nil {
			entry, gerr := c.remote.Geocode(addr + " " + civic)
			if gerr == nil {
				rep.Methods[i] = MethodGeocoder
				rep.Geocoded++
				if err := c.apply(t, i, entry); err != nil {
					return nil, err
				}
				continue
			}
		}
		rep.Methods[i] = MethodUnresolved
		rep.Unresolved++
	}
	if c.remote != nil {
		rep.GeocoderRequests = c.remote.RequestsUsed() - startRequests
	}
	return rep, nil
}

// apply rewrites a row's location attributes from a reference entry.
func (c *Cleaner) apply(t *table.Table, row int, e ReferenceEntry) error {
	if err := t.SetString(epc.AttrAddress, row, e.Street); err != nil {
		return err
	}
	if err := t.SetString(epc.AttrHouseNumber, row, e.HouseNumber); err != nil {
		return err
	}
	if err := t.SetString(epc.AttrZIP, row, e.ZIP); err != nil {
		return err
	}
	if err := t.SetFloat(epc.AttrLatitude, row, e.Point.Lat); err != nil {
		return err
	}
	return t.SetFloat(epc.AttrLongitude, row, e.Point.Lon)
}
