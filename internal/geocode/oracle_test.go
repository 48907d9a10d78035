package geocode

import (
	"indice/internal/epc"
	"indice/internal/table"
	"indice/internal/textmatch"
)

// OracleClean is the pre-rewrite body of Cleaner.Clean: one street-map
// search per row, in row order. The per-distinct-address pass must
// reproduce its report, its rewritten cells and its geocoder traffic.
func OracleClean(c *Cleaner, t *table.Table) (*Report, error) {
	addr, err := t.Strings(epc.AttrAddress)
	if err != nil {
		return nil, err
	}
	civic, err := t.Strings(epc.AttrHouseNumber)
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	rep := &Report{Rows: n, Methods: make([]Method, n)}
	startRequests := 0
	if c.remote != nil {
		startRequests = c.remote.RequestsUsed()
	}
	for i := 0; i < n; i++ {
		norm := textmatch.NormalizeAddress(addr[i])
		hn := normalizeCivic(civic[i])

		street, sim, ok := c.mapRef.MatchStreet(norm, c.cfg.Beam)
		if ok && sim >= c.cfg.Phi {
			entry, found := c.mapRef.civicFor(street, hn)
			if found {
				if sim == 1 && norm == street {
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
		if c.remote != nil {
			entry, gerr := c.remote.Geocode(addr[i] + " " + civic[i])
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
