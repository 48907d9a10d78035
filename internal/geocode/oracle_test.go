package geocode

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"indice/internal/epc"
	"indice/internal/synth"
	"indice/internal/table"
	"indice/internal/textmatch"
)

// oracleClean is the pre-rewrite body of Cleaner.Clean: one street-map
// search per row, in row order. The per-distinct-address pass must
// reproduce its report, its rewritten cells and its geocoder traffic.
func oracleClean(c *Cleaner, t *table.Table) (*Report, error) {
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

// recordingGeocoder logs every address it is asked for, so two passes can
// be compared request by request.
type recordingGeocoder struct {
	Geocoder
	asked []string
}

func (g *recordingGeocoder) Geocode(address string) (ReferenceEntry, error) {
	g.asked = append(g.asked, address)
	return g.Geocoder.Geocode(address)
}

var cleanedColumns = []string{epc.AttrAddress, epc.AttrHouseNumber, epc.AttrZIP, epc.AttrLatitude, epc.AttrLongitude}

func assertCleanedColumnsEqual(t *testing.T, got, want *table.Table) {
	t.Helper()
	for _, name := range cleanedColumns {
		gv, _ := got.ValidMask(name)
		wv, _ := want.ValidMask(name)
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("column %s: validity differs", name)
		}
		if gs, err := got.Strings(name); err == nil {
			ws, _ := want.Strings(name)
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("column %s differs", name)
			}
			continue
		}
		gf, _ := got.Floats(name)
		wf, _ := want.Floats(name)
		for i := range wf {
			if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
				t.Fatalf("column %s row %d: %v, want %v", name, i, gf[i], wf[i])
			}
		}
	}
}

func TestCleanMatchesRowAtATimeOracle(t *testing.T) {
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 60, 12
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 1500
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	dirty, _, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]ReferenceEntry, len(city.Entries))
	for i, e := range city.Entries {
		entries[i] = ReferenceEntry{Street: e.Street, HouseNumber: e.HouseNumber, ZIP: e.ZIP, Point: e.Point}
	}
	m, err := NewStreetMap(entries)
	if err != nil {
		t.Fatal(err)
	}

	geocoders := map[string]func() Geocoder{
		"nil":      func() Geocoder { return nil },
		"quota50":  func() Geocoder { return NewMockGeocoder(m, 50) },
		"quota-1":  func() Geocoder { return NewMockGeocoder(m, -1) },
		"cached50": func() Geocoder { return NewCachedGeocoder(NewMockGeocoder(m, 50)) },
	}
	corpora := map[string]*table.Table{"clean": ds.Table, "corrupted": dirty}
	// ϕ = 0.97 rejects every typo, so the geocoder sees hundreds of rows
	// and the 50-request quota runs out mid-pass.
	for _, phi := range []float64{0.8, 0.97} {
		for cname, corpus := range corpora {
			for gname, newGeocoder := range geocoders {
				cfg := CleanConfig{Phi: phi, Beam: 32}
				var wantAsked []string
				wantTab := corpus.Clone()
				remote := newGeocoder()
				var rec *recordingGeocoder
				if remote != nil {
					rec = &recordingGeocoder{Geocoder: remote}
					remote = rec
				}
				oc, err := NewCleaner(m, remote, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleClean(oc, wantTab)
				if err != nil {
					t.Fatal(err)
				}
				if rec != nil {
					wantAsked = rec.asked
				}
				if phi == 0.97 && cname == "corrupted" && gname == "quota50" &&
					(want.GeocoderRequests != 50 || want.Unresolved == 0) {
					t.Fatalf("quota did not run out mid-pass: %d requests, %d unresolved", want.GeocoderRequests, want.Unresolved)
				}

				for _, workers := range []int{0, 1, 2, 8} {
					name := fmt.Sprintf("phi=%v/%s/%s/workers=%d", phi, cname, gname, workers)
					cfg.Parallelism = workers
					gotTab := corpus.Clone()
					remote := newGeocoder()
					var rec *recordingGeocoder
					if remote != nil {
						rec = &recordingGeocoder{Geocoder: remote}
						remote = rec
					}
					cl, err := NewCleaner(m, remote, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cl.Clean(gotTab)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: report differs:\n got %d/%d/%d/%d req %d\nwant %d/%d/%d/%d req %d", name,
							got.Untouched, got.StreetMap, got.Geocoded, got.Unresolved, got.GeocoderRequests,
							want.Untouched, want.StreetMap, want.Geocoded, want.Unresolved, want.GeocoderRequests)
					}
					if rec != nil && !reflect.DeepEqual(rec.asked, wantAsked) {
						t.Fatalf("%s: geocoder saw %d requests in a different order than the oracle's %d", name, len(rec.asked), len(wantAsked))
					}
					assertCleanedColumnsEqual(t, gotTab, wantTab)
				}
			}
		}
	}
}
