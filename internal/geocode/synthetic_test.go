package geocode_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"indice/internal/epc"
	"indice/internal/geocode"
	"indice/internal/synth"
	"indice/internal/table"
)

// The tests over a synthetic city live in the external test package:
// synth imports geocode (City.ReferenceEntries), so the in-package test
// files cannot import synth.

// recordingGeocoder logs every address it is asked for, so two passes can
// be compared request by request.
type recordingGeocoder struct {
	geocode.Geocoder
	asked []string
}

func (g *recordingGeocoder) Geocode(address string) (geocode.ReferenceEntry, error) {
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
	m, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		t.Fatal(err)
	}

	geocoders := map[string]func() geocode.Geocoder{
		"nil":     func() geocode.Geocoder { return nil },
		"quota50": func() geocode.Geocoder { return geocode.NewMockGeocoder(m, 50) },
		"quota-1": func() geocode.Geocoder { return geocode.NewMockGeocoder(m, -1) },
	}
	corpora := map[string]*table.Table{"clean": ds.Table, "corrupted": dirty}
	// ϕ = 0.97 rejects every typo, so the geocoder sees hundreds of rows
	// and the 50-request quota runs out mid-pass.
	for _, phi := range []float64{0.8, 0.97} {
		for cname, corpus := range corpora {
			for gname, newGeocoder := range geocoders {
				cfg := geocode.CleanConfig{Phi: phi, Beam: 32}
				var wantAsked []string
				wantTab := corpus.Clone()
				remote := newGeocoder()
				var rec *recordingGeocoder
				if remote != nil {
					rec = &recordingGeocoder{Geocoder: remote}
					remote = rec
				}
				oc, err := geocode.NewCleaner(m, remote, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := geocode.OracleClean(oc, wantTab)
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
					cl, err := geocode.NewCleaner(m, remote, cfg)
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

func TestCleanerEndToEndSynthetic(t *testing.T) {
	// Full pipeline over the synthetic city: corrupt then clean, and
	// measure that cleaning recovers most damaged addresses.
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 60, 12
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 1200
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	dirty, truth, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		t.Fatal(err)
	}

	m, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := geocode.NewCleaner(m, geocode.NewMockGeocoder(m, 500), geocode.DefaultCleanConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Clean(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unresolved > rep.Rows/20 {
		t.Fatalf("unresolved = %d of %d", rep.Unresolved, rep.Rows)
	}

	// Recovery rate over rows with planted typos.
	addr, _ := dirty.Strings(epc.AttrAddress)
	recovered := 0
	for _, r := range truth.TypoRows {
		if addr[r] == truth.Address[r] {
			recovered++
		}
	}
	rate := float64(recovered) / float64(len(truth.TypoRows))
	if rate < 0.9 {
		t.Fatalf("typo recovery rate = %.3f (%d/%d)", rate, recovered, len(truth.TypoRows))
	}
}

func BenchmarkCleanerClean(b *testing.B) {
	ccfg := synth.DefaultCityConfig()
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 2000
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	dirty, _, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		b.Fatal(err)
	}
	m, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := dirty.Clone()
		cl, _ := geocode.NewCleaner(m, geocode.NewMockGeocoder(m, 1000), geocode.DefaultCleanConfig())
		if _, err := cl.Clean(work); err != nil {
			b.Fatal(err)
		}
	}
}
