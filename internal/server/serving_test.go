package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/geocode"
	"indice/internal/query"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// cleaningServer is a live node over a seeded synthetic corpus with the
// whole pipeline on: geospatial cleaning, outlier screening, analysis and
// the incremental fast path. The first base rows are published by a cold
// refresh, the rest by an incremental one.
func cleaningServer(t *testing.T, base, total int) (*httptest.Server, *core.Live, *store.Store) {
	t.Helper()
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 40, 10
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = total
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		t.Fatal(err)
	}
	scfg := store.DefaultConfig()
	scfg.Shards = 2
	st, err := store.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := core.DefaultAnalysisConfig()
	acfg.KMax = 4
	live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{
		Analysis:    acfg,
		Options:     core.Options{StreetMap: sm, Geocoder: geocode.NewMockGeocoder(sm, 2000)},
		Incremental: core.IncrementalConfig{DriftThreshold: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range [][2]int{{0, base}, {base, total}} {
		part, err := ds.Table.View(rows[0], rows[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendTable(part); err != nil {
			t.Fatal(err)
		}
		pub, err := live.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		if pub.Incremental != (i == 1) {
			t.Fatalf("refresh %d: incremental=%v (%s)", i, pub.Incremental, live.LastIncrementalError())
		}
	}
	s, err := NewLive(live)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, live, st
}

// TestServingReadersOnNarrowedTable: the serving table keeps only the
// columns its readers name, and every reader still answers over it — the
// statistics of every numeric attribute the store holds, the zone and map
// aggregations, the dashboards, the rules and the clusters.
func TestServingReadersOnNarrowedTable(t *testing.T) {
	ts, live, st := cleaningServer(t, 1500, 1800)
	served := live.Current().Engine.Table()
	if served.NumCols() >= len(st.Schema()) {
		t.Fatalf("serving table keeps %d of the store's %d columns", served.NumCols(), len(st.Schema()))
	}
	numeric := 0
	for _, f := range st.Schema() {
		if f.Type != table.Float64 {
			continue
		}
		numeric++
		code, body := get(t, ts.URL+"/api/stats?attr="+f.Name)
		if code != http.StatusOK {
			t.Errorf("/api/stats?attr=%s: status %d: %s", f.Name, code, body)
			continue
		}
		var got struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil || got.Count == 0 {
			t.Errorf("/api/stats?attr=%s: count %d (%v)", f.Name, got.Count, err)
		}
	}
	if numeric == 0 {
		t.Fatal("the store schema has no numeric column")
	}
	paths := []string{
		"/api/zones?level=district", "/api/zones?level=neighbourhood",
		"/map?level=city", "/map?level=district", "/map?level=neighbourhood", "/map?level=unit",
		"/api/rules", "/api/clusters",
	}
	for _, s := range query.Stakeholders() {
		paths = append(paths, "/dashboard/"+string(s))
	}
	for _, p := range paths {
		if code, body := get(t, ts.URL+p); code != http.StatusOK {
			t.Errorf("%s: status %d: %s", p, code, body)
		}
	}
}

// TestNonNumericAttrRefusedAlike: /api/stats, /api/zones and /map refuse
// an attribute that is not numeric with one answer, whether the serving
// table keeps the column (energy class) or not (building type).
func TestNonNumericAttrRefusedAlike(t *testing.T) {
	ts, live, _ := cleaningServer(t, 1500, 1800)
	served := live.Current().Engine.Table()
	if !served.HasColumn(epc.AttrEnergyClass) || served.HasColumn("building_type") {
		t.Fatalf("serving table columns %v: want energy_class kept and building_type dropped", served.ColumnNames())
	}
	for _, attr := range []string{epc.AttrEnergyClass, "building_type"} {
		want := fmt.Sprintf("unknown numeric attribute %q\n", attr)
		for _, route := range []string{"/api/stats", "/api/zones", "/map"} {
			code, body := get(t, ts.URL+route+"?attr="+attr)
			if code != http.StatusBadRequest || body != want {
				t.Errorf("%s?attr=%s: %d %q, want 400 %q", route, attr, code, body, want)
			}
		}
	}
}
