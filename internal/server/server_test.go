package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/store"
	"indice/internal/synth"
)

// testServer spins an httptest server over a frozen boot: a store seeded
// with a small synthetic corpus and published once, the way
// cmd/indice-server serves a dataset without -ingest.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 40, 10
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
	st, err := store.New(store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{
		Analysis:    core.AnalysisConfig{KMax: 3},
		Incremental: core.IncrementalConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	s, err := NewLive(live)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// servingRows reads how many certificates the publication serves (the
// seeded rows minus what preprocessing dropped) off /api/store.
func servingRows(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	code, body := get(t, ts.URL+"/api/store")
	if code != http.StatusOK {
		t.Fatalf("store status = %d: %s", code, body)
	}
	var st struct {
		Rows      int `json:"rows"`
		Published struct {
			ServingRows int `json:"serving_rows"`
		} `json:"published"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad store JSON: %v", err)
	}
	if n := st.Published.ServingRows; n == 0 || n > st.Rows || st.Rows != 1200 {
		t.Fatalf("serving %d of %d seeded rows", n, st.Rows)
	}
	return st.Published.ServingRows
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestNewNilEngine: every constructor refuses to build a server over
// nothing.
func TestNewNilEngine(t *testing.T) {
	if _, err := NewLive(nil); err == nil {
		t.Fatal("want error for a nil live loop")
	}
	if _, err := NewLiveCluster(nil, ClusterConfig{}); err == nil {
		t.Fatal("want error for a nil live loop with a cluster role")
	}
	if _, err := NewCoordinator(nil); err == nil {
		t.Fatal("want error for a nil coordinator")
	}
}

func TestIndex(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"INDICE", "/dashboard/citizen", "/map?level=city"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", code)
	}
}

func TestDashboardRoutes(t *testing.T) {
	ts := testServer(t)
	for _, s := range []string{"citizen", "public-administration", "energy-scientist"} {
		code, body := get(t, ts.URL+"/dashboard/"+s)
		if code != http.StatusOK {
			t.Fatalf("%s status = %d", s, code)
		}
		if !strings.Contains(body, "<svg") {
			t.Fatalf("%s dashboard has no panels", s)
		}
	}
	if code, _ := get(t, ts.URL+"/dashboard/alien"); code != http.StatusNotFound {
		t.Fatalf("alien status = %d", code)
	}
}

func TestMapRoute(t *testing.T) {
	ts := testServer(t)
	for _, level := range []string{"city", "district", "neighbourhood", "unit"} {
		code, body := get(t, ts.URL+"/map?level="+level+"&attr="+epc.AttrUOpaque)
		if code != http.StatusOK {
			t.Fatalf("%s status = %d", level, code)
		}
		if !strings.Contains(body, "<svg") {
			t.Fatalf("%s map missing svg", level)
		}
		// Navigation links to the other levels.
		if !strings.Contains(body, "/map?level=") {
			t.Fatalf("%s map missing drill links", level)
		}
	}
	// Raw SVG mode.
	resp, err := http.Get(ts.URL + "/map?level=city&raw=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("raw content type = %q", ct)
	}
	// Bad parameters.
	if code, _ := get(t, ts.URL+"/map?level=galaxy"); code != http.StatusBadRequest {
		t.Fatalf("bad level status = %d", code)
	}
	if code, _ := get(t, ts.URL+"/map?attr=energy_class"); code != http.StatusBadRequest {
		t.Fatalf("categorical attr status = %d", code)
	}
	if code, _ := get(t, ts.URL+"/map?attr=ghost"); code != http.StatusBadRequest {
		t.Fatalf("unknown attr status = %d", code)
	}
}

func TestStatsAPI(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/stats?attr="+epc.AttrEPH)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var got struct {
		Attr  string  `json:"attr"`
		Count int     `json:"count"`
		Mean  float64 `json:"mean"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if got.Attr != epc.AttrEPH || got.Count != servingRows(t, ts) || got.Mean <= 0 {
		t.Fatalf("stats = %+v", got)
	}
	if code, _ := get(t, ts.URL+"/api/stats"); code != http.StatusBadRequest {
		t.Fatalf("missing attr status = %d", code)
	}
	if code, _ := get(t, ts.URL+"/api/stats?attr=ghost"); code != http.StatusBadRequest {
		t.Fatalf("unknown attr status = %d", code)
	}
}

func TestZonesAPI(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/zones?level=district&attr="+epc.AttrEPH)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var zones []struct {
		ID    string  `json:"id"`
		Count int     `json:"count"`
		Mean  float64 `json:"mean"`
	}
	if err := json.Unmarshal([]byte(body), &zones); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(zones) != 8 {
		t.Fatalf("districts = %d", len(zones))
	}
	total := 0
	for _, z := range zones {
		total += z.Count
	}
	if total != servingRows(t, ts) {
		t.Fatalf("zone counts sum to %d", total)
	}
	if code, _ := get(t, ts.URL+"/api/zones?level=unit"); code != http.StatusBadRequest {
		t.Fatalf("unit level status = %d", code)
	}
}

func TestRulesAndClustersAPI(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/rules?k=5")
	if code != http.StatusOK {
		t.Fatalf("rules status = %d: %s", code, body)
	}
	var rules []struct {
		Antecedent string  `json:"antecedent"`
		Lift       float64 `json:"lift"`
	}
	if err := json.Unmarshal([]byte(body), &rules); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rules) == 0 || len(rules) > 5 {
		t.Fatalf("rules = %d", len(rules))
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Lift > rules[i-1].Lift+1e-12 {
			t.Fatal("rules not sorted by lift")
		}
	}
	for _, k := range []string{"zero", "0", "-3", "12abc", "1e3", "5 "} {
		if code, _ := get(t, ts.URL+"/api/rules?k="+url.QueryEscape(k)); code != http.StatusBadRequest {
			t.Errorf("k=%q status = %d, want 400", k, code)
		}
	}

	code, body = get(t, ts.URL+"/api/clusters")
	if code != http.StatusOK {
		t.Fatalf("clusters status = %d", code)
	}
	var clusters []struct {
		Cluster int `json:"cluster"`
		Size    int `json:"size"`
	}
	if err := json.Unmarshal([]byte(body), &clusters); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(clusters) < 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
}
