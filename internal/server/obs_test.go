package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// classValue reads one status-class counter of a route. The registry is
// process-global, so tests assert deltas, never absolute values.
func classValue(route, class string) uint64 {
	rm := metricsForRoute(route)
	for i, c := range statusClasses {
		if c == class {
			return rm.classes[i].Value()
		}
	}
	return 0
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Touch a data route first so request series carry samples.
	if code, _ := get(t, ts.URL+"/api/stats?attr="+"eph"); code != http.StatusOK {
		t.Log("warm-up route answered non-200 (fine for the exposition check)")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// One family per instrumented layer, plus runtime stats: the
	// exposition must span store, refresh, query, server and process.
	for _, family := range []string{
		"# TYPE indice_store_ingest_rows_accepted_total counter",
		"# TYPE indice_refresh_total counter",
		"# TYPE indice_query_plans_total counter",
		"# TYPE indice_http_requests_total counter",
		"# TYPE indice_http_request_seconds histogram",
		"# TYPE indice_http_in_flight_requests gauge",
		"# TYPE indice_query_cache_hits_total counter",
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
	if !strings.Contains(text, `route="/api/stats"`) {
		t.Error("exposition missing per-route series for /api/stats")
	}
}

func TestMiddlewareStatusClassAccounting(t *testing.T) {
	ts := testServer(t)
	url := ts.URL + "/api/stats"

	ok2xx := classValue("/api/stats", "2xx")
	bad4xx := classValue("/api/stats", "4xx")

	if code, _ := get(t, url+"?attr=eph"); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if code, _ := get(t, url); code != http.StatusBadRequest {
		t.Fatalf("missing attr status = %d", code)
	}
	// Method enforcement runs inside the middleware, so a 405 must be
	// accounted like any handler-produced status.
	resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}

	if got := classValue("/api/stats", "2xx") - ok2xx; got != 1 {
		t.Errorf("2xx delta = %d, want 1", got)
	}
	if got := classValue("/api/stats", "4xx") - bad4xx; got != 2 {
		t.Errorf("4xx delta = %d, want 2 (400 + 405)", got)
	}
	if v := mHTTPInFlight.Value(); v != 0 {
		t.Errorf("in-flight gauge = %v after requests drained, want 0", v)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	// A bare Server with one panicking route exercises the middleware in
	// isolation; the stack-trace log is silenced for the test run.
	old := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(old)

	s := &Server{mux: http.NewServeMux()}
	s.handle("/boom", maxSmallBody, func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}, http.MethodGet)
	ts := httptest.NewServer(s.mux)
	defer ts.Close()

	panics := mHTTPPanics.Value()
	boom5xx := classValue("/boom", "5xx")

	code, body := get(t, ts.URL+"/boom")
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", code)
	}
	if !strings.Contains(body, "internal server error") {
		t.Fatalf("body = %q", body)
	}
	if got := mHTTPPanics.Value() - panics; got != 1 {
		t.Errorf("panic counter delta = %d, want 1", got)
	}
	if got := classValue("/boom", "5xx") - boom5xx; got != 1 {
		t.Errorf("5xx delta = %d, want 1", got)
	}

	// The connection survives: the same client can keep requesting.
	if code, _ := get(t, ts.URL+"/boom"); code != http.StatusInternalServerError {
		t.Fatalf("second request status = %d, want 500", code)
	}
}

// TestHealthEndpointStatic: a frozen boot reports like every published
// node — mode "live", its epoch and its refresh count.
func TestHealthEndpointStatic(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/health")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var h struct {
		Status    string `json:"status"`
		Mode      string `json:"mode"`
		Rows      int    `json:"rows"`
		Published bool   `json:"published"`
		Epoch     uint64 `json:"epoch"`
		Refreshes uint64 `json:"refreshes"`
		HTTP      struct {
			Requests uint64  `json:"requests"`
			InFlight float64 `json:"in_flight"`
		} `json:"http"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("bad health JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Mode != "live" || !h.Published || h.Epoch == 0 || h.Refreshes != 1 {
		t.Errorf("health = %+v", h)
	}
	if h.Rows != 1200 {
		t.Errorf("health reports %d rows for a server seeded with 1200", h.Rows)
	}
	code, body = get(t, ts.URL+"/api/ready")
	if code != http.StatusOK || !strings.Contains(body, `"mode": "live"`) {
		t.Errorf("ready = %d %s", code, body)
	}
	if h.HTTP.Requests == 0 {
		t.Error("health reports zero requests after at least one was served")
	}
}

func TestHealthEndpointLiveStarting(t *testing.T) {
	ts, live, _ := liveServer(t, 10)
	if live.Current() != nil {
		t.Fatal("live server unexpectedly published")
	}
	code, body := get(t, ts.URL+"/api/health")
	if code != http.StatusOK {
		t.Fatalf("status = %d (health must stay 200 while starting)", code)
	}
	var h struct {
		Status    string `json:"status"`
		Mode      string `json:"mode"`
		Published bool   `json:"published"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("bad health JSON: %v\n%s", err, body)
	}
	if h.Status != "starting" || h.Mode != "live" || h.Published {
		t.Errorf("health = %+v, want starting/live/unpublished", h)
	}
}

func TestCacheStatsReadThroughRegistry(t *testing.T) {
	ts := testServer(t)
	hits, misses := mCacheHits.Value(), mCacheMisses.Value()
	url := ts.URL + "/api/query?q=eph+%3E%3D+50"
	if code, _ := get(t, url); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if code, _ := get(t, url); code != http.StatusOK {
		t.Fatalf("repeat query status = %d", code)
	}
	if got := mCacheMisses.Value() - misses; got != 1 {
		t.Errorf("cache miss delta = %d, want 1", got)
	}
	if got := mCacheHits.Value() - hits; got != 1 {
		t.Errorf("cache hit delta = %d, want 1", got)
	}
}
