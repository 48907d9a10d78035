package server

import (
	"net/http"
	"sync"
	"time"

	"indice/internal/obs"
)

// HTTP-layer metric handles, resolved once at init (conventions in
// internal/store/metrics.go). Per-route series live in routeMetrics,
// resolved at route registration so the request path never pays a
// registry lookup.
var (
	mHTTPInFlight   = obs.Default.Gauge("indice_http_in_flight_requests", "Requests currently being served.")
	mHTTPPanics     = obs.Default.Counter("indice_http_panics_total", "Handler panics recovered by the middleware (answered as 500).")
	mCacheHits      = obs.Default.Counter("indice_query_cache_hits_total", "/api/query result cache hits (process-wide, across server instances).")
	mCacheMisses    = obs.Default.Counter("indice_query_cache_misses_total", "/api/query result cache misses (process-wide, across server instances).")
	mPageHits       = obs.Default.Counter("indice_page_cache_hits_total", "Dashboard and map pages served from the result cache.")
	mPageMisses     = obs.Default.Counter("indice_page_cache_misses_total", "Dashboard and map page lookups that missed the result cache.")
	mCacheBytes     = obs.Default.Gauge("indice_query_cache_bytes", "Encoded body bytes resident in the result cache (query answers and pages).")
	mCachePromoted  = obs.Default.Counter("indice_query_cache_promotions_total", "Answers that entered the result cache's main LRU on their key's second ask: a probation hit, or a ghost's new answer (query answers and pages).")
	mQueryCoalesced = obs.Default.Counter("indice_query_coalesced_total", "Requests that waited on another request's in-flight identical computation instead of recomputing (single-flight).")

	queryLookups = cacheCounters{mCacheHits, mCacheMisses}
	pageLookups  = cacheCounters{mPageHits, mPageMisses}

	serverStart = time.Now()
)

// statusClasses are the label values of indice_http_requests_total.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// routeMetrics carries one route's series: the latency histogram and a
// counter per status class. All five class counters are resolved
// eagerly so the /metrics exposition is shape-stable from process boot.
type routeMetrics struct {
	seconds *obs.Histogram
	classes [len(statusClasses)]*obs.Counter
}

var (
	routeMu  sync.Mutex
	routeObs = make(map[string]*routeMetrics)
)

// metricsForRoute resolves (or returns the cached) per-route series.
// Routes are shared process-wide: two servers registering the same
// pattern account into the same series, like every other registry
// metric.
func metricsForRoute(pattern string) *routeMetrics {
	routeMu.Lock()
	defer routeMu.Unlock()
	if rm, ok := routeObs[pattern]; ok {
		return rm
	}
	rm := &routeMetrics{
		seconds: obs.Default.Histogram("indice_http_request_seconds",
			"End-to-end request latency by route, measured around the whole middleware chain.",
			"route", pattern),
	}
	for i, class := range statusClasses {
		rm.classes[i] = obs.Default.Counter("indice_http_requests_total",
			"Requests served, by route and status class.",
			"route", pattern, "class", class)
	}
	routeObs[pattern] = rm
	return rm
}

// observe accounts one finished request.
func (rm *routeMetrics) observe(status int, took time.Duration) {
	rm.seconds.ObserveDuration(took)
	i := status/100 - 1
	if i < 0 {
		i = 0
	} else if i >= len(rm.classes) {
		i = len(rm.classes) - 1
	}
	rm.classes[i].Inc()
}

// mergedRouteLatency folds every route's latency histogram into one
// snapshot — the process-wide request latency distribution behind the
// /api/health quantiles.
func mergedRouteLatency() obs.HistSnapshot {
	routeMu.Lock()
	defer routeMu.Unlock()
	var snap obs.HistSnapshot
	for _, rm := range routeObs {
		snap.Merge(rm.seconds.Load())
	}
	return snap
}

// statusWriter captures the response status for class accounting. The
// first explicit WriteHeader wins (matching net/http, which ignores and
// warns on later calls); an implicit write counts as 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// status returns the effective status (200 if the handler never wrote —
// net/http sends 200 on an empty-body return as well).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
