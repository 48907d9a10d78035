// Package server exposes the INDICE dashboards over HTTP, restoring the
// "dynamic and navigable" interaction of the paper's folium front end:
// the browser drills through zoom levels and attributes by navigating
// links, and every map/panel is regenerated server-side from the current
// engine state. JSON endpoints expose the aggregates for programmatic
// clients.
//
// There is one serving mode: a Server (NewLive) serves from a core.Live
// loop over a store. Every request reads the last atomically published
// snapshot state, POST /api/ingest appends certificates (JSON records,
// typed CSV or encoded binary batches), POST /api/refresh re-runs the pipeline,
// and GET /api/store reports the store shape. The paper's batch workflow
// — one frozen dataset — is the same server over a store that was seeded
// once and published once (cmd/indice-server without -ingest). A
// replica's Server has no live loop: it serves queries from the store
// its leader streams to it and redirects the analysis routes to the
// leader. All routes enforce request methods and bounded bodies.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"log"
	"math"
	"mime"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"indice/internal/assoc"
	"indice/internal/core"
	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/obs"
	"indice/internal/query"
	"indice/internal/scaleout"
	"indice/internal/stats"
	"indice/internal/store"
	"indice/internal/table"
)

// maxIngestBody bounds POST /api/ingest bodies (batches); maxSmallBody
// bounds everything else (queries carry no meaningful body).
const (
	maxIngestBody int64 = 64 << 20
	maxSmallBody  int64 = 1 << 20
)

// Server serves the dashboards of a live ingestion loop. Scale-out roles
// layer on top: a leader additionally serves the replication stream, a
// replica serves its replicated store and epoch-pinned partial queries
// (and sends every analysis route to its leader), and a coordinator
// serves scatter-gather queries with no local data at all (see
// NewLiveCluster and NewCoordinator).
type Server struct {
	live    *core.Live
	st      *store.Store
	mux     *http.ServeMux
	cache   *queryCache
	flights flightGroup

	leader  *scaleout.Leader
	replica *scaleout.Replica
	coord   *scaleout.Coordinator
}

// NewLive builds a Server over a live ingestion loop. Requests serve from
// live.Current(); until the first successful refresh publishes a state,
// data routes answer 503 while ingestion and store routes work.
func NewLive(live *core.Live) (*Server, error) {
	return NewLiveCluster(live, ClusterConfig{})
}

// ClusterConfig attaches a scale-out role to a server: a Leader adds the
// replication stream endpoints to a live server; a Replica makes the
// server a replica's.
type ClusterConfig struct {
	Leader  *scaleout.Leader
	Replica *scaleout.Replica
}

// NewLiveCluster builds a Server carrying a scale-out role. A replica runs
// no analysis: it serves /api/query, its store and its sync state from
// the replica's store and snapshot ring, answers every analysis route and
// the pipeline's controls with a 307 to the same path on its leader, and
// refuses ingest. Its server reads no live loop, so live may be nil.
func NewLiveCluster(live *core.Live, cc ClusterConfig) (*Server, error) {
	if cc.Leader != nil && cc.Replica != nil {
		return nil, fmt.Errorf("server: a process is a leader or a replica, not both")
	}
	s := &Server{cache: newQueryCache(), leader: cc.Leader, replica: cc.Replica}
	switch {
	case cc.Replica != nil:
		s.st = cc.Replica.Store()
	case live == nil:
		return nil, fmt.Errorf("server: nil live loop")
	default:
		s.live, s.st = live, live.Store()
	}
	s.routes()
	return s, nil
}

// NewCoordinator builds a Server that serves /api/query by scatter-
// gather over the coordinator's replicas. It holds no engine, store or
// live loop.
func NewCoordinator(coord *scaleout.Coordinator) (*Server, error) {
	if coord == nil {
		return nil, fmt.Errorf("server: nil coordinator")
	}
	s := &Server{coord: coord, cache: newQueryCache()}
	s.routesCoordinator()
	return s, nil
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	// A replica holds rows, not an analysis: the routes that read the
	// published analysis or drive the pipeline live on its leader.
	leaderOnly := func(h http.HandlerFunc) http.HandlerFunc {
		if s.replica != nil {
			return s.redirectToLeader
		}
		return h
	}
	s.handle("/", maxSmallBody, leaderOnly(s.handleIndex), http.MethodGet)
	s.handle("/dashboard/", maxSmallBody, leaderOnly(s.handleDashboard), http.MethodGet)
	s.handle("/map", maxSmallBody, leaderOnly(s.handleMap), http.MethodGet)
	s.handle("/api/stats", maxSmallBody, leaderOnly(s.handleStats), http.MethodGet)
	s.handle("/api/zones", maxSmallBody, leaderOnly(s.handleZones), http.MethodGet)
	s.handle("/api/rules", maxSmallBody, leaderOnly(s.handleRules), http.MethodGet)
	s.handle("/api/clusters", maxSmallBody, leaderOnly(s.handleClusters), http.MethodGet)
	s.handle("/api/query", maxSmallBody, s.handleQuery, http.MethodGet, http.MethodPost)
	s.handle("/api/presets", maxSmallBody, s.handlePresets, http.MethodGet)
	s.handle("/api/store", maxSmallBody, s.handleStore, http.MethodGet)
	s.handle("/api/ingest", maxIngestBody, s.handleIngest, http.MethodPost)
	s.handle("/api/refresh", maxSmallBody, leaderOnly(s.handleRefresh), http.MethodPost)
	s.handle("/api/checkpoint", maxSmallBody, leaderOnly(s.handleCheckpoint), http.MethodPost)
	s.handle("/api/health", maxSmallBody, s.handleHealth, http.MethodGet)
	s.handle("/api/ready", maxSmallBody, s.handleReady, http.MethodGet)
	s.handle("/metrics", maxSmallBody, obs.Handler(obs.Default), http.MethodGet)
	if s.leader != nil {
		s.handle("/api/replicate/info", maxSmallBody, s.handleReplicateInfo, http.MethodGet)
		s.handle("/api/replicate/segments", maxSmallBody, s.leader.ServeSegments, http.MethodGet)
		s.handle("/api/replicate/delta", maxSmallBody, s.leader.ServeDelta, http.MethodGet)
	}
	if s.replica != nil {
		s.handle("/api/replicate/status", maxSmallBody, s.handleReplicateStatus, http.MethodGet)
		s.handle("/api/query/partial", maxSmallBody, s.handlePartialQuery, http.MethodPost)
	}
}

// redirectToLeader answers a replica's analysis routes with a 307 to the
// same path and query on its leader, which keeps the method and body.
func (s *Server) redirectToLeader(w http.ResponseWriter, r *http.Request) {
	http.Redirect(w, r, s.replica.LeaderURL()+r.URL.RequestURI(), http.StatusTemporaryRedirect)
}

// routesCoordinator registers the coordinator's reduced route set: it
// holds no local data, so the dashboard and store routes do not apply.
func (s *Server) routesCoordinator() {
	s.mux = http.NewServeMux()
	s.handle("/api/query", maxSmallBody, s.handleCoordQuery, http.MethodGet, http.MethodPost)
	s.handle("/api/presets", maxSmallBody, s.handlePresets, http.MethodGet)
	s.handle("/api/replicas", maxSmallBody, s.handleReplicas, http.MethodGet)
	s.handle("/api/health", maxSmallBody, s.handleHealth, http.MethodGet)
	s.handle("/api/ready", maxSmallBody, s.handleReady, http.MethodGet)
	s.handle("/metrics", maxSmallBody, obs.Handler(obs.Default), http.MethodGet)
}

// handle registers a route enforcing the allowed request methods (HEAD
// rides along with GET) and bounding the request body. The closure is
// also the observability middleware: it counts in-flight requests,
// times the whole chain into indice_http_request_seconds{route=...},
// accounts the status class, and recovers handler panics into a 500
// (logged with the stack) instead of killing the connection goroutine.
func (s *Server) handle(pattern string, maxBody int64, h http.HandlerFunc, methods ...string) {
	rm := metricsForRoute(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		mHTTPInFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				mHTTPPanics.Inc()
				log.Printf("server: panic serving %s %s: %v\n%s", r.Method, pattern, rec, debug.Stack())
				if sw.code == 0 {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			}
			mHTTPInFlight.Add(-1)
			rm.observe(sw.status(), time.Since(start))
		}()
		allowed := false
		for _, m := range methods {
			if r.Method == m || (m == http.MethodGet && r.Method == http.MethodHead) {
				allowed = true
				break
			}
		}
		if !allowed {
			sw.Header().Set("Allow", strings.Join(methods, ", "))
			http.Error(sw, fmt.Sprintf("method %s not allowed", r.Method), http.StatusMethodNotAllowed)
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, maxBody)
		}
		h(sw, r)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// notPublished is what data routes answer before the first successful
// refresh.
const notPublished = "no analysis published yet: ingest data and refresh"

// notSynced is what a replica's /api/query answers before its first sync.
const notSynced = "no sync from the leader yet"

// published returns the state serving this request: the last published
// engine, analysis and snapshot. Before the first publication it answers
// the uniform 503 and returns nil; handlers bail out on nil.
func (s *Server) published(w http.ResponseWriter) *core.Published {
	pub := s.live.Current()
	if pub == nil {
		http.Error(w, notPublished, http.StatusServiceUnavailable)
	}
	return pub
}

// head returns the snapshot /api/query reads and the epoch it answers
// at: a replica's newest synced snapshot at its leader epoch, which is
// the epoch a coordinator pins, or a node's publication. Before either
// exists it answers 503 and returns a nil snapshot.
func (s *Server) head(w http.ResponseWriter) (uint64, *store.Snapshot) {
	if s.replica != nil {
		epoch, snap, ok := s.replica.Head()
		if !ok {
			http.Error(w, notSynced, http.StatusServiceUnavailable)
		}
		return epoch, snap
	}
	pub := s.published(w)
	if pub == nil {
		return 0, nil
	}
	return pub.Epoch, pub.Snapshot
}

// handleIndex lists the navigable views.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>INDICE</title></head><body>")
	b.WriteString("<h1>INDICE</h1>")
	if pub := s.live.Current(); pub != nil {
		fmt.Fprintf(&b, "<p>%d certificates loaded.</p>", pub.Engine.NumRows())
	} else {
		fmt.Fprintf(&b, "<p>%s</p>", notPublished)
	}
	st := s.st.Status()
	fmt.Fprintf(&b, "<p>live store: %d rows over %d shards (epoch %d).</p>",
		st.Rows, len(st.Shards), st.Epoch)
	b.WriteString("<h2>Dashboards</h2><ul>")
	for _, st := range []query.Stakeholder{query.Citizen, query.PublicAdministration, query.EnergyScientist} {
		fmt.Fprintf(&b, `<li><a href="/dashboard/%s">%s</a></li>`, st, st)
	}
	b.WriteString("</ul><h2>Energy maps (drill-down)</h2><ul>")
	for _, l := range []geo.Level{geo.LevelCity, geo.LevelDistrict, geo.LevelNeighbourhood, geo.LevelUnit} {
		fmt.Fprintf(&b, `<li><a href="/map?level=%s&attr=%s">%s zoom</a></li>`, l, epc.AttrEPH, l)
	}
	b.WriteString("</ul><h2>APIs</h2><ul>")
	apis := []string{
		"/api/stats?attr=" + epc.AttrEPH,
		"/api/zones?level=district&attr=" + epc.AttrEPH,
		"/api/rules?k=10",
		"/api/clusters",
		"/api/query?preset=pa&by=" + epc.AttrDistrict,
		"/api/presets",
		"/api/store",
	}
	for _, api := range apis {
		fmt.Fprintf(&b, `<li><a href="%s">%s</a></li>`, api, html.EscapeString(api))
	}
	b.WriteString("</ul></body></html>")
	w.Header().Set("Content-Type", htmlType)
	fmt.Fprint(w, b.String())
}

const htmlType = "text/html; charset=utf-8"

// pageAnswer wraps a rendered page for the result cache; a page has no
// cached literal to patch.
func pageAnswer(epoch uint64, contentType string, body []byte) *answer {
	return &answer{epoch: epoch, contentType: contentType, body: body, cachedAt: -1}
}

// handleDashboard renders a full stakeholder dashboard. A page is a pure
// function of the publication, so it is rendered once per epoch and then
// served from the result cache.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/dashboard/")
	st, err := query.ParseStakeholder(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.serveCached(w, r, pageLookups, pub.Epoch, "dashboard\x00"+string(st), func(context.Context) (*answer, error) {
		page, err := pub.Engine.DashboardBytes(st, pub.Analysis)
		if err != nil {
			return nil, err
		}
		return pageAnswer(pub.Epoch, htmlType, page), nil
	})
}

// handleMap renders one energy map: /map?level=district&attr=eph. The
// SVG is wrapped in a small HTML page with drill links so the user can
// navigate zoom levels, the paper's core interaction. Cached per epoch
// like the dashboards.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	eng, epoch := pub.Engine, pub.Epoch
	levelName := r.URL.Query().Get("level")
	if levelName == "" {
		levelName = "city"
	}
	level, err := geo.ParseLevel(levelName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		attr = epc.AttrEPH
	}
	if !numericAttr(w, eng, attr) {
		return
	}
	raw := r.URL.Query().Get("raw") == "1"
	key := fmt.Sprintf("map\x00%s\x00%s\x00%t", level, attr, raw)
	s.serveCached(w, r, pageLookups, epoch, key, func(context.Context) (*answer, error) {
		spec := dashboard.MapSpec{
			Title: fmt.Sprintf("Average %s — %s zoom", attr, level),
			Level: level,
			Attr:  attr,
		}
		tab := eng.Table(epc.AttrLatitude, epc.AttrLongitude, attr)
		if raw {
			svg, _, err := dashboard.RenderMap(tab, eng.Hierarchy(), spec)
			if err != nil {
				return nil, err
			}
			return pageAnswer(epoch, "image/svg+xml", svg), nil
		}
		b := []byte("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>INDICE map</title></head><body>")
		b = fmt.Appendf(b, "<p>%s map — drill: ", dashboard.MapKindForLevel(level))
		for _, l := range []geo.Level{geo.LevelCity, geo.LevelDistrict, geo.LevelNeighbourhood, geo.LevelUnit} {
			if l == level {
				b = fmt.Appendf(b, "<b>%s</b> ", l)
			} else {
				b = fmt.Appendf(b, `<a href="/map?level=%s&attr=%s">%s</a> `, l, html.EscapeString(attr), l)
			}
		}
		b = append(b, "| attribute: "...)
		for _, a := range []string{epc.AttrEPH, epc.AttrUOpaque, epc.AttrUWindows, epc.AttrETAH} {
			if a == attr {
				b = fmt.Appendf(b, "<b>%s</b> ", a)
			} else {
				b = fmt.Appendf(b, `<a href="/map?level=%s&attr=%s">%s</a> `, level, a, a)
			}
		}
		b, _, err := dashboard.AppendMap(append(b, "</p>"...), tab, eng.Hierarchy(), spec)
		if err != nil {
			return nil, err
		}
		return pageAnswer(epoch, htmlType, append(b, "</body></html>"...)), nil
	})
}

// numericAttr answers 400 unless attr names a numeric column of the
// serving table: /map, /api/stats and /api/zones refuse a categorical
// attribute and one the serving table does not keep alike.
func numericAttr(w http.ResponseWriter, eng *core.Engine, attr string) bool {
	if typ, err := eng.TypeOf(attr); err != nil || typ != table.Float64 {
		http.Error(w, fmt.Sprintf("unknown numeric attribute %q", attr), http.StatusBadRequest)
		return false
	}
	return true
}

// statsResponse is the JSON shape of /api/stats.
type statsResponse struct {
	Attr   string  `json:"attr"`
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		http.Error(w, "attr query parameter required", http.StatusBadRequest)
		return
	}
	if !numericAttr(w, pub.Engine, attr) {
		return
	}
	vals, err := pub.Engine.Table(attr).ValidFloats(attr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d, err := stats.Describe(vals)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, statsResponse{
		Attr: attr, Count: d.Count, Mean: d.Mean, StdDev: d.StdDev,
		Min: d.Min, Q1: d.Q1, Median: d.Median, Q3: d.Q3, Max: d.Max,
	})
}

// zoneResponse is the JSON shape of one /api/zones element.
type zoneResponse struct {
	ID    string  `json:"id"`
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
}

func (s *Server) handleZones(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	levelName := r.URL.Query().Get("level")
	if levelName == "" {
		levelName = "district"
	}
	level, err := geo.ParseLevel(levelName)
	if err != nil || level == geo.LevelUnit {
		http.Error(w, "level must be city, district or neighbourhood", http.StatusBadRequest)
		return
	}
	attr := r.URL.Query().Get("attr")
	if attr == "" {
		attr = epc.AttrEPH
	}
	if !numericAttr(w, pub.Engine, attr) {
		return
	}
	tab := pub.Engine.Table(epc.AttrLatitude, epc.AttrLongitude, attr)
	zs, err := dashboard.AggregateByZone(tab, pub.Engine.Hierarchy(), level, attr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := make([]zoneResponse, 0, len(zs))
	for _, z := range zs {
		mean := z.Mean
		if math.IsNaN(mean) {
			// Zones without data serialize with mean 0 and count 0; JSON
			// cannot carry NaN.
			mean = 0
		}
		out = append(out, zoneResponse{ID: z.Zone.ID, Name: z.Zone.Name, Count: z.Count, Mean: mean})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, out)
}

// ruleResponse is the JSON shape of one /api/rules element.
type ruleResponse struct {
	Antecedent string  `json:"antecedent"`
	Consequent string  `json:"consequent"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	k := 20
	if raw := r.URL.Query().Get("k"); raw != "" {
		var err error
		if k, err = strconv.Atoi(raw); err != nil || k < 1 {
			http.Error(w, "k must be a positive integer", http.StatusBadRequest)
			return
		}
	}
	top := assoc.TopK(pub.Analysis.Rules, assoc.ByLift, k)
	out := make([]ruleResponse, 0, len(top))
	for _, rule := range top {
		out = append(out, ruleResponse{
			Antecedent: rule.Antecedent.String(),
			Consequent: rule.Consequent.String(),
			Support:    rule.Support,
			Confidence: rule.Confidence,
			Lift:       rule.Lift,
		})
	}
	writeJSON(w, out)
}

// clusterResponse is the JSON shape of one /api/clusters element.
type clusterResponse struct {
	Cluster      int     `json:"cluster"`
	Size         int     `json:"size"`
	MeanResponse float64 `json:"mean_response"`
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	pub := s.published(w)
	if pub == nil {
		return
	}
	an := pub.Analysis
	out := make([]clusterResponse, an.ChosenK)
	for c := 0; c < an.ChosenK; c++ {
		mean := an.ClusterResponseMeans[c]
		if math.IsNaN(mean) {
			mean = 0
		}
		out[c] = clusterResponse{
			Cluster:      c,
			Size:         an.Clustering.Sizes[c],
			MeanResponse: mean,
		}
	}
	writeJSON(w, out)
}

// ingestResponse is the JSON shape of POST /api/ingest.
type ingestResponse struct {
	Accepted int      `json:"accepted"`
	Rejected int      `json:"rejected"`
	Issues   []string `json:"issues,omitempty"`
	Rows     int      `json:"rows"`
}

// handleIngest appends certificates to the live store. The body format
// follows the Content-Type: application/json carries one record object or
// an array of them, text/csv a typed-CSV batch, application/octet-stream
// an encoded binary batch (table.Encode(t).WriteBinary).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.replica != nil {
		http.Error(w, "replica is read-only: ingest at the leader", http.StatusForbidden)
		return
	}
	st := s.st
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	var (
		res store.IngestResult
		err error
	)
	switch ct {
	case "application/json", "":
		recs, derr := decodeRecords(r.Body)
		if derr != nil {
			http.Error(w, fmt.Sprintf("bad JSON body: %v", derr), badBodyStatus(derr))
			return
		}
		res, err = st.AppendRecords(recs)
	case "text/csv":
		res, err = st.AppendCSV(r.Body)
	case "application/octet-stream":
		res, err = st.AppendBinary(r.Body)
	default:
		http.Error(w, fmt.Sprintf("unsupported Content-Type %q (want application/json, text/csv or application/octet-stream)", ct),
			http.StatusUnsupportedMediaType)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), badBodyStatus(err))
		return
	}
	writeJSON(w, ingestResponse{
		Accepted: res.Accepted,
		Rejected: res.Rejected,
		Issues:   res.Issues,
		Rows:     st.Rows(),
	})
}

// decodeStrict decodes the one JSON value a request body holds into v.
// Unknown fields are an error, and so is trailing data after the value (a
// concatenated or newline-delimited stream would otherwise be silently
// truncated to its first document). Numbers bound for an untyped value
// decode as json.Number, keeping full precision until the store coerces
// them.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value (send one value per request)")
	}
	return nil
}

// decodeRecords parses an ingest body holding either one record object or
// an array of records, streaming straight off the (size-limited) body.
func decodeRecords(r io.Reader) ([]store.Record, error) {
	br := bufio.NewReader(r)
	var first byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		first = b
		if err := br.UnreadByte(); err != nil {
			return nil, err
		}
		break
	}
	if first == '[' {
		var recs []store.Record
		err := decodeStrict(br, &recs)
		return recs, err
	}
	var one store.Record
	err := decodeStrict(br, &one)
	return []store.Record{one}, err
}

// badBodyStatus maps body-read failures to 413 when the MaxBytesReader
// tripped and 400 otherwise.
func badBodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// storeResponse is the JSON shape of GET /api/store.
type storeResponse struct {
	store.Status
	Published  *publishedInfo `json:"published,omitempty"`
	Refreshing bool           `json:"refreshing"`
	Refreshes  uint64         `json:"refreshes"`
	// FullRefreshes and IncrementalRefreshes split Refreshes by pipeline:
	// the full Preprocess→Analyze runs versus the delta-proportional fast
	// path (see the published block for the latest delta's sizes).
	FullRefreshes        uint64 `json:"full_refreshes"`
	IncrementalRefreshes uint64 `json:"incremental_refreshes"`
	LastError            string `json:"last_error,omitempty"`
	// LastIncrementalError reports an unexpected fast-path failure whose
	// refresh still completed via the full pipeline.
	LastIncrementalError string `json:"last_incremental_error,omitempty"`
	// LiveStats (?attr=) and LiveCounts (?by=) read the store as it
	// stands: the up-to-the-last-append view, ahead of the published
	// analysis the other APIs serve. LiveStats is the exact aggregate
	// /api/query renders, over every row the store holds.
	LiveStats  *attrStats     `json:"live_stats,omitempty"`
	LiveCounts map[string]int `json:"live_counts,omitempty"`
	QueryCache *cacheInfo     `json:"query_cache,omitempty"`
	// Durability reports the persistence layer (WAL position, checkpoint
	// history, segment residency) when the store runs on a data directory.
	Durability *store.DurabilityStatus `json:"durability,omitempty"`
}

// cacheInfo summarizes the result cache: the /api/query lookup counters
// and what each of its segments holds.
type cacheInfo struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Size      int    `json:"size"`
	Bytes     int    `json:"bytes"`
	Main      int    `json:"main"`
	Probation int    `json:"probation"`
	Ghosts    int    `json:"ghosts"`
}

type publishedInfo struct {
	Epoch       uint64  `json:"epoch"`
	Rows        int     `json:"rows"`
	ServingRows int     `json:"serving_rows"`
	RefreshedAt string  `json:"refreshed_at"`
	TookSeconds float64 `json:"took_seconds"`
	// Incremental marks a state published by the delta-proportional fast
	// path; delta_rows/reused_rows then size the newly materialized
	// versus zero-copy-reused data, and drift is the measured
	// distribution drift since the last full sweep.
	Incremental bool    `json:"incremental"`
	DeltaRows   int     `json:"delta_rows,omitempty"`
	ReusedRows  int     `json:"reused_rows,omitempty"`
	Drift       float64 `json:"drift,omitempty"`
	// TableBytes and LineageBytes estimate the serving table and the
	// incremental lineage's parts beside it; with the store's tail_bytes and
	// sealed_resident_bytes they account for every corpus copy the node owns.
	TableBytes   int `json:"table_bytes"`
	LineageBytes int `json:"lineage_bytes"`
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	st := s.st
	resp := storeResponse{Status: st.Status(), QueryCache: s.cache.stats()}
	if attr := r.URL.Query().Get("attr"); attr != "" {
		totals, err := st.Totals(attr)
		if err != nil {
			http.Error(w, err.Error(), queryErrStatus(err))
			return
		}
		resp.LiveStats = &statsFromAccums([]string{attr}, totals)[0]
	}
	if by := r.URL.Query().Get("by"); by != "" {
		counts, ok := st.CountBy(by)
		if !ok {
			http.Error(w, fmt.Sprintf("attribute %q is not indexed", by), http.StatusBadRequest)
			return
		}
		resp.LiveCounts = counts
	}
	if ds := st.DurabilityStatus(); ds.Enabled {
		resp.Durability = &ds
	}
	if s.live == nil { // a replica runs no refreshes
		writeJSON(w, resp)
		return
	}
	resp.Refreshing = s.live.Refreshing()
	resp.Refreshes = s.live.Refreshes()
	resp.FullRefreshes = s.live.FullRefreshes()
	resp.IncrementalRefreshes = s.live.IncrementalRefreshes()
	resp.LastError, _ = s.live.LastError()
	resp.LastIncrementalError = s.live.LastIncrementalError()
	if pub := s.live.Current(); pub != nil {
		resp.Published = &publishedInfo{
			Epoch:       pub.Epoch,
			Rows:        pub.Rows,
			ServingRows: pub.Engine.NumRows(),
			RefreshedAt: pub.RefreshedAt.UTC().Format("2006-01-02T15:04:05Z"),
			TookSeconds: pub.Took.Seconds(),
			Incremental: pub.Incremental,
			DeltaRows:   pub.DeltaRows,
			ReusedRows:  pub.ReusedRows,
			Drift:       pub.Drift,

			TableBytes:   pub.TableBytes,
			LineageBytes: pub.LineageBytes,
		}
	}
	writeJSON(w, resp)
}

// refreshResponse is the JSON shape of POST /api/refresh.
type refreshResponse struct {
	Epoch       uint64  `json:"epoch"`
	Rows        int     `json:"rows"`
	ServingRows int     `json:"serving_rows"`
	TookSeconds float64 `json:"took_seconds"`
}

// handleRefresh synchronously re-runs the pipeline over a fresh snapshot
// and publishes the result.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	pub, err := s.live.Refresh()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrStoreTooSmall) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, refreshResponse{
		Epoch:       pub.Epoch,
		Rows:        pub.Rows,
		ServingRows: pub.Engine.NumRows(),
		TookSeconds: pub.Took.Seconds(),
	})
}

// handleCheckpoint forces a checkpoint of the durable store: tails are
// sealed and persisted, the manifest commits and the covered WAL files
// are pruned. 409 for in-memory stores (no -data-dir).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.st.DurabilityStatus().Enabled {
		http.Error(w, "store has no data directory (start with -data-dir)", http.StatusConflict)
		return
	}
	res, err := s.st.Checkpoint()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, res)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
