package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"indice/internal/core"
	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/geocode"
	"indice/internal/obs"
	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/scaleout"
	"indice/internal/server"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// perLayer is BENCHMARK.json's per_layer list: what single layers cost,
// keyed <layer>.<what>[.<class>] with this repository's package names as
// layers. The traced run prints all of them; nothing gates on them.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	per := func(prefix string, classes ...class) []string {
		out := make([]string, len(classes))
		for i, c := range classes {
			out[i] = prefix + "." + string(c)
		}
		return out
	}
	queries := []class{statsHit, rowsHit, statsMiss, rowsMiss}
	all := append(append([]class(nil), queries...), pageClass, mapClass, ingestCls, refreshCl)
	// client: one connection to the real binary, the reference the
	// budget reconciles with.
	add("ms", "lower", per("client.p50_ms", all...)...)
	add("ms", "lower", per("client.p99_ms", append(append([]class(nil), queries...), ingestCls)...)...)
	add("B", "lower", per("client.resp_bytes", append(append([]class(nil), queries...), pageClass)...)...)
	add("ms", "lower", "client.visit_p50_ms")
	// http: what arriving over a socket adds to the handler, and the part
	// of it that carrying a canned answer of the class's size explains.
	add("ms", "lower", per("http.self_ms", append(append([]class(nil), queries...), pageClass, mapClass)...)...)
	add("ms", "lower", per("http.floor_ms", append(append([]class(nil), queries...), pageClass, mapClass)...)...)
	// server: ServeHTTP on a recorder, its self time, allocation, and the
	// real server's own per-route timings.
	add("ms", "lower", per("server.handler_ms", all...)...)
	add("ms", "lower", per("server.self_ms", statsMiss, rowsMiss, pageClass)...)
	add("KB", "lower", per("server.alloc_kb_per_req", statsHit, rowsHit, rowsMiss)...)
	add("ms", "lower", "server.route_ms.query", "server.route_ms.ingest", "server.route_ms.refresh",
		"server.route_ms.dashboard", "server.route_ms.map")
	add("ratio", "higher", "server.cache_hit_ratio")
	// query: DSL parse and canonical rendering.
	add("us", "lower", "query.parse_us")
	add("ratio", "lower", "query.parse_share.stats_miss")
	// store, read side.
	add("ms", "lower", "store.queryagg_ms", "store.query_ms")
	add("ratio", "lower", "store.scanned_rows_per_matched")
	add("ratio", "higher", "store.indexed_share", "store.pruned_shard_share")
	add("ms", "lower", "store.snapshot_ms")
	// table.
	add("ms/krow", "lower", "table.take_ms_per_krow", "table.encode_ms_per_krow", "table.csv_parse_ms_per_krow")
	add("B/row", "lower", "table.encoded_bytes_per_row")
	// store, write side.
	add("ms", "lower", "store.append_ms", "store.append_durable_ms", "store.wal_append_ms")
	add("count", "lower", "store.wal_fsyncs_per_batch")
	add("B/row", "lower", "store.wal_bytes_per_row")
	add("ms", "lower", "store.checkpoint_ms", "store.ingest_stall_max_ms")
	add("s", "lower", "store.recover_s")
	add("ratio", "lower", "store.disk_amp")
	// core.
	add("s", "lower", "core.refresh_full_s")
	add("ms", "lower", "core.refresh_incr_ms")
	add("s", "lower", "core.stage_s.materialize", "core.stage_s.preprocess", "core.stage_s.analyze")
	add("ms", "lower", "core.stage_ms.delta", "core.stage_ms.screen", "core.stage_ms.warm_kmeans")
	add("ms", "lower", "core.dashboard_ms.citizen", "core.dashboard_ms.public-administration", "core.dashboard_ms.energy-scientist")
	// dashboard and render.
	add("ms", "lower", "dashboard.rendermap_ms.unit", "dashboard.rendermap_ms.neighbourhood", "dashboard.rendermap_ms.district")
	add("B", "lower", "render.page_bytes.citizen", "render.page_bytes.public-administration", "render.page_bytes.energy-scientist")
	// scaleout.
	add("ms", "lower", "scaleout.leg_ms.stats", "scaleout.leg_ms.rows", "scaleout.self_ms.stats", "scaleout.self_ms.rows")
	add("count", "lower", "scaleout.legs_per_query")
	add("s", "lower", "scaleout.sync_s")
	add("B/row", "lower", "scaleout.sync_bytes_per_row")
	// trace: how well the budget adds up, and what in-process serving costs.
	add("ratio", "lower", per("trace.reconcile_ratio", statsHit, rowsHit, statsMiss, rowsMiss, pageClass)...)
	add("ratio", "lower", "trace.overhead_ratio")
	return defs
}

// inproc is the server wired inside the benchmark process exactly as
// cmd/indice-server's buildLive wires it (-ingest -n 0 -shards 4
// -refresh-interval 0): store.DefaultConfig -> core.NewLive ->
// server.NewLive. The parity check keeps this copy from drifting.
type inproc struct {
	hier   *geo.Hierarchy
	cfg    core.LiveConfig
	st     *store.Store
	live   *core.Live
	srv    *server.Server
	url    string
	stops  []func()
	cancel context.CancelFunc
}

// liveConfig is buildLive's configuration at the server's default flags.
func liveConfig() (*geo.Hierarchy, core.LiveConfig, error) {
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		return nil, core.LiveConfig{}, err
	}
	var opts core.Options
	entries := make([]geocode.ReferenceEntry, len(city.Entries))
	for i, e := range city.Entries {
		entries[i] = geocode.ReferenceEntry{Street: e.Street, HouseNumber: e.HouseNumber, ZIP: e.ZIP, Point: e.Point}
	}
	if sm, err := geocode.NewStreetMap(entries); err == nil {
		opts.StreetMap = sm
		opts.Geocoder = geocode.NewMockGeocoder(sm, 2000)
	}
	pcfg := core.DefaultPreprocessConfig()
	pcfg.Parallelism = parallel.Auto
	acfg := core.DefaultAnalysisConfig()
	acfg.KMax = 10
	acfg.Parallelism = parallel.Auto
	return city.Hierarchy, core.LiveConfig{Preprocess: pcfg, Analysis: acfg, Options: opts}, nil
}

func storeConfig() store.Config {
	scfg := store.DefaultConfig()
	scfg.Shards = 4
	return scfg
}

// serve puts a handler on an ephemeral loopback port with
// cmd/indice-server's timeouts and returns its base URL.
func (ip *inproc) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 2 * time.Minute,
		WriteTimeout: 5 * time.Minute, IdleTimeout: 2 * time.Minute}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
		close(done)
	}()
	ip.stops = append(ip.stops, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

func (ip *inproc) close() {
	for i := len(ip.stops) - 1; i >= 0; i-- {
		ip.stops[i]()
	}
	if ip.cancel != nil {
		ip.cancel()
	}
}

// suite is one traced run: the real reference node, the in-process
// stack, the spans and the metrics derived so far.
type suite struct {
	h     *harness
	tr    *tracer
	root  int
	m     map[string]float64
	tally *tally
	n     int // requests per query class and layer
	reps  int // repetitions per page and map path
	ip    *inproc
	// canned holds answers captured from the handler probes, replayed by
	// the canned server to time HTTP alone.
	canned map[class][]cannedBody
	answer bytes.Buffer // the handler probes' reused answer buffer
}

type cannedBody struct {
	group int
	body  []byte
}

// runTraced runs the traced suite. The suite is the same whatever
// workload is named: the driver wants every per-layer metric from every
// traced run, and the metrics are keyed by request class, not workload.
// Its size is fixed (120 requests per query class and layer, 5 rounds
// of pages and maps: 35-45 s), not derived from -seconds.
func runTraced(h *harness, opts options) (*result, error) {
	s := &suite{h: h, tr: newTracer(), m: make(map[string]float64), tally: newTally(),
		n: 120, reps: 5, canned: make(map[class][]cannedBody)}
	if opts.smoke {
		s.n, s.reps = 24, 1
	}
	s.root = s.tr.open("suite", 0)
	if err := s.run(); err != nil {
		return nil, err
	}
	s.tr.close(s.root)

	var budgets []budget
	for _, cl := range budgetClasses {
		b, err := budgetOf(s.tr.spans, cl)
		if err != nil {
			return nil, err
		}
		budgets = append(budgets, b)
		s.m["http.self_ms."+string(cl)] = b.HTTP
		s.m["http.floor_ms."+string(cl)] = b.Floor
		if cl != mapClass {
			s.m["trace.reconcile_ratio."+string(cl)] = b.Reconcile
		}
		if cl == statsMiss || cl == rowsMiss || cl == pageClass {
			s.m["server.self_ms."+string(cl)] = b.ServerSelf
		}
	}
	spanFile := filepath.Join(opts.root, ".bench_build", fmt.Sprintf("spans-seed%d.jsonl", opts.seed))
	if err := writeSpans(spanFile, s.tr.spans); err != nil {
		return nil, err
	}

	res, err := newResult(perLayer, s.m, s.tally.attempted, s.tally.failed, s.tally.problems)
	if err != nil {
		return nil, err
	}
	units := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	fmt.Fprintf(opts.log, "\n== traced suite, seed %d: %d operations attempted, %d failed, %d answers checked ==\n",
		opts.seed, s.tally.attempted, s.tally.failed, s.tally.checked)
	printMetrics(opts.log, s.m, units)
	printBudgets(opts.log, budgets)
	fmt.Fprintf(opts.log, "%d spans written to %s\n", len(s.tr.spans), spanFile)
	for _, p := range s.tally.problems {
		fmt.Fprintf(opts.log, "  CHECK FAILED: %s\n", p)
	}
	return res, nil
}

func (s *suite) run() error {
	ref, err := s.h.bootSingle(true)
	if err != nil {
		return err
	}
	defer ref.close()
	if err := s.bootInproc(); err != nil {
		return err
	}
	defer s.ip.close()
	steps := []func(*topology) error{
		s.parity, s.hitPhase, s.visitPhase, s.missPhase, s.refWrite,
		s.probeCanned, s.probeTable, s.probeCluster,
		s.probeWrites, s.probeDurable,
	}
	for _, step := range steps {
		if err := step(ref); err != nil {
			return err
		}
		if err := ref.alive(); err != nil {
			return err
		}
	}
	return nil
}

// probe opens a probe span under the suite's root.
func (s *suite) probe(name string) int { return s.tr.open(name, s.root) }

// obsScrape reads the benchmark process's own registry, which the
// in-process stack reports into, in the same form as a /metrics scrape.
func obsScrape() scrape {
	var b bytes.Buffer
	_ = obs.Default.WritePrometheus(&b) // writes to a buffer cannot fail
	return parseScrape(b.Bytes())
}

// bootInproc builds the in-process stack over the same corpus the
// reference node was loaded with, timing the load and the first refresh.
func (s *suite) bootInproc() error {
	hier, cfg, err := liveConfig()
	if err != nil {
		return err
	}
	st, err := store.New(storeConfig())
	if err != nil {
		return err
	}
	for _, body := range s.h.load {
		if _, err := st.AppendCSV(bytes.NewReader(body)); err != nil {
			return err
		}
	}
	live, err := core.NewLive(st, hier, cfg)
	if err != nil {
		return err
	}
	p := s.probe("core.refresh_full")
	before := obsScrape()
	start := time.Now()
	if _, err := live.Refresh(); err != nil {
		return err
	}
	s.m["core.refresh_full_s"] = time.Since(start).Seconds()
	s.tr.add(p, "core.refresh", refreshCl, 0, 0, start, time.Since(start))
	s.tr.close(p)
	after := obsScrape()
	for _, stage := range []string{"materialize", "preprocess", "analyze"} {
		mean, _ := after.meanSince(before, `indice_stage_seconds{stage="refresh.`+stage+`"}`)
		s.m["core.stage_s."+stage] = mean
	}
	ctx, cancel := context.WithCancel(context.Background())
	go live.AutoRefresh(ctx, 0)
	srv, err := server.NewLive(live)
	if err != nil {
		cancel()
		return err
	}
	s.ip = &inproc{hier: hier, cfg: cfg, st: st, live: live, srv: srv, cancel: cancel}
	s.ip.url, err = s.ip.serve(srv)
	return err
}

var cachedField = regexp.MustCompile(`"cached":\s*(true|false)`)

// parity requires the in-process server and the real binary to answer
// the eight fixed queries byte for byte, "cached" aside.
func (s *suite) parity(ref *topology) error {
	rc, ic := newClient(ref.query.url()), newClient(s.ip.url)
	defer rc.close()
	defer ic.close()
	for _, r := range hotRequests(s.h.c) {
		real, _, err := rc.mustOK(http.MethodGet, r.path, "", nil)
		if err != nil {
			return err
		}
		real = cachedField.ReplaceAll(real, []byte(`"cached":_`))
		mine, _, err := ic.mustOK(http.MethodGet, r.path, "", nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(real, cachedField.ReplaceAll(mine, []byte(`"cached":_`))) {
			s.tally.problem("wiring parity: %s answers differ between the real binary and the in-process server", r.path)
		}
	}
	return nil
}

// realGet is one measured request to the reference node.
func (s *suite) realGet(c *client, p int, cl class, group, req int, path string) ([]byte, bool) {
	body, took, ok := s.tally.fetch(c, cl, group, path)
	if ok {
		s.tr.add(p, "client.real", cl, group, req, time.Now().Add(-took), took)
	}
	return body, ok
}

// clientMetrics derives the client.* metrics of a class from the
// reference node's spans and the tally's answer sizes.
func (s *suite) clientMetrics(cl class, p99, size bool) {
	if v, ok := layerP50(s.tr.spans, "client.real", cl); ok {
		s.m["client.p50_ms."+string(cl)] = v
	}
	if p99 {
		s.m["client.p99_ms."+string(cl)] = quantile(collect(s.tr.spans, "client.real", cl).all(), 0.99)
	}
	if size {
		s.m["client.resp_bytes."+string(cl)] = s.tally.of(cl).meanBytes()
	}
}

// traceCycles is how many ingest-and-refresh cycles the write probes
// run; each appends traceCycleBatches 250-row batches.
const (
	traceCycles       = 3
	traceCycleBatches = 4
)

// deltaBodies renders the corpus's delta rows as 250-row CSV bodies.
func (s *suite) deltaBodies(n int) ([][]byte, error) {
	c := s.h.c
	return c.csvBatches(c.base, c.base+n*deltaBatchRows, deltaBatchRows)
}

// refWrite sends ingest-and-refresh cycles to the durable reference
// node, one connection, back to back, then reads the routes' own
// timings and the disk footprint.
func (s *suite) refWrite(ref *topology) error {
	deltas, err := s.deltaBodies(traceCycles * traceCycleBatches)
	if err != nil {
		return err
	}
	c := newClient(ref.ingest.url())
	defer c.close()
	before, err := ref.scrape()
	if err != nil {
		return err
	}
	csvBytes := 0
	for _, b := range s.h.load {
		csvBytes += len(b)
	}
	acked := s.h.c.base
	p := s.probe("ref.write")
	var stall float64
	for i, body := range deltas {
		s.tally.attempted++
		status, answer, took, err := c.post("/api/ingest", "text/csv", body)
		var ack ingestAck
		if err != nil || status != http.StatusOK || json.Unmarshal(answer, &ack) != nil || ack.Accepted != deltaBatchRows {
			s.tally.failed++
			return fmt.Errorf("reference ingest: status %d, error %v, answer %s", status, err, answer)
		}
		acked += ack.Accepted
		csvBytes += len(body)
		s.tr.add(p, "client.real", ingestCls, 0, i, time.Now().Add(-took), took)
		if ms := float64(took) / float64(time.Millisecond); ms > stall {
			stall = ms
		}
		if (i+1)%traceCycleBatches == 0 {
			s.tally.attempted++
			took, err := refresh(c, acked)
			if err != nil {
				s.tally.failed++
				return err
			}
			s.tr.add(p, "client.real", refreshCl, 0, i, time.Now().Add(-took), took)
		}
	}
	s.tr.close(p)
	after, err := ref.scrape()
	if err != nil {
		return err
	}
	s.clientMetrics(ingestCls, true, false)
	s.clientMetrics(refreshCl, false, false)
	s.m["store.ingest_stall_max_ms"] = stall
	disk, err := dirBytes(ref.dataDir)
	if err != nil {
		return err
	}
	s.m["store.disk_amp"] = float64(disk) / float64(csvBytes)
	// Queries, dashboards and maps since boot (set-up issues none that
	// matter); ingest and refresh over this phase only, so the bulk load
	// and the first full refresh stay out.
	for _, r := range []struct {
		name, pattern string
		since         scrape
	}{
		{"query", "/api/query", nil}, {"dashboard", "/dashboard/", nil}, {"map", "/map", nil},
		{"ingest", "/api/ingest", before}, {"refresh", "/api/refresh", before},
	} {
		mean, _ := after.meanSince(r.since, `indice_http_request_seconds{route="`+r.pattern+`"}`)
		s.m["server.route_ms."+r.name] = mean * 1000
	}
	return nil
}

// sink is the ResponseWriter of the handler probes: it keeps the answer
// in a buffer that is reused across requests, so the handler pays one
// copy of its output, as it does when writing to a socket.
type sink struct {
	header http.Header
	code   int
	body   *bytes.Buffer
}

func (w *sink) Header() http.Header { return w.header }

func (w *sink) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *sink) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// handle runs one request through the in-process server's ServeHTTP and
// records it as a server.handler span. The returned answer is only
// valid until the next call.
func (s *suite) handle(p int, cl class, group, req int, method, path, ctype string, body []byte) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r := httptest.NewRequest(method, path, rd)
	if ctype != "" {
		r.Header.Set("Content-Type", ctype)
	}
	s.answer.Reset()
	w := &sink{header: make(http.Header), body: &s.answer}
	s.tally.attempted++
	s.tr.call(p, "server.handler", cl, group, req, func() { s.ip.srv.ServeHTTP(w, r) })
	if w.code != http.StatusOK {
		s.tally.failed++
		s.tally.problem("handler %s %s: status %d: %s", method, path, w.code, bytes.TrimSpace(s.answer.Bytes()))
		s.tr.spans = s.tr.spans[:len(s.tr.spans)-1]
		return nil, false
	}
	return s.answer.Bytes(), true
}

// keep stores an answer for the canned server, at most eight per class
// and group.
func (s *suite) keep(cl class, group int, body []byte) {
	n := 0
	for _, cb := range s.canned[cl] {
		if cb.group == group {
			n++
		}
	}
	if n < 8 {
		s.canned[cl] = append(s.canned[cl], cannedBody{group, append([]byte(nil), body...)})
	}
}

// allocKB runs fn and returns the KB allocated per call of it.
func allocKB(calls int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1024 / float64(calls)
}

func (s *suite) handlerMetric(cl class) {
	if v, ok := layerP50(s.tr.spans, "server.handler", cl); ok {
		s.m["server.handler_ms."+string(cl)] = v
	}
}

// front is the three ways one stream of requests is served in turn: by
// the real binary (client.real), by the in-process server's ServeHTTP
// called directly (server.handler), and by the in-process server behind
// its socket (client.inproc). Taking turns request by request puts all
// three under the same conditions — the same mix of classes before each
// request, the same state of the host — so their differences mean
// something: socket minus handler is what arriving over a socket adds,
// in-process socket against real binary is what the budget is worth.
type front struct {
	s    *suite
	p    int
	real *client
	mine *client
}

func (s *suite) newFront(name string, ref *topology) *front {
	return &front{s: s, p: s.probe(name), real: newClient(ref.query.url()), mine: newClient(s.ip.url)}
}

func (f *front) close() {
	f.s.tr.close(f.p)
	f.real.close()
	f.mine.close()
}

// send serves the request the way its turn says and returns the real
// binary's answer when that was the way.
func (f *front) send(turn int, cl class, group, req int, path string) (realAnswer []byte) {
	s := f.s
	switch turn % 3 {
	case 0:
		body, _ := s.realGet(f.real, f.p, cl, group, req, path)
		return body
	case 1:
		if answer, ok := s.handle(f.p, cl, group, req, http.MethodGet, path, "", nil); ok {
			s.keep(cl, group, answer)
		}
	default:
		s.tally.attempted++
		status, _, took, err := f.mine.get(path)
		if err != nil || status != http.StatusOK {
			s.tally.failed++
			s.tally.problem("in-process GET %s: status %d, error %v", path, status, err)
			break
		}
		s.tr.add(f.p, "client.inproc", cl, group, req, time.Now().Add(-took), took)
	}
	return nil
}

// allocProbe is how many direct handler calls the allocation
// measurement of a class makes, after the timed probes.
const allocProbe = 16

// hitPhase serves the fixed queries, all cached by now (the parity check
// computed them on both servers), in the order dash_hot sends them:
// stats-shaped and row-page requests alternating.
func (s *suite) hitPhase(ref *topology) error {
	hot := hotRequests(s.h.c)
	before, err := ref.scrape()
	if err != nil {
		return err
	}
	f := s.newFront("phase.hit", ref)
	for i := 0; i < 6*s.n; i++ {
		r := hot[i/3%len(hot)]
		f.send(i, r.class, r.group, i, r.path)
	}
	f.close()
	after, err := ref.scrape()
	if err != nil {
		return err
	}
	s.m["server.cache_hit_ratio"] = cacheRatio(before, after)
	if r := s.m["server.cache_hit_ratio"]; r < 0.99 {
		s.tally.problem("hit phase cache hit ratio on the real node %.4f, want >= 0.99", r)
	}
	for _, cl := range []class{statsHit, rowsHit} {
		s.clientMetrics(cl, true, true)
		s.handlerMetric(cl)
		var mine []request
		for _, r := range hot {
			if r.class == cl {
				mine = append(mine, r)
			}
		}
		s.m["server.alloc_kb_per_req."+string(cl)] = allocKB(allocProbe, func() {
			for i := 0; i < allocProbe; i++ {
				s.handle(0, "alloc", 0, i, http.MethodGet, mine[i%len(mine)].path, "", nil)
			}
		})
	}
	return nil
}

// missPhase serves the cold stream — like the workloads, stats-shaped
// requests and row pages alternating — and then times the parser and
// the store on streams of their own, so that no probe meets a cache an
// earlier one filled.
func (s *suite) missPhase(ref *topology) error {
	pub := s.ip.live.Current()
	if pub == nil || pub.Snapshot == nil {
		return fmt.Errorf("in-process stack has no published snapshot")
	}
	g := newColdGen(s.h.c, streamSeed(s.h.seed, 21))
	f := s.newFront("phase.miss", ref)
	for i := 0; i < 6*s.n; i++ {
		r := g.next(i/3%2 == 1)
		if body := f.send(i, r.class, r.group, i, r.path); body != nil && i%(3*checkEvery) == 0 {
			s.h.checkCold(s.tally, r, body, false)
		}
	}
	f.close()
	for _, cl := range []class{statsMiss, rowsMiss} {
		s.clientMetrics(cl, true, true)
		s.handlerMetric(cl)
	}
	g = newColdGen(s.h.c, streamSeed(s.h.seed, 22))
	s.m["server.alloc_kb_per_req.rows_miss"] = allocKB(allocProbe, func() {
		for i := 0; i < allocProbe; i++ {
			s.handle(0, "alloc", 0, i, http.MethodGet, g.next(true).path, "", nil)
		}
	})

	for _, cl := range []class{statsMiss, rowsMiss} {
		rows := cl == rowsMiss
		// Parser.
		g := newColdGen(s.h.c, streamSeed(s.h.seed, 23))
		p := s.probe("probe.parse." + string(cl))
		for i := 0; i < s.n; i++ {
			r := g.next(rows)
			var perr error
			s.tr.call(p, "query.parse", cl, r.group, i, func() {
				var pred query.Predicate
				if pred, perr = query.Parse(r.q); perr == nil {
					_ = pred.String()
				}
			})
			if perr != nil {
				return fmt.Errorf("parse %q: %w", r.q, perr)
			}
		}
		s.tr.close(p)

		// Store.
		g = newColdGen(s.h.c, streamSeed(s.h.seed, 24))
		name := innerCall[cl]
		p = s.probe("probe." + name)
		var plan store.PlanStats
		for i := 0; i < s.n; i++ {
			r := g.next(rows)
			pred, err := query.Parse(r.q)
			if err != nil {
				return err
			}
			var ps store.PlanStats
			var qerr error
			s.tr.call(p, name, cl, r.group, i, func() {
				if rows {
					_, ps, qerr = pub.Snapshot.Query(pred, parallel.Auto)
				} else {
					_, ps, qerr = pub.Snapshot.QueryAgg(pred, store.AggSpec{By: r.by, Attrs: r.attrs}, parallel.Auto)
				}
			})
			if qerr != nil {
				return fmt.Errorf("%s %q: %w", name, r.q, qerr)
			}
			plan.Shards += ps.Shards
			plan.PrunedShards += ps.PrunedShards
			plan.IndexedShards += ps.IndexedShards
			plan.CandidateRows += ps.CandidateRows
			plan.ScannedRows += ps.ScannedRows
			plan.MatchedRows += ps.MatchedRows
		}
		s.tr.close(p)
		v, _ := layerP50(s.tr.spans, name, cl)
		if rows {
			s.m["store.query_ms"] = v
			s.m["store.scanned_rows_per_matched"] = float64(plan.CandidateRows+plan.ScannedRows) / float64(plan.MatchedRows)
			s.m["store.indexed_share"] = float64(plan.IndexedShards) / float64(plan.Shards)
			s.m["store.pruned_shard_share"] = float64(plan.PrunedShards) / float64(plan.Shards)
		} else {
			s.m["store.queryagg_ms"] = v
		}
	}
	parse := append(collect(s.tr.spans, "query.parse", statsMiss).all(), collect(s.tr.spans, "query.parse", rowsMiss).all()...)
	s.m["query.parse_us"] = quantile(parse, 0.5) * 1000
	if v, ok := layerP50(s.tr.spans, "query.parse", statsMiss); ok {
		s.m["query.parse_share.stats_miss"] = v / s.m["server.handler_ms.stats_miss"]
	}
	real := s.m["client.p50_ms.stats_miss"] + s.m["client.p50_ms.rows_miss"]
	var mine float64
	for _, cl := range []class{statsMiss, rowsMiss} {
		v, _ := layerP50(s.tr.spans, "client.inproc", cl)
		mine += v
	}
	s.m["trace.overhead_ratio"] = mine / real
	return nil
}

// visitPhase repeats the dashboard visit, served the three ways in turn,
// and times the direct calls into core and dashboard behind its pages.
func (s *suite) visitPhase(ref *topology) error {
	pub := s.ip.live.Current()
	eng, an := pub.Engine, pub.Analysis
	f := s.newFront("phase.visit", ref)
	defer f.close()
	p := f.p
	var visits []float64
	for rep := 0; rep < s.reps; rep++ {
		for turn := 0; turn < 3; turn++ {
			first := len(s.tr.spans)
			for i, path := range visitPaths {
				f.send(turn, visitClass(i), i, rep, path)
			}
			if turn == 0 {
				var total float64
				for _, sp := range s.tr.spans[first:] {
					total += float64(sp.End-sp.Start) / 1e6
				}
				visits = append(visits, total)
			}
		}
		for i, st := range query.Stakeholders() {
			var page string
			var err error
			s.tr.call(p, "core.dashboard", pageClass, i+1, rep, func() { page, err = eng.Dashboard(st, an) })
			if err != nil {
				return err
			}
			s.m["render.page_bytes."+string(st)] = float64(len(page))
		}
		for i, level := range []geo.Level{geo.LevelCity, geo.LevelDistrict, geo.LevelNeighbourhood, geo.LevelUnit} {
			cl := mapClass
			if level == geo.LevelUnit {
				cl = "map_unit" // not part of a visit; measured for its own metric
			}
			var err error
			s.tr.call(p, "dashboard.rendermap", cl, i+4, rep, func() {
				_, _, err = dashboard.RenderMap(eng.Table(), eng.Hierarchy(), dashboard.MapSpec{
					Title: fmt.Sprintf("Average %s — %s zoom", epc.AttrEPH, level), Level: level, Attr: epc.AttrEPH})
			})
			if err != nil {
				return err
			}
		}
	}
	s.m["client.visit_p50_ms"] = quantile(visits, 0.5)
	s.clientMetrics(pageClass, false, true)
	s.clientMetrics(mapClass, false, false)
	s.handlerMetric(pageClass)
	s.handlerMetric(mapClass)
	for i, st := range query.Stakeholders() {
		s.m["core.dashboard_ms."+string(st)] = groupP50(s.tr.spans, "core.dashboard", pageClass, i+1)
	}
	s.m["dashboard.rendermap_ms.district"] = groupP50(s.tr.spans, "dashboard.rendermap", mapClass, 5)
	s.m["dashboard.rendermap_ms.neighbourhood"] = groupP50(s.tr.spans, "dashboard.rendermap", mapClass, 6)
	s.m["dashboard.rendermap_ms.unit"] = groupP50(s.tr.spans, "dashboard.rendermap", "map_unit", 7)
	return nil
}

// groupP50 is the median of one group's spans.
func groupP50(spans []span, name string, cl class, group int) float64 {
	return quantile(collect(spans, name, cl).ms[group], 0.5)
}

// cannedEnv, when set, turns the benchmark binary into the canned
// server: it names the directory of answers to serve.
const cannedEnv = "INDICE_BENCH_CANNED"

// cannedHandler writes back bodies[path], nothing else.
func cannedHandler(bodies map[string][]byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, ok := bodies[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b) // a client that went away is its own failure
	})
}

// serveCanned serves the files of dir, named <class>.<index>, at
// /c/<class>/<index>, announcing its address the way indice-server
// does. It returns only on failure.
func serveCanned(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	bodies := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		cl, i, _ := strings.Cut(e.Name(), ".")
		bodies["/c/"+cl+"/"+i] = b
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving INDICE on %s\n", ln.Addr())
	return http.Serve(ln, cannedHandler(bodies))
}

// probeCanned times HTTP alone: a handler that only writes back an
// answer captured earlier, of the class's real size, served in turn by
// a second process (this binary, as the canned server) and by this one.
// The second process is there because waking another process is part of
// what a request to the real server pays.
func (s *suite) probeCanned(*topology) error {
	dir, err := os.MkdirTemp(s.h.tmp, "canned-")
	if err != nil {
		return err
	}
	bodies := make(map[string][]byte)
	for cl, kept := range s.canned {
		for i, cb := range kept {
			bodies[fmt.Sprintf("/c/%s/%d", cl, i)] = cb.body
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.%d", cl, i)), cb.body, 0o644); err != nil {
				return err
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	srv, err := startProcUntil(servingLine, []string{cannedEnv + "=" + dir}, "canned", self)
	if err != nil {
		return err
	}
	defer srv.kill()
	mine, err := s.ip.serve(cannedHandler(bodies))
	if err != nil {
		return err
	}
	clients := []*client{newClient(srv.url()), newClient(mine)}
	defer clients[0].close()
	defer clients[1].close()
	names := []string{"http.canned", "http.canned_inproc"}
	for _, cl := range budgetClasses {
		kept := s.canned[cl]
		if len(kept) == 0 {
			return fmt.Errorf("no answer of class %s was captured for the canned server", cl)
		}
		n := 2 * s.n
		if cl == pageClass || cl == mapClass {
			n = 8 * s.reps * len(kept)
		}
		p := s.probe("probe.canned." + string(cl))
		for i := 0; i < n; i++ {
			k := i / 2 % len(kept)
			status, _, took, err := clients[i%2].get(fmt.Sprintf("/c/%s/%d", cl, k))
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("canned %s/%d: status %d, error %v", cl, k, status, err)
			}
			s.tr.add(p, names[i%2], cl, kept[k].group, i, time.Now().Add(-took), took)
		}
		s.tr.close(p)
	}
	return nil
}

// probeTable times the table kernels the store leans on.
func (s *suite) probeTable(*topology) error {
	pub := s.ip.live.Current()
	p := s.probe("probe.table")
	defer s.tr.close(p)

	encs, err := pub.Snapshot.ShardEncoded(0)
	if err != nil || len(encs) == 0 {
		return fmt.Errorf("shard 0 has no encoded segment (%v)", err)
	}
	enc := encs[0]
	rng := rand.New(rand.NewSource(s.h.seed))
	k := enc.NumRows() / 4
	if k > 1000 {
		k = 1000
	}
	var take []float64
	for rep := 0; rep < 20; rep++ {
		rows := rng.Perm(enc.NumRows())[:k]
		sort.Ints(rows)
		start := time.Now()
		if _, err := enc.Take(rows); err != nil {
			return err
		}
		d := time.Since(start)
		s.tr.add(p, "table.take", "", 0, rep, start, d)
		take = append(take, float64(d)/float64(time.Millisecond)*1000/float64(k))
	}
	s.m["table.take_ms_per_krow"] = quantile(take, 0.5)

	segRows := storeConfig().SegmentRows
	if segRows > s.h.c.base {
		segRows = s.h.c.base
	}
	seg, err := s.h.c.tab.Slice(0, segRows)
	if err != nil {
		return err
	}
	var encode []float64
	var sealed *table.Encoded
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		sealed = table.Encode(seg)
		d := time.Since(start)
		s.tr.add(p, "table.encode", "", 0, rep, start, d)
		encode = append(encode, float64(d)/float64(time.Millisecond)*1000/float64(segRows))
	}
	s.m["table.encode_ms_per_krow"] = quantile(encode, 0.5)
	s.m["table.encoded_bytes_per_row"] = float64(sealed.SizeBytes()) / float64(segRows)

	var parse []float64
	for rep := 0; rep < 3; rep++ {
		body := s.h.load[rep%len(s.h.load)]
		start := time.Now()
		t, err := table.ReadCSV(bytes.NewReader(body))
		if err != nil {
			return err
		}
		d := time.Since(start)
		s.tr.add(p, "table.readcsv", "", 0, rep, start, d)
		parse = append(parse, float64(d)/float64(time.Millisecond)*1000/float64(t.NumRows()))
	}
	s.m["table.csv_parse_ms_per_krow"] = quantile(parse, 0.5)
	return nil
}

// probeCluster builds leader, two replicas and coordinator in process,
// as buildLive/buildReplica/buildCoordinator wire them, and times one
// direct partial-query leg against the coordinator's whole answer.
func (s *suite) probeCluster(*topology) error {
	ip := s.ip
	leaderSrv, err := server.NewLiveCluster(ip.live, server.ClusterConfig{Leader: scaleout.NewLeader(ip.st)})
	if err != nil {
		return err
	}
	leaderURL, err := ip.serve(leaderSrv)
	if err != nil {
		return err
	}
	ctx := context.Background()
	hc := &http.Client{Timeout: 60 * time.Second}
	info, err := scaleout.FetchLeaderInfo(ctx, hc, leaderURL)
	if err != nil {
		return err
	}
	p := s.probe("probe.cluster")
	defer s.tr.close(p)
	before := obsScrape()
	var urls []string
	var replicas []*scaleout.Replica
	var syncs []float64
	for i := 0; i < 2; i++ {
		scfg := store.DefaultConfig()
		scfg.Shards, scfg.SegmentRows = info.Shards, info.SegmentRows
		rst, err := store.New(scfg)
		if err != nil {
			return err
		}
		rlive, err := core.NewLive(rst, ip.hier, ip.cfg)
		if err != nil {
			return err
		}
		repl := scaleout.NewReplica(rst, leaderURL, hc, 200*time.Millisecond)
		rsrv, err := server.NewLiveCluster(rlive, server.ClusterConfig{Replica: repl})
		if err != nil {
			return err
		}
		url, err := ip.serve(rsrv)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := repl.SyncOnce(ctx); err != nil {
			return fmt.Errorf("replica sync: %w", err)
		}
		d := time.Since(start)
		s.tr.add(p, "scaleout.sync", "", 0, i, start, d)
		syncs = append(syncs, d.Seconds())
		if got := rst.Rows(); got != ip.st.Rows() {
			s.tally.problem("replica %d holds %d rows after sync, leader %d", i+1, got, ip.st.Rows())
		}
		urls = append(urls, url)
		replicas = append(replicas, repl)
	}
	after := obsScrape()
	s.m["scaleout.sync_s"] = quantile(syncs, 0.5)
	s.m["scaleout.sync_bytes_per_row"] = after.since(before, "indice_repl_serve_bytes_total") / float64(2*ip.st.Rows())

	coord, err := scaleout.NewCoordinator(scaleout.CoordinatorConfig{Replicas: urls, Timeout: 5 * time.Second, HedgeAfter: 250 * time.Millisecond})
	if err != nil {
		return err
	}
	ip.stops = append(ip.stops, coord.Close)
	coord.PollStatus(ctx)
	csrv, err := server.NewCoordinator(coord)
	if err != nil {
		return err
	}
	coordURL, err := ip.serve(csrv)
	if err != nil {
		return err
	}

	epoch := replicas[0].Status().AppliedEpoch
	legClient, coordClient := newClient(urls[0]), newClient(coordURL)
	defer legClient.close()
	defer coordClient.close()
	n := s.n / 2
	for _, cl := range []class{statsMiss, rowsMiss} {
		rows := cl == rowsMiss
		short := "stats"
		if rows {
			short = "rows"
		}
		// One leg: the first replica's half of the shards.
		g := newColdGen(s.h.c, streamSeed(s.h.seed, 25))
		for i := 0; i < n; i++ {
			r := g.next(rows)
			pred, err := query.Parse(r.q)
			if err != nil {
				return err
			}
			spec, err := json.Marshal(scaleout.QuerySpec{Q: pred.String(), Attrs: r.attrs, By: r.by, Epoch: epoch,
				ShardFrom: 0, ShardTo: info.Shards / 2, RowsLimit: r.limit})
			if err != nil {
				return err
			}
			s.tally.attempted++
			status, answer, took, err := legClient.post("/api/query/partial", "application/json", spec)
			if err != nil || status != http.StatusOK {
				s.tally.failed++
				s.tally.problem("partial leg %s: status %d, error %v: %s", r.q, status, err, answer)
				continue
			}
			s.tr.add(p, "scaleout.leg", cl, r.group, i, time.Now().Add(-took), took)
		}
		// The coordinator's whole answer.
		g = newColdGen(s.h.c, streamSeed(s.h.seed, 26))
		fanBefore := obsScrape()
		answered := 0
		for i := 0; i < n; i++ {
			r := g.next(rows)
			s.tally.attempted++
			status, body, took, err := coordClient.get(r.path)
			if err != nil || status != http.StatusOK {
				s.tally.failed++
				s.tally.problem("coordinator %s: status %d, error %v", r.path, status, err)
				continue
			}
			answered++
			s.tr.add(p, "scaleout.coord", cl, r.group, i, time.Now().Add(-took), took)
			if i%checkEvery == 0 {
				s.h.checkCold(s.tally, r, body, true)
			}
		}
		leg, _ := layerP50(s.tr.spans, "scaleout.leg", cl)
		whole, _ := layerP50(s.tr.spans, "scaleout.coord", cl)
		s.m["scaleout.leg_ms."+short] = leg
		s.m["scaleout.self_ms."+short] = whole - leg
		if rows && answered > 0 {
			s.m["scaleout.legs_per_query"] = obsScrape().since(fanBefore, "indice_coord_fanout_total") / float64(answered)
		}
	}
	return nil
}

// probeWrites appends deltas to the in-process store and refreshes it
// incrementally: directly (store.AppendCSV, Snapshot, Live.Refresh) on
// even cycles, through the handler on odd ones.
func (s *suite) probeWrites(*topology) error {
	deltas, err := s.deltaBodies(2 * traceCycles * traceCycleBatches)
	if err != nil {
		return err
	}
	ip := s.ip
	p := s.probe("probe.writes")
	defer s.tr.close(p)
	before := obsScrape()
	for i, body := range deltas {
		cycle := i / traceCycleBatches
		direct := cycle%2 == 0
		last := (i+1)%traceCycleBatches == 0
		if direct {
			var err error
			s.tr.call(p, "store.append", ingestCls, 0, i, func() { _, err = ip.st.AppendCSV(bytes.NewReader(body)) })
			if err != nil {
				return err
			}
			if last {
				s.tr.call(p, "store.snapshot", "", 0, i, func() { ip.st.Snapshot() })
				var pub *core.Published
				s.tr.call(p, "core.refresh_incr", refreshCl, 0, i, func() { pub, err = ip.live.Refresh() })
				if err != nil {
					return err
				}
				if !pub.Incremental {
					s.tally.problem("in-process refresh %d was not incremental", cycle+1)
				}
			}
			continue
		}
		s.handle(p, ingestCls, 0, i, http.MethodPost, "/api/ingest", "text/csv", body)
		if last {
			s.handle(p, refreshCl, 0, i, http.MethodPost, "/api/refresh", "", nil)
			if pub := ip.live.Current(); !pub.Incremental {
				s.tally.problem("in-process refresh %d was not incremental", cycle+1)
			}
		}
	}
	after := obsScrape()
	s.handlerMetric(ingestCls)
	s.handlerMetric(refreshCl)
	s.m["store.append_ms"], _ = layerP50(s.tr.spans, "store.append", ingestCls)
	s.m["store.snapshot_ms"], _ = layerP50(s.tr.spans, "store.snapshot", "")
	s.m["core.refresh_incr_ms"], _ = layerP50(s.tr.spans, "core.refresh_incr", refreshCl)
	for _, stage := range []string{"delta", "screen", "warm_kmeans"} {
		mean, _ := after.meanSince(before, `indice_stage_seconds{stage="refresh.`+stage+`"}`)
		s.m["core.stage_ms."+stage] = mean * 1000
	}
	return nil
}

// probeDurable opens a durable store (-fsync always) in the run's
// scratch directory: bulk load, a checkpoint half way, 250-row batches,
// then close and reopen to time recovery.
func (s *suite) probeDurable(*topology) error {
	dir, err := os.MkdirTemp(s.h.tmp, "durable-")
	if err != nil {
		return err
	}
	dur := store.Durability{Dir: dir, Fsync: store.FsyncAlways}
	st, err := store.Open(storeConfig(), dur)
	if err != nil {
		return err
	}
	p := s.probe("probe.durable")
	defer s.tr.close(p)
	half := len(s.h.load) / 2
	for _, body := range s.h.load[:half] {
		if _, err := st.AppendCSV(bytes.NewReader(body)); err != nil {
			return err
		}
	}
	var cerr error
	s.tr.call(p, "store.checkpoint", "", 0, 0, func() { _, cerr = st.Checkpoint() })
	if cerr != nil {
		return cerr
	}
	s.m["store.checkpoint_ms"], _ = layerP50(s.tr.spans, "store.checkpoint", "")
	for _, body := range s.h.load[half:] {
		if _, err := st.AppendCSV(bytes.NewReader(body)); err != nil {
			return err
		}
	}
	deltas, err := s.deltaBodies(traceCycles * traceCycleBatches)
	if err != nil {
		return err
	}
	walBefore := st.DurabilityStatus().WALBytes
	before := obsScrape()
	for i, body := range deltas {
		var err error
		s.tr.call(p, "store.append_durable", ingestCls, 0, i, func() { _, err = st.AppendCSV(bytes.NewReader(body)) })
		if err != nil {
			return err
		}
	}
	after := obsScrape()
	s.m["store.append_durable_ms"], _ = layerP50(s.tr.spans, "store.append_durable", ingestCls)
	mean, _ := after.meanSince(before, "indice_store_wal_append_seconds")
	s.m["store.wal_append_ms"] = mean * 1000
	s.m["store.wal_fsyncs_per_batch"] = after.since(before, "indice_store_wal_fsync_seconds_count") / float64(len(deltas))
	s.m["store.wal_bytes_per_row"] = float64(st.DurabilityStatus().WALBytes-walBefore) / float64(len(deltas)*deltaBatchRows)
	want := st.Rows()
	if err := st.Close(); err != nil {
		return err
	}
	var again *store.Store
	s.tr.call(p, "store.recover", "", 0, 0, func() { again, err = store.Open(storeConfig(), dur) })
	if err != nil {
		return err
	}
	s.m["store.recover_s"] = again.RecoveryInfo().TookSeconds
	if got := again.Rows(); got != want {
		s.tally.problem("durable store recovered %d rows, %d were appended", got, want)
	}
	return again.Close()
}
