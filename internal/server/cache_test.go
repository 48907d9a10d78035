package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/query"
	"indice/internal/store"
)

func bodyOf(n int) *answer {
	return &answer{epoch: 1, contentType: "application/json", body: make([]byte, n), cachedAt: -1}
}

// TestCacheByteBudget: resident bytes never exceed the budget, eviction
// is least-recently-used, a body over the whole budget is not stored, and
// the gauge follows the resident bytes through eviction and epoch purges.
func TestCacheByteBudget(t *testing.T) {
	c := newQueryCache()
	c.maxBytes = 1000
	gauge := mCacheBytes.Value()
	resident := func() float64 { return mCacheBytes.Value() - gauge }

	c.put("a", bodyOf(400))
	c.put("b", bodyOf(400))
	if _, hit := c.get(1, "a", queryLookups); !hit { // a is now the most recent
		t.Fatal("a missing")
	}
	c.put("c", bodyOf(400)) // 1200 > 1000: evicts b, the least recent
	if _, hit := c.get(1, "b", queryLookups); hit {
		t.Fatal("b survived; eviction is not least-recently-used")
	}
	for _, k := range []string{"a", "c"} {
		if _, hit := c.get(1, k, queryLookups); !hit {
			t.Fatalf("%s evicted while the cache was inside its budget", k)
		}
	}
	if c.bytes != 800 || resident() != 800 {
		t.Fatalf("resident bytes %d (gauge %v), want 800", c.bytes, resident())
	}

	c.put("huge", bodyOf(1001))
	if _, hit := c.get(1, "huge", queryLookups); hit || c.bytes != 800 {
		t.Fatalf("a body over the budget was stored (resident %d)", c.bytes)
	}
	c.put("a", bodyOf(100)) // replacing re-accounts the entry
	if c.bytes != 500 || resident() != 500 {
		t.Fatalf("after replacing a: resident %d (gauge %v), want 500", c.bytes, resident())
	}

	// The entry bound still holds under the byte budget.
	c.maxEntries = 3
	for i := 0; i < 5; i++ {
		c.put(fmt.Sprint("k", i), bodyOf(1))
	}
	if c.ll.Len() != 3 || len(c.entries) != 3 {
		t.Fatalf("%d entries resident, want 3", c.ll.Len())
	}

	// A newer epoch purges everything, and the old epoch can neither read
	// nor write any more.
	newer := bodyOf(7)
	newer.epoch = 2
	c.put("n", newer)
	if c.bytes != 7 || resident() != 7 || c.ll.Len() != 1 {
		t.Fatalf("after the epoch change: resident %d (gauge %v), %d entries", c.bytes, resident(), c.ll.Len())
	}
	c.put("old", bodyOf(5))
	if _, hit := c.get(1, "n", queryLookups); hit {
		t.Fatal("a request at the old epoch read the new epoch's entry")
	}
	if _, hit := c.get(2, "old", queryLookups); hit {
		t.Fatal("an answer of a superseded epoch was stored")
	}
}

var cachedLiteral = regexp.MustCompile(`"cached":(true|false)`)

// normalized blanks the one literal computed and cached answers differ in.
func normalized(body string) string {
	return cachedLiteral.ReplaceAllString(body, `"cached":_`)
}

// reencoded decodes a body into the map-based response value and encodes
// it the way the struct-valued cache did, minus the indentation.
func reencoded(t *testing.T, body string) string {
	t.Helper()
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad /api/query JSON: %v\n%s", err, body)
	}
	enc, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(enc) + "\n"
}

// TestComputedAndCachedAnswersAreTheSameBytes: on a single node (ingesting
// and frozen) and on a coordinator, the answer a request computed and the
// answer the next request reads from the cache differ in the cached
// literal only, both carry their Content-Length, and the body is exactly
// what encoding/json makes of the decoded response.
func TestComputedAndCachedAnswersAreTheSameBytes(t *testing.T) {
	tc := newTestCluster(t, 2, 600)
	tc.syncAll(t)
	frozen := testServer(t, false)
	for name, base := range map[string]string{"live": tc.leader.URL, "coordinator": tc.coordSrv.URL, "frozen": frozen.URL} {
		for _, q := range []string{
			"/api/query?attrs=eph&by=energy_class&q=eph+%3E%3D+60",
			"/api/query?attrs=eph&q=eph+%3E%3D+60&limit=25&offset=3",
			"/api/query?limit=4&offset=1900",
			"/api/query?preset=citizen&limit=2",
		} {
			var bodies [2]string
			for i := range bodies {
				resp, err := http.Get(base + q)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				bodies[i] = buf.String()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s: %d %s", name, q, resp.StatusCode, bodies[i])
				}
				if resp.ContentLength != int64(len(bodies[i])) {
					t.Fatalf("%s %s: Content-Length %d for %d bytes", name, q, resp.ContentLength, len(bodies[i]))
				}
			}
			if !strings.Contains(bodies[0], `"cached":false`) || !strings.Contains(bodies[1], `"cached":true`) {
				t.Fatalf("%s %s: want a computed then a cached answer:\n%.200s\n%.200s", name, q, bodies[0], bodies[1])
			}
			if normalized(bodies[0]) != normalized(bodies[1]) {
				t.Fatalf("%s %s: computed and cached answers differ beyond the literal", name, q)
			}
			for _, body := range bodies {
				if body != reencoded(t, body) {
					t.Fatalf("%s %s: body is not encoding/json's rendering of the response:\n%.300s", name, q, body)
				}
			}
		}
	}
}

// TestCoalescedAnswerIsTheCachedBytes drives the serving sequence with a
// gated computation: the request that computes is answered cached:false,
// the request that waited on its flight and the one that arrives later
// are both answered the stored bytes.
func TestCoalescedAnswerIsTheCachedBytes(t *testing.T) {
	s := &Server{cache: newQueryCache()}
	req := httptest.NewRequest(http.MethodGet, "/api/query?q=eph+%3E%3D+60&limit=1", nil)
	q, err := resolveRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	gate, entered := make(chan struct{}), make(chan struct{})
	computes := 0
	compute := func(context.Context) (*answer, error) {
		computes++
		close(entered)
		<-gate
		return q.encodeAnswer(3, 9, &store.AggResult{Matched: 1}, nil,
			func(dst []byte) []byte { return append(dst, `{"eph":61.5}`...) }, &clusterInfo{Replicas: 2})
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.serveCached(rec, req, queryLookups, 3, q.cacheKey(), compute)
		return rec
	}
	coalesced := mQueryCoalesced.Value()
	var leader, waiter *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); leader = serve() }()
	<-entered
	go func() { defer wg.Done(); waiter = serve() }()
	for deadline := time.Now().Add(5 * time.Second); mQueryCoalesced.Value() == coalesced; {
		if time.Now().After(deadline) {
			t.Fatal("the second request never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	hit := serve()

	if computes != 1 {
		t.Fatalf("%d computations, want 1", computes)
	}
	want := `{"epoch":3,"store_rows":9,"matched":1,"query":"eph in [60, +Inf]","cached":true,"rows":[{"eph":61.5}],"limit":1,"offset":0,"cluster":{"replicas":2}}` + "\n"
	if got := waiter.Body.String(); got != want {
		t.Fatalf("coalesced answer:\n got %s\nwant %s", got, want)
	}
	if got := hit.Body.String(); got != want {
		t.Fatalf("cached answer:\n got %s\nwant %s", got, want)
	}
	if got := leader.Body.String(); got != strings.Replace(want, `"cached":true`, `"cached":false`, 1) {
		t.Fatalf("computed answer:\n got %s", got)
	}
	for name, rec := range map[string]*httptest.ResponseRecorder{"leader": leader, "waiter": waiter, "hit": hit} {
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for %d bytes", name, got, rec.Body.Len())
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so what a request
// allocates is the handler's doing alone.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestHitAllocatesAConstant: serving a cached 100-row page through
// ServeHTTP costs a handful of small allocations — request parsing and
// the key — not a multiple of the body. Re-encoding on a hit used to
// allocate ~1.3 MB for this page.
func TestHitAllocatesAConstant(t *testing.T) {
	tc := newTestCluster(t, 1, 600)
	srv := tc.leader.Config.Handler
	measure := func(limit int) (allocs float64, bytesPerHit, bodyLen int) {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/query?attrs=eph&by=energy_class&limit=%d", limit), nil)
		w := &discardWriter{h: make(http.Header)}
		hit := func() {
			clear(w.h)
			w.n = 0
			srv.ServeHTTP(w, req)
		}
		hit() // computes and stores
		hit()
		bodyLen = w.n
		allocs = testing.AllocsPerRun(200, hit)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 200
		for i := 0; i < runs; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		return allocs, int(after.TotalAlloc-before.TotalAlloc) / runs, bodyLen
	}
	smallAllocs, smallBytes, smallLen := measure(1)
	bigAllocs, bigBytes, bigLen := measure(100)
	t.Logf("1-row hit: %d B body, %.0f allocs, %d B; 100-row hit: %d B body, %.0f allocs, %d B",
		smallLen, smallAllocs, smallBytes, bigLen, bigAllocs, bigBytes)
	if bigLen < 50*smallLen/2 {
		t.Fatalf("bodies of %d and %d bytes: the pages do not differ enough to show anything", smallLen, bigLen)
	}
	if bigAllocs > smallAllocs+2 || bigAllocs > 60 {
		t.Fatalf("a 100-row hit makes %.0f allocations, a 1-row hit %.0f: not a constant", bigAllocs, smallAllocs)
	}
	if bigBytes > smallBytes+1024 || bigBytes > 16<<10 {
		t.Fatalf("a 100-row hit allocates %d B for a %d B body (1-row hit: %d B)", bigBytes, bigLen, smallBytes)
	}
}

// TestPagesServeFromTheCache: dashboards and maps are rendered once per
// epoch, count on their own lookup counters, and repeat byte for byte.
func TestPagesServeFromTheCache(t *testing.T) {
	ts := testServer(t, true)
	for _, path := range []string{"/dashboard/citizen", "/map?level=district", "/map?level=district&raw=1"} {
		qHits, qMisses := mCacheHits.Value(), mCacheMisses.Value()
		hits, misses, resident := mPageHits.Value(), mPageMisses.Value(), mCacheBytes.Value()
		code, first := get(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d", path, code)
		}
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		second.ReadFrom(resp.Body)
		resp.Body.Close()
		if second.String() != first {
			t.Fatalf("%s: the cached page differs from the rendered one", path)
		}
		if resp.ContentLength != int64(len(first)) {
			t.Fatalf("%s: Content-Length %d for %d bytes", path, resp.ContentLength, len(first))
		}
		if h, m := mPageHits.Value()-hits, mPageMisses.Value()-misses; h != 1 || m != 1 {
			t.Fatalf("%s: page lookups: %d hits, %d misses, want 1 and 1", path, h, m)
		}
		if mCacheHits.Value() != qHits || mCacheMisses.Value() != qMisses {
			t.Fatalf("%s: a page lookup moved the /api/query counters", path)
		}
		if got := mCacheBytes.Value() - resident; got != float64(len(first)) {
			t.Fatalf("%s: resident bytes grew by %v, want %d", path, got, len(first))
		}
	}
	// The raw SVG and the page around it are distinct entries.
	_, page := get(t, ts.URL+"/map?level=district")
	_, svg := get(t, ts.URL+"/map?level=district&raw=1")
	if !strings.HasPrefix(page, "<!DOCTYPE html>") || !strings.HasPrefix(svg, "<svg") {
		t.Fatalf("map page %.40q, raw %.40q", page, svg)
	}
	// The index prints live store status and is never cached.
	misses := mPageMisses.Value()
	get(t, ts.URL+"/")
	get(t, ts.URL+"/")
	if mPageMisses.Value() != misses {
		t.Fatal("the index went through the page cache")
	}
}

// TestCachedAnswersNeverGoBackAnEpoch: while a writer ingests and
// refreshes, readers repeat one query, one dashboard and one map. A
// reader must never see an answer of an older epoch after a newer one,
// and every page must be the fresh rendering of some published epoch.
func TestCachedAnswersNeverGoBackAnEpoch(t *testing.T) {
	ts, live, ds := liveServer(t, 700)
	chunks := csvChunks(t, ds.Table, 100)

	// wantPages[i] holds the fresh renderings of the i-th publication.
	type rendering struct{ dash, mapPage string }
	var mu sync.Mutex
	var wantPages []rendering
	publish := func() {
		t.Helper()
		if code, body := post(t, ts.URL+"/api/refresh", "", nil); code != http.StatusOK {
			t.Fatalf("refresh: %d %s", code, body)
		}
		pub := live.Current()
		dash, err := pub.Engine.Dashboard(query.Citizen, pub.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		svg, _, err := dashboard.RenderMap(pub.Engine.Table(), pub.Engine.Hierarchy(), dashboard.MapSpec{
			Title: fmt.Sprintf("Average %s — %s zoom", epc.AttrEPH, geo.LevelDistrict),
			Level: geo.LevelDistrict,
			Attr:  epc.AttrEPH,
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		wantPages = append(wantPages, rendering{dash, svg})
		mu.Unlock()
	}
	for _, c := range chunks[:4] {
		if code, body := post(t, ts.URL+"/api/ingest", "text/csv", c); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, body)
		}
	}
	publish()

	// Readers keep the sequence of distinct bodies they saw.
	type seen struct{ dash, maps []string }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readers := make([]seen, 3)
	for k := range readers {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var lastEpoch uint64
			note := func(seq *[]string, body string) {
				if n := len(*seq); n == 0 || (*seq)[n-1] != body {
					*seq = append(*seq, body)
				}
			}
			fetch := func(path string) (string, bool) {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return "", false
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %d %s", path, resp.StatusCode, buf.String())
					return "", false
				}
				return buf.String(), true
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					body, ok := fetch("/api/query?attrs=eph&by=energy_class&limit=3")
					if !ok {
						return
					}
					var a struct {
						Epoch     uint64 `json:"epoch"`
						StoreRows int    `json:"store_rows"`
					}
					if err := json.Unmarshal([]byte(body), &a); err != nil {
						t.Errorf("bad answer: %v", err)
						return
					}
					if a.Epoch < lastEpoch {
						t.Errorf("reader %d: answer of epoch %d after one of epoch %d", k, a.Epoch, lastEpoch)
						return
					}
					lastEpoch = a.Epoch
				case 1:
					if body, ok := fetch("/dashboard/citizen"); ok {
						note(&readers[k].dash, body)
					}
				case 2:
					if body, ok := fetch("/map?level=district&raw=1"); ok {
						note(&readers[k].maps, body)
					}
				}
			}
		}(k)
	}
	for _, c := range chunks[4:] {
		if code, body := post(t, ts.URL+"/api/ingest", "text/csv", c); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, body)
		}
		publish()
	}
	close(stop)
	wg.Wait()

	// Each reader's sequence must walk the publications forwards.
	inOrder := func(what string, k int, got []string, want func(rendering) string) {
		at := 0
		for _, body := range got {
			for at < len(wantPages) && want(wantPages[at]) != body {
				at++
			}
			if at == len(wantPages) {
				t.Fatalf("reader %d: a %s is no fresh rendering of any publication, or of an older one than the page before it", k, what)
			}
		}
	}
	for k, r := range readers {
		if len(r.dash) == 0 || len(r.maps) == 0 {
			t.Fatalf("reader %d saw no page", k)
		}
		inOrder("dashboard", k, r.dash, func(w rendering) string { return w.dash })
		inOrder("map", k, r.maps, func(w rendering) string { return w.mapPage })
	}
	if len(wantPages) < 3 {
		t.Fatalf("only %d publications", len(wantPages))
	}
}
