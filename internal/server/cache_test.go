package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
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

// TestCacheByteBudget: resident bytes never exceed the budget across
// both segments. Over it, eviction takes probation's oldest entry before
// main's least recently used one, and never the answer just stored. A
// body over the whole budget is not stored, each segment keeps its entry
// bound, and the gauge follows the resident bytes through eviction and
// epoch purges.
func TestCacheByteBudget(t *testing.T) {
	c := newQueryCache()
	c.maxBytes = 1000
	gauge := mCacheBytes.Value()
	resident := func() float64 { return mCacheBytes.Value() - gauge }
	hit := func(k string) bool {
		_, ok := c.get(1, k, queryLookups)
		return ok
	}

	c.put("a", bodyOf(400))
	c.put("b", bodyOf(300))
	if !hit("a") { // promotes a into main
		t.Fatal("a missing")
	}
	c.put("c", bodyOf(400)) // 1100 > 1000: evicts b, probation's oldest
	if hit("b") {
		t.Fatal("b survived; a one-off answer must go before a promoted one")
	}
	for _, k := range []string{"a", "c"} { // c is promoted after a
		if !hit(k) {
			t.Fatalf("%s evicted while the cache was inside its budget", k)
		}
	}
	c.put("d", bodyOf(400)) // 1200: probation holds only d, so main's least recent goes
	if hit("a") {
		t.Fatal("a survived; main must evict its least recently used entry")
	}
	for _, k := range []string{"c", "d"} {
		if !hit(k) {
			t.Fatalf("%s evicted; the answer just stored must survive to be asked again", k)
		}
	}
	if c.bytes != 800 || resident() != 800 {
		t.Fatalf("resident bytes %d (gauge %v), want 800", c.bytes, resident())
	}

	c.put("huge", bodyOf(1001))
	if hit("huge") || c.bytes != 800 {
		t.Fatalf("a body over the budget was stored (resident %d)", c.bytes)
	}
	c.put("c", bodyOf(100)) // replacing re-accounts the entry
	if c.bytes != 500 || resident() != 500 {
		t.Fatalf("after replacing c: resident %d (gauge %v), want 500", c.bytes, resident())
	}

	// Each segment keeps its entry bound under the byte budget.
	c.maxEntries = 3
	for i := 0; i < 5; i++ {
		k := fmt.Sprint("k", i)
		c.put(k, bodyOf(1))
		hit(k)
	}
	for i := 0; i < 2*probationEntries; i++ {
		c.put(fmt.Sprint("once", i), bodyOf(1))
	}
	if c.main.Len() != 3 || c.probation.Len() != probationEntries || c.ghosts.Len() != 3 || len(c.entries) != 6+probationEntries {
		t.Fatalf("%d main, %d probation entries and %d ghosts (%d keys), want 3, %d and 3",
			c.main.Len(), c.probation.Len(), c.ghosts.Len(), len(c.entries), probationEntries)
	}

	// A newer epoch purges both segments and the ghosts, and the old epoch
	// can neither read nor write any more.
	newer := bodyOf(7)
	newer.epoch = 2
	c.put("n", newer)
	if c.bytes != 7 || resident() != 7 || c.main.Len() != 0 || c.probation.Len() != 1 || c.ghosts.Len() != 0 {
		t.Fatalf("after the epoch change: resident %d (gauge %v), %d main and %d probation entries",
			c.bytes, resident(), c.main.Len(), c.probation.Len())
	}
	c.put("old", bodyOf(5))
	if _, hit := c.get(1, "n", queryLookups); hit {
		t.Fatal("a request at the old epoch read the new epoch's entry")
	}
	if _, hit := c.get(2, "old", queryLookups); hit {
		t.Fatal("an answer of a superseded epoch was stored")
	}
}

// residentBytes sums the bodies the cache holds, walking both segments
// and the ghosts, which must hold none.
func residentBytes(t *testing.T, c *queryCache) int {
	t.Helper()
	n, keys := 0, 0
	for _, l := range []*list.List{c.main, c.probation, c.ghosts} {
		for el := l.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			if c.entries[e.key] != el || e.in != l || (e.val == nil) != (l == c.ghosts) {
				t.Fatalf("entry %q is not indexed where it lives", e.key)
			}
			if e.val != nil {
				n += len(e.val.body)
			}
			keys++
		}
	}
	if keys != len(c.entries) {
		t.Fatalf("%d keys indexed, %d entries in the segments", len(c.entries), keys)
	}
	return n
}

// TestOneOffAnswersStayInProbation: answers asked once never reach main,
// so a flood of them leaves at most probation's worth resident and keeps
// every answer that was asked twice; the gauge moves by exactly the
// resident bodies; a key asked again after its answer fell off probation
// misses once and is then kept in main, while it is among the last
// maxCacheEntries ghosts; an epoch change empties both segments and the
// ghosts; and under random traffic both segments and the ghosts keep
// their entry bounds and the segments share the byte budget.
func TestOneOffAnswersStayInProbation(t *testing.T) {
	c := newQueryCache()
	gauge, promotions := mCacheBytes.Value(), mCachePromoted.Value()
	c.put("kept", bodyOf(50))
	if _, hit := c.get(1, "kept", queryLookups); !hit {
		t.Fatal("kept missing")
	}
	for i := 0; i < 4*maxCacheEntries; i++ {
		c.put(fmt.Sprint("flood", i), bodyOf(100+i%7))
	}
	if c.probation.Len() != probationEntries || c.main.Len() != 1 || c.ghosts.Len() != maxCacheEntries {
		t.Fatalf("after the flood: %d probation, %d main entries and %d ghosts, want %d, 1 and %d",
			c.probation.Len(), c.main.Len(), c.ghosts.Len(), probationEntries, maxCacheEntries)
	}
	if _, hit := c.get(1, "kept", queryLookups); !hit {
		t.Fatal("an answer asked twice did not survive a flood of one-off answers")
	}
	want := residentBytes(t, c)
	if c.bytes != want || mCacheBytes.Value()-gauge != float64(want) {
		t.Fatalf("resident bodies %d B, cache accounts %d B, gauge moved %v", want, c.bytes, mCacheBytes.Value()-gauge)
	}

	// A probation hit promotes: the newest flood answer moves into main.
	newest := fmt.Sprint("flood", 4*maxCacheEntries-1)
	if _, hit := c.get(1, newest, queryLookups); !hit {
		t.Fatal("the newest answer is not in probation")
	}
	if c.entries[newest].Value.(*cacheEntry).in != c.main || c.main.Len() != 2 || c.probation.Len() != probationEntries-1 {
		t.Fatalf("a probation hit did not promote: %d main, %d probation", c.main.Len(), c.probation.Len())
	}

	// The newest ghost is asked again: one miss, then its answer goes to
	// main. The oldest flood answer is no longer even a ghost, so its new
	// answer starts over in probation.
	for _, k := range []struct {
		key string
		to  *list.List
	}{
		{fmt.Sprint("flood", 4*maxCacheEntries-probationEntries-1), c.main},
		{"flood0", c.probation},
	} {
		if _, hit := c.get(1, k.key, queryLookups); hit {
			t.Fatalf("%s answered after it fell off probation", k.key)
		}
		c.put(k.key, bodyOf(100))
		if c.entries[k.key].Value.(*cacheEntry).in != k.to {
			t.Fatalf("%s stored in the wrong segment", k.key)
		}
		if _, hit := c.get(1, k.key, queryLookups); !hit {
			t.Fatalf("%s missing after it was stored again", k.key)
		}
	}
	if got := mCachePromoted.Value() - promotions; got != 4 {
		t.Fatalf("promotions counter moved by %d, want 4", got)
	}
	if got := residentBytes(t, c); c.bytes != got || mCacheBytes.Value()-gauge != float64(got) {
		t.Fatalf("resident bodies %d B, cache accounts %d B, gauge moved %v", got, c.bytes, mCacheBytes.Value()-gauge)
	}

	// The next epoch's first lookup empties both segments.
	if _, hit := c.get(2, "kept", queryLookups); hit {
		t.Fatal("an entry of the previous epoch answered")
	}
	if c.main.Len() != 0 || c.probation.Len() != 0 || c.ghosts.Len() != 0 || len(c.entries) != 0 || c.bytes != 0 || mCacheBytes.Value() != gauge {
		t.Fatalf("after the epoch change: %d main, %d probation, %d B (gauge moved %v)",
			c.main.Len(), c.probation.Len(), c.bytes, mCacheBytes.Value()-gauge)
	}

	// Random traffic over a small budget: a few keys repeat often, some
	// return after falling off probation, many come once. Every step ends
	// inside each entry bound and the byte budget.
	c.maxEntries, c.maxBytes = 8, 4000
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 20000; i++ {
		k := fmt.Sprint("hot", rng.Intn(12))
		if r := rng.Intn(6); r < 2 {
			k = fmt.Sprint("cold", i)
		} else if r == 2 {
			k = fmt.Sprint("cold", i-rng.Intn(64))
		}
		if _, hit := c.get(2, k, queryLookups); !hit {
			a := bodyOf(1 + rng.Intn(900))
			a.epoch = 2
			c.put(k, a)
		}
		if c.main.Len() > c.maxEntries || c.probation.Len() > probationEntries || c.ghosts.Len() > c.maxEntries || c.bytes > c.maxBytes {
			t.Fatalf("step %d: %d main, %d probation entries, %d ghosts, %d B over budgets %d, %d, %d, %d",
				i, c.main.Len(), c.probation.Len(), c.ghosts.Len(), c.bytes, c.maxEntries, probationEntries, c.maxEntries, c.maxBytes)
		}
	}
	if got := residentBytes(t, c); c.bytes != got || mCacheBytes.Value()-gauge != float64(got) {
		t.Fatalf("resident bodies %d B, cache accounts %d B, gauge moved %v", got, c.bytes, mCacheBytes.Value()-gauge)
	}
	if c.main.Len() == 0 {
		t.Fatal("no repeated key was ever promoted")
	}
}

// TestRepeatedRequestsHitAfterOneAsk: the warm-up real clients produce. A
// query asked twice in a row is computed, then served cached. Probation
// is shared by every client: a dashboard viewed once is a page hit when
// viewed again after 15 distinct cold queries from another client, as
// many as probation holds besides it; a map viewed again after 16 is
// computed again, and that second answer goes straight into main. Either
// page then outlives a further probation's worth of cold queries.
// /api/store reports the segments and the ghosts.
func TestRepeatedRequestsHitAfterOneAsk(t *testing.T) {
	ts := testServer(t)
	const q = "/api/query?attrs=eph&by=energy_class&q=eph+%3E%3D+60&limit=5"
	if _, body := get(t, ts.URL+q); !strings.Contains(body, `"cached":false`) {
		t.Fatalf("first ask not computed: %.200s", body)
	}
	if _, body := get(t, ts.URL+q); !strings.Contains(body, `"cached":true`) {
		t.Fatalf("second ask not served from the cache: %.200s", body)
	}
	other := &http.Client{Transport: &http.Transport{}} // a second client, on its own connections
	defer other.CloseIdleConnections()
	cold := 0
	askCold := func(n int) {
		for i := 0; i < n; i++ {
			cold++
			resp, err := other.Get(fmt.Sprintf("%s/api/query?q=eph+%%3E%%3D+%d&limit=20", ts.URL, cold))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"cached":false`)) {
				t.Fatalf("cold query %d: %d %v %.200s", cold, resp.StatusCode, err, body)
			}
		}
	}
	view := func(path string) (string, bool) {
		hits := mPageHits.Value()
		_, body := get(t, ts.URL+path)
		return body, mPageHits.Value() > hits
	}
	for _, c := range []struct {
		path  string
		cold  int
		again bool // the second view is a page hit
	}{
		{"/dashboard/citizen", probationEntries - 1, true},
		{"/map?level=district&raw=1", probationEntries, false},
	} {
		first, hit := view(c.path)
		if hit {
			t.Fatalf("%s: the first view was a hit", c.path)
		}
		askCold(c.cold)
		second, hit := view(c.path)
		if hit != c.again {
			t.Fatalf("%s viewed again after %d cold queries: page hit %v, want %v", c.path, c.cold, hit, c.again)
		}
		askCold(probationEntries)
		third, hit := view(c.path)
		if !hit {
			t.Fatalf("%s: not kept in main after its second view", c.path)
		}
		if second != first || third != first {
			t.Fatalf("%s: a later view differs from the first", c.path)
		}
	}

	var store struct {
		QueryCache cacheInfo `json:"query_cache"`
	}
	_, body := get(t, ts.URL+"/api/store")
	if err := json.Unmarshal([]byte(body), &store); err != nil {
		t.Fatal(err)
	}
	// Main holds the query and both pages; probation the last cold
	// queries. Every other cold answer left probation as a ghost.
	qc := store.QueryCache
	if qc.Main != 3 || qc.Probation != probationEntries || qc.Ghosts != cold-probationEntries || qc.Size != qc.Main+qc.Probation || qc.Bytes <= 0 {
		t.Fatalf("query_cache %+v, want 3 main and %d probation entries, %d ghosts", qc, probationEntries, cold-probationEntries)
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
	frozen := testServer(t)
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
	ts := testServer(t)
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
		svg, _, err := dashboard.RenderMap(pub.Engine.Table(epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH), pub.Engine.Hierarchy(), dashboard.MapSpec{
			Title: fmt.Sprintf("Average %s — %s zoom", epc.AttrEPH, geo.LevelDistrict),
			Level: geo.LevelDistrict,
			Attr:  epc.AttrEPH,
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		wantPages = append(wantPages, rendering{dash, string(svg)})
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
