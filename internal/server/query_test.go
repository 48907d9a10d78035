package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/store"
	"indice/internal/synth"
)

func getQuery(t *testing.T, url string) (int, *queryResponse, string) {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		return code, nil, body
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad /api/query JSON: %v\n%s", err, body)
	}
	return code, &resp, body
}

// rawRows returns the bytes of an answer's "rows" array, nil when the
// body carries none.
func rawRows(t *testing.T, body string) []byte {
	t.Helper()
	var resp struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad /api/query JSON: %v\n%s", err, body)
	}
	return resp.Rows
}

// rowsOf returns the response's row page; nil when it carries none
// (limit=0 responses omit the field).
func rowsOf(r *queryResponse) []map[string]any {
	if r.Rows == nil {
		return nil
	}
	return *r.Rows
}

// TestQueryStatic: a frozen boot answers /api/query like every other node
// — an epoch, a plan block, the seeded row count — and caches per
// (epoch, canonical query, options).
func TestQueryStatic(t *testing.T) {
	ts := testServer(t)

	code, resp, body := getQuery(t, ts.URL+"/api/query?q="+
		"intended_use+%3D+E.1.1&attrs="+epc.AttrEPH+"&limit=5")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if resp.Matched == 0 || resp.Matched > resp.StoreRows || resp.StoreRows != 1200 {
		t.Fatalf("matched = %d of %d", resp.Matched, resp.StoreRows)
	}
	if resp.Epoch == 0 || resp.Plan == nil || resp.Plan.MatchedRows != resp.Matched {
		t.Fatalf("epoch %d, plan %+v", resp.Epoch, resp.Plan)
	}
	if resp.Query != "intended_use in {E.1.1}" {
		t.Fatalf("canonical query = %q", resp.Query)
	}
	if len(resp.Stats) != 1 || resp.Stats[0].Attr != epc.AttrEPH || resp.Stats[0].Count == 0 {
		t.Fatalf("stats = %+v", resp.Stats)
	}
	if len(rowsOf(resp)) != 5 {
		t.Fatalf("rows = %d", len(rowsOf(resp)))
	}
	for _, row := range rowsOf(resp) {
		if row[epc.AttrIntendedUse] != "E.1.1" {
			t.Fatalf("row escaped the selection: %v", row)
		}
	}
	if resp.Cached {
		t.Fatal("first query must not be cached")
	}

	// The identical query must come from the cache; a different one not.
	_, resp2, _ := getQuery(t, ts.URL+"/api/query?q="+
		"intended_use+%3D+E.1.1&attrs="+epc.AttrEPH+"&limit=5")
	if !resp2.Cached {
		t.Fatal("second identical query should hit the cache")
	}
	if resp2.Matched != resp.Matched || resp2.StoreRows != resp.StoreRows {
		t.Fatalf("cached response drifted: %+v vs %+v", resp2, resp)
	}
	_, resp3, _ := getQuery(t, ts.URL+"/api/query?q="+
		"intended_use+%3D+E.1.1&attrs="+epc.AttrEPH+"&limit=6")
	if resp3.Cached {
		t.Fatal("different options must not hit the cache")
	}
}

func TestQueryGroupsAndPresets(t *testing.T) {
	ts := testServer(t)

	_, resp, _ := getQuery(t, ts.URL+"/api/query?preset=pa&by="+epc.AttrDistrict)
	if resp.Preset == nil || resp.Preset.Stakeholder != "public-administration" {
		t.Fatalf("preset echo = %+v", resp.Preset)
	}
	// The PA preset defaults to the residential selection and the
	// case-study attribute set.
	if !strings.Contains(resp.Query, "E.1.1") {
		t.Fatalf("preset selection missing: %q", resp.Query)
	}
	if len(resp.Stats) != len(epc.CaseStudyAttributes) {
		t.Fatalf("stats = %d attrs, want %d", len(resp.Stats), len(epc.CaseStudyAttributes))
	}
	if len(resp.Groups) == 0 {
		t.Fatal("no district groups")
	}
	total := 0
	for _, g := range resp.Groups {
		total += g.Count
	}
	if total != resp.Matched {
		t.Fatalf("group counts sum to %d, matched %d", total, resp.Matched)
	}
	// Preset + explicit q combine conjunctively.
	_, narrowed, _ := getQuery(t, ts.URL+"/api/query?preset=pa&q="+epc.AttrEPH+"+%3E%3D+100")
	if narrowed.Matched > resp.Matched {
		t.Fatalf("AND-refined preset grew: %d > %d", narrowed.Matched, resp.Matched)
	}
	if !strings.Contains(narrowed.Query, "AND") {
		t.Fatalf("combined query = %q", narrowed.Query)
	}

	// /api/presets lists all three profiles.
	code, body := get(t, ts.URL+"/api/presets")
	if code != http.StatusOK {
		t.Fatalf("presets status %d", code)
	}
	var presets []presetInfo
	if err := json.Unmarshal([]byte(body), &presets); err != nil {
		t.Fatal(err)
	}
	if len(presets) != 3 {
		t.Fatalf("presets = %d", len(presets))
	}
}

func TestQueryPost(t *testing.T) {
	ts := testServer(t)

	body := `{"predicate":{"op":"and","args":[{"op":"in","attr":"intended_use","values":["E.1.1"]},{"op":"range","attr":"eph","min":0,"max":200}]},"attrs":["eph"],"limit":3}`
	code, out := post(t, ts.URL+"/api/query", "application/json", []byte(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Matched == 0 || len(rowsOf(&resp)) != 3 {
		t.Fatalf("matched %d rows %d", resp.Matched, len(rowsOf(&resp)))
	}
	// The POST and GET forms of the same query share one cache entry.
	dsl := "intended_use in {E.1.1} AND eph in [0, 200]"
	_, viaGet, _ := getQuery(t, ts.URL+"/api/query?attrs=eph&limit=3&q="+
		strings.ReplaceAll(strings.ReplaceAll(dsl, " ", "+"), "{", "%7B"))
	if viaGet.Query != resp.Query {
		t.Fatalf("canonical forms differ: %q vs %q", viaGet.Query, resp.Query)
	}
	if !viaGet.Cached {
		t.Fatal("GET form of the same canonical query should hit the cache")
	}
}

func TestQueryBadRequests(t *testing.T) {
	ts := testServer(t)
	for _, url := range []string{
		"/api/query?q=eph+in+[",             // parse error
		"/api/query?q=ghost+%3D+x",          // unknown attribute
		"/api/query?q=eph+%3D+x",            // type mismatch (In on numeric)
		"/api/query?attrs=ghost",            // unknown stats attribute
		"/api/query?attrs=city",             // non-numeric stats attribute
		"/api/query?by=ghost",               // unknown group attribute
		"/api/query?by=eph",                 // numeric group attribute
		"/api/query?limit=-1",               // negative limit
		"/api/query?offset=x",               // non-integer offset
		"/api/query?preset=alien",           // unknown preset
		"/api/query?q=eph+in+[1,2]+garbage", // trailing garbage
	} {
		code, body := get(t, ts.URL+url)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", url, code, strings.TrimSpace(body))
		}
	}
	// POST with both q and predicate is ambiguous.
	code, _ := post(t, ts.URL+"/api/query", "application/json",
		[]byte(`{"q":"eph in [1,2]","predicate":{"op":"in","attr":"city","values":["x"]}}`))
	if code != http.StatusBadRequest {
		t.Errorf("q+predicate: status %d, want 400", code)
	}
	// One JSON object per body: trailing data and unknown fields are
	// refused, not silently dropped.
	for _, body := range []string{
		`{"q":"eph in [1,2]"} garbage`,
		`{"q":"eph in [1,2]"}{"q":"eph in [3,4]"}`,
		`{"q":"eph in [1,2]"}}`,
		`{"q":"eph in [1,2]","bogus":1}`,
	} {
		if code, out := post(t, ts.URL+"/api/query", "application/json", []byte(body)); code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d (%s), want 400", body, code, strings.TrimSpace(out))
		}
	}
	// A single attrs element containing a comma must not collide in the
	// cache with the equivalent multi-element list: warm the two-element
	// form, then the one-element form must recompute (and fail on the
	// unknown column) instead of serving the cached response.
	warm := `{"q":"intended_use = E.1.1","attrs":["eph","u_windows"]}`
	if code, body := post(t, ts.URL+"/api/query", "application/json", []byte(warm)); code != http.StatusOK {
		t.Fatalf("warm query: %d %s", code, body)
	}
	collide := `{"q":"intended_use = E.1.1","attrs":["eph,u_windows"]}`
	if code, body := post(t, ts.URL+"/api/query", "application/json", []byte(collide)); code != http.StatusBadRequest {
		t.Errorf("comma-in-attr collided with the cached list: %d %s", code, body)
	}

	// Methods other than GET/POST/HEAD are rejected.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", resp.StatusCode)
	}
}

// TestQueryCachePresetAndPagingDoNotAlias pins the cache-key shape. The
// energy-scientist preset carries no default selection, so its canonical
// predicate and (with explicit attrs) attribute list are identical to the
// bare request's — the preset name itself must keep the two cache entries
// apart, or one request is served the other's response (with the wrong
// preset echo). Distinct row pages of one query must likewise never share
// an entry.
func TestQueryCachePresetAndPagingDoNotAlias(t *testing.T) {
	ts := testServer(t)

	bare := "/api/query?q=eph+%3E%3D+100&attrs=eph"
	withPreset := bare + "&preset=energy-scientist"

	_, plain, _ := getQuery(t, ts.URL+bare)
	if plain.Preset != nil {
		t.Fatalf("bare query has a preset echo: %+v", plain.Preset)
	}
	_, preset, _ := getQuery(t, ts.URL+withPreset)
	if preset.Cached {
		t.Fatal("preset query aliased the bare query's cache entry")
	}
	if preset.Preset == nil || preset.Preset.Stakeholder != "energy-scientist" {
		t.Fatalf("preset echo = %+v", preset.Preset)
	}
	if preset.Matched != plain.Matched {
		t.Fatalf("same selection, different matches: %d vs %d", preset.Matched, plain.Matched)
	}
	// Each form must now hit its own entry, echo intact.
	_, plain2, _ := getQuery(t, ts.URL+bare)
	if !plain2.Cached || plain2.Preset != nil {
		t.Fatalf("bare re-query: cached=%v preset=%+v", plain2.Cached, plain2.Preset)
	}
	_, preset2, _ := getQuery(t, ts.URL+withPreset)
	if !preset2.Cached || preset2.Preset == nil {
		t.Fatalf("preset re-query: cached=%v preset=%+v", preset2.Cached, preset2.Preset)
	}

	// Two pages of one query are distinct cache entries with distinct rows.
	_, page1, _ := getQuery(t, ts.URL+bare+"&limit=2&offset=0")
	_, page2, _ := getQuery(t, ts.URL+bare+"&limit=2&offset=2")
	if page2.Cached {
		t.Fatal("second page aliased the first page's cache entry")
	}
	if len(rowsOf(page1)) != 2 || len(rowsOf(page2)) != 2 {
		t.Fatalf("page sizes %d, %d", len(rowsOf(page1)), len(rowsOf(page2)))
	}
	if fmt.Sprint(rowsOf(page1)[0]) == fmt.Sprint(rowsOf(page2)[0]) {
		t.Fatal("pages at different offsets returned the same rows")
	}
}

func TestQueryLivePlansAndInvalidates(t *testing.T) {
	ts, live, ds := liveServer(t, 1500)

	// Before the first publish the query engine has no snapshot.
	code, _, body := getQuery(t, ts.URL+"/api/query?q=eph+%3E%3D+0")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish status %d: %s", code, body)
	}

	var buf bytes.Buffer
	if err := ds.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, ts.URL+"/api/ingest", "text/csv", buf.Bytes()); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Zone equality must take the indexed path on the live snapshot.
	q := "/api/query?attrs=eph&q=" + epc.AttrEnergyClass + "+in+%7BC,D%7D"
	_, resp, _ := getQuery(t, ts.URL+q)
	if resp.Epoch == 0 {
		t.Fatalf("live response has no epoch: %+v", resp)
	}
	if resp.Plan == nil || resp.Plan.IndexedShards == 0 || resp.Plan.ScannedRows != 0 {
		t.Fatalf("class membership did not push down: %+v", resp.Plan)
	}
	if resp.Matched == 0 || resp.Matched > resp.StoreRows {
		t.Fatalf("matched %d of %d", resp.Matched, resp.StoreRows)
	}
	_, hit, _ := getQuery(t, ts.URL+q)
	if !hit.Cached || hit.Epoch != resp.Epoch {
		t.Fatalf("expected cache hit at epoch %d, got %+v", resp.Epoch, hit)
	}

	// New data + refresh publish a new epoch; the cache must miss and
	// recompute, never serving the old epoch's result.
	if code, body := post(t, ts.URL+"/api/ingest", "text/csv", buf.Bytes()); code != http.StatusOK {
		t.Fatalf("re-ingest: %d %s", code, body)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	_, fresh, _ := getQuery(t, ts.URL+q)
	if fresh.Cached {
		t.Fatal("cache served across a refresh")
	}
	if fresh.Epoch <= resp.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", resp.Epoch, fresh.Epoch)
	}
	if fresh.StoreRows <= resp.StoreRows {
		t.Fatalf("store rows did not grow: %d -> %d", resp.StoreRows, fresh.StoreRows)
	}
}

// TestQueryConcurrentConsistency is the end-to-end race check: ingest,
// refresh and query clients hammer one live server concurrently; every
// query response must be internally consistent with exactly one
// snapshot epoch (identical queries at one epoch agree on every count)
// and the cache must never serve an epoch older than the published
// state that preceded the request.
func TestQueryConcurrentConsistency(t *testing.T) {
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 30, 8
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 3000
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	scfg := store.DefaultConfig()
	scfg.Shards = 4
	scfg.SegmentRows = 512
	st, err := store.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	// A short elbow sweep keeps refreshes fast so many epochs publish
	// while the query clients run.
	live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{MinRows: 100, Analysis: core.AnalysisConfig{KMax: 3}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewLive(live)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	chunks := csvChunks(t, ds.Table, 250)
	if code, body := post(t, ts.URL+"/api/ingest", "text/csv", chunks[0]); code != http.StatusOK {
		t.Fatalf("seed ingest: %d %s", code, body)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"/api/query?attrs=eph&q=" + epc.AttrEnergyClass + "+in+%7BC,D,E%7D",
		"/api/query?q=eph+%3E%3D+100",
		"/api/query?preset=pa&by=" + epc.AttrDistrict,
		"/api/query?q=not+(" + epc.AttrIntendedUse + "+%3D+E.1.1)",
	}

	type observation struct {
		query     string
		epoch     uint64
		storeRows int
		matched   int
	}
	var (
		mu  sync.Mutex
		obs []observation
	)
	errs := make(chan error, 64)
	var wg sync.WaitGroup

	// Ingest client: streams the remaining chunks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, chunk := range chunks[1:] {
			if code, body := post(t, ts.URL+"/api/ingest", "text/csv", chunk); code != http.StatusOK {
				errs <- fmt.Errorf("ingest: %d %s", code, body)
				return
			}
		}
	}()

	// Refresh client: publishes new epochs while queries run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if code, body := post(t, ts.URL+"/api/refresh", "application/json", nil); code != http.StatusOK {
				errs <- fmt.Errorf("refresh: %d %s", code, body)
				return
			}
		}
	}()

	// Query clients: issue every query repeatedly, recording what they
	// saw and bounding the response epoch by the published epochs
	// around the request.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				q := queries[(c+i)%len(queries)]
				before := live.Current().Epoch
				code, body := get(t, ts.URL+q)
				if code != http.StatusOK {
					errs <- fmt.Errorf("query %s: %d %s", q, code, body)
					return
				}
				after := live.Current().Epoch
				var resp queryResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					errs <- fmt.Errorf("query %s: %v", q, err)
					return
				}
				if resp.Epoch < before || resp.Epoch > after {
					errs <- fmt.Errorf("query %s: epoch %d outside published window [%d, %d] (stale cache?)",
						q, resp.Epoch, before, after)
					return
				}
				if resp.Matched > resp.StoreRows {
					errs <- fmt.Errorf("query %s: matched %d > store rows %d", q, resp.Matched, resp.StoreRows)
					return
				}
				mu.Lock()
				obs = append(obs, observation{q, resp.Epoch, resp.StoreRows, resp.Matched})
				mu.Unlock()
			}
		}(c)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Torn-read check: all observations of one (query, epoch) pair must
	// agree exactly — a response mixing two snapshots would disagree on
	// store_rows or matched.
	type key struct {
		query string
		epoch uint64
	}
	seen := make(map[key]observation)
	for _, o := range obs {
		k := key{o.query, o.epoch}
		if prev, ok := seen[k]; ok {
			if prev.storeRows != o.storeRows || prev.matched != o.matched {
				t.Fatalf("torn read at %v: %+v vs %+v", k, prev, o)
			}
		} else {
			seen[k] = o
		}
	}
	if len(obs) == 0 {
		t.Fatal("no query observations recorded")
	}
}

// TestQueryAggCacheNeverAliasesRowPages pins the cache-shape contract of
// the pushdown path: a grouped/stats query (Limit 0) and the same
// predicate's row-page query are distinct cache entries, the grouped
// entry stores the aggregate payload only (no row page), and serving one
// never leaks the other's shape — while agreeing on every statistic.
func TestQueryAggCacheNeverAliasesRowPages(t *testing.T) {
	ts, live, ds := liveServer(t, 1200)
	var buf bytes.Buffer
	if err := ds.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, ts.URL+"/api/ingest", "text/csv", buf.Bytes()); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if _, err := live.Refresh(); err != nil {
		t.Fatal(err)
	}

	base := "/api/query?attrs=" + epc.AttrEPH + "&by=" + epc.AttrEnergyClass
	_, grouped, body := getQuery(t, ts.URL+base)
	if grouped == nil {
		t.Fatalf("grouped query failed: %s", body)
	}
	if grouped.Cached || len(rowsOf(grouped)) != 0 {
		t.Fatalf("grouped response: cached=%v rows=%d, want fresh aggregate-only", grouped.Cached, len(rowsOf(grouped)))
	}
	if len(grouped.Groups) == 0 {
		t.Fatal("grouped response has no groups")
	}
	quartiled := 0
	for _, g := range grouped.Groups {
		for _, qs := range g.Quartiles {
			if qs.Median != 0 || qs.Q1 != 0 || qs.Q3 != 0 {
				quartiled++
			}
			if qs.Q1 > qs.Median || qs.Median > qs.Q3 || qs.Q3 > qs.P90 {
				t.Fatalf("group %q quartiles out of order: %+v", g.Value, qs)
			}
		}
	}
	if quartiled == 0 {
		t.Fatal("no group reported non-zero quartiles")
	}

	// The same predicate's row-page query must not see (or overwrite) the
	// grouped entry: distinct Limit/Offset, distinct cache keys.
	_, page, _ := getQuery(t, ts.URL+base+"&limit=3")
	if page.Cached {
		t.Fatal("row-page query aliased the grouped cache entry")
	}
	if len(rowsOf(page)) != 3 {
		t.Fatalf("row page has %d rows, want 3", len(rowsOf(page)))
	}

	// Re-running both shapes hits each one's own entry with its own shape.
	_, grouped2, _ := getQuery(t, ts.URL+base)
	if !grouped2.Cached || len(rowsOf(grouped2)) != 0 || len(grouped2.Groups) != len(grouped.Groups) {
		t.Fatalf("grouped re-query: cached=%v rows=%d groups=%d/%d",
			grouped2.Cached, len(rowsOf(grouped2)), len(grouped2.Groups), len(grouped.Groups))
	}
	_, page2, _ := getQuery(t, ts.URL+base+"&limit=3")
	if !page2.Cached || len(rowsOf(page2)) != 3 {
		t.Fatalf("row-page re-query: cached=%v rows=%d", page2.Cached, len(rowsOf(page2)))
	}

	// One drill-down step, one set of numbers: the row-page response and
	// the stats-only one both render the pushdown's accumulators, so
	// matched, stats (sketch-derived quartiles included) and groups are
	// equal exactly, not to a tolerance.
	if page.Matched != grouped.Matched {
		t.Fatalf("matched: row page %d, stats-only %d", page.Matched, grouped.Matched)
	}
	if len(grouped.Stats) != 1 || !reflect.DeepEqual(page.Stats, grouped.Stats) {
		t.Fatalf("stats: row page %+v, stats-only %+v", page.Stats, grouped.Stats)
	}
	if !reflect.DeepEqual(page.Groups, grouped.Groups) {
		t.Fatalf("groups: row page %+v, stats-only %+v", page.Groups, grouped.Groups)
	}
}
