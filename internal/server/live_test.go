package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/query"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// liveServer builds an httptest server in live mode over an EMPTY store,
// returning the server, the live loop and a synthetic dataset to ingest.
func liveServer(t *testing.T, certificates int) (*httptest.Server, *core.Live, *synth.Dataset) {
	t.Helper()
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 40, 10
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = certificates
	ds, err := synth.Generate(gcfg, city)
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
	live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{Analysis: acfg, MinRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLive(live)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, live, ds
}

func post(t *testing.T, url, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// csvChunks serializes the dataset as typed-CSV batches of at most
// chunkRows rows each.
func csvChunks(t *testing.T, tab *table.Table, chunkRows int) [][]byte {
	t.Helper()
	var chunks [][]byte
	for start := 0; start < tab.NumRows(); start += chunkRows {
		end := start + chunkRows
		if end > tab.NumRows() {
			end = tab.NumRows()
		}
		part, err := tab.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := part.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, buf.Bytes())
	}
	return chunks
}

// TestLiveEndToEnd is the acceptance path: start a live server over an
// empty store, ingest >10k generated EPCs through POST /api/ingest from
// concurrent clients, trigger a refresh, and verify that the stats, zones
// and dashboard routes reflect the ingested data.
func TestLiveEndToEnd(t *testing.T) {
	const n = 10500
	ts, live, ds := liveServer(t, n)

	// Before any data: serving routes answer 503, the store route works.
	if code, _ := get(t, ts.URL+"/api/stats?attr="+epc.AttrEPH); code != http.StatusServiceUnavailable {
		t.Fatalf("stats on empty live server = %d", code)
	}
	if code, _ := get(t, ts.URL+"/dashboard/citizen"); code != http.StatusServiceUnavailable {
		t.Fatalf("dashboard on empty live server = %d", code)
	}
	code, body := get(t, ts.URL+"/api/store")
	if code != http.StatusOK {
		t.Fatalf("store status = %d", code)
	}
	var empty struct {
		Rows  int    `json:"rows"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &empty); err != nil || empty.Rows != 0 {
		t.Fatalf("empty store status = %s (%v)", body, err)
	}
	// Refresh on empty store answers 409 (too small), not 500.
	if code, _ := post(t, ts.URL+"/api/refresh", "application/json", nil); code != http.StatusConflict {
		t.Fatalf("refresh on empty store = %d", code)
	}

	// Ingest the dataset as concurrent CSV batches.
	chunks := csvChunks(t, ds.Table, 1500)
	var wg sync.WaitGroup
	errc := make(chan error, len(chunks))
	for _, chunk := range chunks {
		wg.Add(1)
		go func(chunk []byte) {
			defer wg.Done()
			code, body := post(t, ts.URL+"/api/ingest", "text/csv", chunk)
			if code != http.StatusOK {
				errc <- fmt.Errorf("ingest status %d: %s", code, body)
			}
		}(chunk)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The store saw everything — including its live (pre-refresh)
	// summaries from the incremental stats and zone index.
	code, body = get(t, ts.URL+"/api/store?attr="+epc.AttrEPH+"&by="+epc.AttrDistrict)
	if code != http.StatusOK {
		t.Fatalf("store status = %d", code)
	}
	var liveView struct {
		LiveStats struct {
			Count int     `json:"count"`
			Mean  float64 `json:"mean"`
		} `json:"live_stats"`
		LiveCounts map[string]int `json:"live_counts"`
	}
	if err := json.Unmarshal([]byte(body), &liveView); err != nil {
		t.Fatal(err)
	}
	if liveView.LiveStats.Count != n || liveView.LiveStats.Mean <= 0 {
		t.Fatalf("live stats = %+v", liveView.LiveStats)
	}
	indexed := 0
	for _, c := range liveView.LiveCounts {
		indexed += c
	}
	if indexed != n {
		t.Fatalf("live district counts cover %d of %d rows", indexed, n)
	}
	if code, _ := get(t, ts.URL+"/api/store?attr=energy_class"); code != http.StatusBadRequest {
		t.Fatalf("untracked live attr = %d", code)
	}
	var status struct {
		Rows     int    `json:"rows"`
		Accepted uint64 `json:"accepted"`
		Shards   []struct {
			Rows int `json:"rows"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("bad store JSON: %v", err)
	}
	if status.Rows != n || status.Accepted != n {
		t.Fatalf("store rows = %d accepted = %d, want %d", status.Rows, status.Accepted, n)
	}
	spread := 0
	for _, sh := range status.Shards {
		if sh.Rows > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("ingestion landed on %d shards", spread)
	}

	// Trigger the refresh; it publishes the analysis.
	code, body = post(t, ts.URL+"/api/refresh", "application/json", nil)
	if code != http.StatusOK {
		t.Fatalf("refresh = %d: %s", code, body)
	}
	var ref struct {
		Rows        int `json:"rows"`
		ServingRows int `json:"serving_rows"`
	}
	if err := json.Unmarshal([]byte(body), &ref); err != nil {
		t.Fatal(err)
	}
	if ref.Rows != n || ref.ServingRows == 0 || ref.ServingRows > n {
		t.Fatalf("refresh = %+v", ref)
	}

	// /api/stats reflects the ingested data (preprocessing may drop
	// outlier rows, so the count is bounded by the ingested total).
	code, body = get(t, ts.URL+"/api/stats?attr="+epc.AttrEPH)
	if code != http.StatusOK {
		t.Fatalf("stats = %d: %s", code, body)
	}
	var st struct {
		Count int     `json:"count"`
		Mean  float64 `json:"mean"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != ref.ServingRows || st.Mean <= 0 {
		t.Fatalf("stats = %+v (serving %d)", st, ref.ServingRows)
	}

	// /api/zones covers every served certificate.
	code, body = get(t, ts.URL+"/api/zones?level=district&attr="+epc.AttrEPH)
	if code != http.StatusOK {
		t.Fatalf("zones = %d", code)
	}
	var zones []struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(body), &zones); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, z := range zones {
		total += z.Count
	}
	if total != ref.ServingRows {
		t.Fatalf("zone counts sum to %d, serving %d", total, ref.ServingRows)
	}

	// Dashboards render from the published analysis.
	for _, sk := range []query.Stakeholder{query.Citizen, query.PublicAdministration} {
		code, page := get(t, ts.URL+"/dashboard/"+string(sk))
		if code != http.StatusOK {
			t.Fatalf("%s dashboard = %d", sk, code)
		}
		if !strings.Contains(page, "<svg") {
			t.Fatalf("%s dashboard has no panels", sk)
		}
		if !strings.Contains(page, fmt.Sprintf("%d certificates", ref.ServingRows)) {
			t.Fatalf("%s dashboard does not report the served row count", sk)
		}
	}

	// More data after the refresh: the published state stays pinned until
	// the next refresh (snapshot isolation at the serving layer).
	rec := store.Record{
		epc.AttrCertificateID: "EPC-X000001",
		epc.AttrLatitude:      45.07, epc.AttrLongitude: 7.68,
		epc.AttrEPH: 140.0, epc.AttrEnergyClass: "D",
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	code, body = post(t, ts.URL+"/api/ingest", "application/json", payload)
	if code != http.StatusOK {
		t.Fatalf("json ingest = %d: %s", code, body)
	}
	var ing struct {
		Accepted int `json:"accepted"`
		Rows     int `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != 1 || ing.Rows != n+1 {
		t.Fatalf("json ingest = %+v", ing)
	}
	code, body = get(t, ts.URL+"/api/stats?attr="+epc.AttrEPH)
	if code != http.StatusOK {
		t.Fatal("stats after ingest")
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != ref.ServingRows {
		t.Fatal("published state changed without a refresh")
	}
	if live.Current().Rows != n {
		t.Fatalf("published rows = %d", live.Current().Rows)
	}
}

func TestIngestFormatsAndErrors(t *testing.T) {
	ts, live, ds := liveServer(t, 300)

	// Binary batch.
	var bin bytes.Buffer
	if err := table.Encode(ds.Table).WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts.URL+"/api/ingest", "application/octet-stream", bin.Bytes())
	if code != http.StatusOK {
		t.Fatalf("binary ingest = %d: %s", code, body)
	}
	if live.Store().Rows() != 300 {
		t.Fatalf("rows = %d", live.Store().Rows())
	}

	// JSON array of records.
	recs := []store.Record{
		{epc.AttrCertificateID: "a", epc.AttrEPH: 120.5},
		{epc.AttrCertificateID: "b", epc.AttrEPH: "77.25"},
	}
	payload, _ := json.Marshal(recs)
	code, body = post(t, ts.URL+"/api/ingest", "application/json; charset=utf-8", payload)
	if code != http.StatusOK {
		t.Fatalf("json array ingest = %d: %s", code, body)
	}
	var res struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil || res.Accepted != 2 {
		t.Fatalf("json array ingest = %s", body)
	}

	// Unknown attributes are rejected per record, reported in issues.
	payload, _ = json.Marshal(store.Record{"certificate_id": "c", "warp_drive": 1.0})
	code, body = post(t, ts.URL+"/api/ingest", "application/json", payload)
	if code != http.StatusOK {
		t.Fatalf("rejecting ingest = %d", code)
	}
	var rej struct {
		Accepted int      `json:"accepted"`
		Rejected int      `json:"rejected"`
		Issues   []string `json:"issues"`
	}
	if err := json.Unmarshal([]byte(body), &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Accepted != 0 || rej.Rejected != 1 || len(rej.Issues) == 0 {
		t.Fatalf("rejection = %+v", rej)
	}

	// Malformed bodies answer 400, unsupported types 415.
	if code, _ := post(t, ts.URL+"/api/ingest", "application/json", []byte("{nope")); code != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", code)
	}
	// Concatenated / newline-delimited JSON documents are rejected rather
	// than silently truncated to the first one.
	ndjson := []byte("{\"certificate_id\":\"x\"}\n{\"certificate_id\":\"y\"}")
	if code, body := post(t, ts.URL+"/api/ingest", "application/json", ndjson); code != http.StatusBadRequest {
		t.Fatalf("ndjson = %d: %s", code, body)
	}
	if code, _ := post(t, ts.URL+"/api/ingest", "text/csv", []byte("no-typed-header\n1")); code != http.StatusBadRequest {
		t.Fatalf("bad CSV = %d", code)
	}
	if code, _ := post(t, ts.URL+"/api/ingest", "application/octet-stream", []byte("XXXX")); code != http.StatusBadRequest {
		t.Fatalf("bad binary = %d", code)
	}
	if code, _ := post(t, ts.URL+"/api/ingest", "text/plain", []byte("hi")); code != http.StatusUnsupportedMediaType {
		t.Fatalf("unsupported type = %d", code)
	}
}

func TestMethodAndBodyLimits(t *testing.T) {
	ts, _, _ := liveServer(t, 300)

	// Wrong methods are rejected with Allow headers.
	resp, err := http.Get(ts.URL + "/api/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET ingest = %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if code, _ := post(t, ts.URL+"/api/stats", "application/json", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats = %d", code)
	}
	if code, _ := post(t, ts.URL+"/", "application/json", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST index = %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/refresh", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE refresh = %d", resp.StatusCode)
	}
	// HEAD rides along with GET.
	resp, err = http.Head(ts.URL + "/api/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD store = %d", resp.StatusCode)
	}

	// Oversized ingest bodies are cut off with 413.
	huge := bytes.Repeat([]byte("x"), int(maxIngestBody)+1)
	code, _ := post(t, ts.URL+"/api/ingest", "text/csv", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d", code)
	}
}

// TestStaticServerStoreRoutes: a frozen boot is a node like any other, so
// the store routes answer. A refresh with nothing new returns the one
// publication. (Refusing POST /api/ingest without -ingest is
// cmd/indice-server's doing; see its frozen-boot test.)
func TestStaticServerStoreRoutes(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts.URL+"/api/store")
	if code != http.StatusOK {
		t.Fatalf("store = %d: %s", code, body)
	}
	var st struct {
		Rows      int    `json:"rows"`
		Refreshes uint64 `json:"refreshes"`
		Published struct {
			Epoch        uint64 `json:"epoch"`
			LineageBytes int    `json:"lineage_bytes"`
		} `json:"published"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != 1200 || st.Refreshes != 1 || st.Published.Epoch == 0 || st.Published.LineageBytes != 0 {
		t.Fatalf("store = %+v", st)
	}
	code, body = post(t, ts.URL+"/api/refresh", "application/json", nil)
	if code != http.StatusOK {
		t.Fatalf("refresh = %d: %s", code, body)
	}
	var ref struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(body), &ref); err != nil || ref.Epoch != st.Published.Epoch {
		t.Fatalf("refresh = %s (%v), want epoch %d again", body, err, st.Published.Epoch)
	}
}

// TestStoreReportsIncrementalRefreshStats drives one full and one
// incremental refresh through the HTTP surface and checks that
// GET /api/store reports the refresh split, the store generation, the
// last delta's size/reuse/drift numbers and the corpus bytes by owner.
func TestStoreReportsIncrementalRefreshStats(t *testing.T) {
	ts, _, ds := liveServer(t, 900)
	half := ds.Table.NumRows() / 2
	for _, chunk := range csvChunks(t, ds.Table, half)[:1] {
		if code, body := post(t, ts.URL+"/api/ingest", "text/csv", chunk); code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", code, body)
		}
	}
	if code, body := post(t, ts.URL+"/api/refresh", "application/json", nil); code != http.StatusOK {
		t.Fatalf("first refresh = %d: %s", code, body)
	}
	// Second half: same distribution, so the refresh takes the fast path.
	for _, chunk := range csvChunks(t, ds.Table, half)[1:] {
		if code, body := post(t, ts.URL+"/api/ingest", "text/csv", chunk); code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", code, body)
		}
	}
	if code, body := post(t, ts.URL+"/api/refresh", "application/json", nil); code != http.StatusOK {
		t.Fatalf("second refresh = %d: %s", code, body)
	}

	code, body := get(t, ts.URL+"/api/store")
	if code != http.StatusOK {
		t.Fatalf("store = %d", code)
	}
	var resp struct {
		Generation           uint64 `json:"generation"`
		Refreshes            uint64 `json:"refreshes"`
		FullRefreshes        uint64 `json:"full_refreshes"`
		IncrementalRefreshes uint64 `json:"incremental_refreshes"`
		TailBytes            int64  `json:"tail_bytes"`
		SealedResidentBytes  *int64 `json:"sealed_resident_bytes"`
		Published            struct {
			Incremental  bool    `json:"incremental"`
			DeltaRows    int     `json:"delta_rows"`
			ReusedRows   int     `json:"reused_rows"`
			Drift        float64 `json:"drift"`
			TableBytes   int64   `json:"table_bytes"`
			LineageBytes int64   `json:"lineage_bytes"`
		} `json:"published"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("store body: %v", err)
	}
	if resp.Generation == 0 {
		t.Fatal("store generation not reported")
	}
	if resp.Refreshes != 2 || resp.FullRefreshes != 1 || resp.IncrementalRefreshes != 1 {
		t.Fatalf("refresh split = %d total / %d full / %d incremental",
			resp.Refreshes, resp.FullRefreshes, resp.IncrementalRefreshes)
	}
	if !resp.Published.Incremental {
		t.Fatal("published state not marked incremental")
	}
	if resp.Published.DeltaRows <= 0 || resp.Published.ReusedRows <= 0 {
		t.Fatalf("delta/reuse stats = %d/%d", resp.Published.DeltaRows, resp.Published.ReusedRows)
	}
	if resp.Published.Drift < 0 {
		t.Fatalf("drift = %v", resp.Published.Drift)
	}
	// Nothing sealed (900 rows over the default segment size): the tails
	// hold the corpus encoded, in less than its raw size; the serving table
	// a cleaned raw copy of it minus the dropped outliers and the unserved
	// columns; the lineage only a few of its columns and the dropped rows.
	raw := int64(ds.Table.SizeBytes())
	if resp.SealedResidentBytes == nil || *resp.SealedResidentBytes != 0 || resp.TailBytes <= 0 || resp.TailBytes >= raw {
		t.Fatalf("store bytes: tails %d, sealed %v, beside a %d B raw corpus", resp.TailBytes, resp.SealedResidentBytes, raw)
	}
	if lb, tb := resp.Published.LineageBytes, resp.Published.TableBytes; tb <= 0 || tb > raw || lb <= 0 || lb >= tb/4 {
		t.Fatalf("published bytes: table %d, lineage %d beside a %d B raw corpus", tb, lb, raw)
	}

	// A refresh with nothing new must not change the split (generation
	// skip) — exercised through the HTTP surface.
	if code, body := post(t, ts.URL+"/api/refresh", "application/json", nil); code != http.StatusOK {
		t.Fatalf("no-op refresh = %d: %s", code, body)
	}
	_, body = get(t, ts.URL+"/api/store")
	var after struct {
		Refreshes uint64 `json:"refreshes"`
	}
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if after.Refreshes != 2 {
		t.Fatalf("no-op refresh re-ran the pipeline (refreshes = %d)", after.Refreshes)
	}
}

// TestLiveStatsAreOneValueAtAnyLayout: /api/store?attr= reports the
// exact aggregate /api/query renders. The same synthetic rows in a
// 3-shard store, a 4-shard store and a durable store reopened from its
// checkpoint and WAL read one count, one range, one mean and one standard
// deviation, bit for bit, on both routes.
func TestLiveStatsAreOneValueAtAnyLayout(t *testing.T) {
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 40, 10
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 5000
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Table.NumRows()
	head, err := ds.Table.Slice(0, n/2)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := ds.Table.Slice(n/2, n)
	if err != nil {
		t.Fatal(err)
	}
	appendAll := func(st *store.Store, parts ...*table.Table) {
		for _, part := range parts {
			if _, err := st.AppendTable(part); err != nil {
				t.Fatal(err)
			}
		}
	}
	inMemory := func(shards int) *store.Store {
		scfg := store.DefaultConfig()
		scfg.Shards = shards
		st, err := store.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(st, head, rest)
		return st
	}
	dur := store.Durability{Dir: t.TempDir()}
	first, err := store.Open(store.DefaultConfig(), dur)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(first, head)
	if _, err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(first, rest)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(store.DefaultConfig(), dur)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	if rec := reopened.RecoveryInfo(); rec.CheckpointRows == 0 || rec.ReplayedRows == 0 {
		t.Fatalf("the reopened store recovered %+v; want checkpointed and replayed rows", rec)
	}

	var want *attrStats
	for _, node := range []struct {
		name string
		st   *store.Store
	}{{"3 shards", inMemory(3)}, {"4 shards", inMemory(4)}, {"durable, reopened", reopened}} {
		acfg := core.DefaultAnalysisConfig()
		acfg.KMax = 3
		live, err := core.NewLive(node.st, city.Hierarchy, core.LiveConfig{Analysis: acfg, MinRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewLive(live)
		if err != nil {
			t.Fatal(err)
		}
		serve := func(method, target string) []byte {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %s %s = %d: %s", node.name, method, target, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		serve(http.MethodPost, "/api/refresh")
		var storeBody struct {
			LiveStats attrStats `json:"live_stats"`
		}
		var queryBody struct {
			Stats []attrStats `json:"stats"`
		}
		if err := json.Unmarshal(serve(http.MethodGet, "/api/store?attr="+epc.AttrEPH), &storeBody); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(serve(http.MethodGet, "/api/query?attrs="+epc.AttrEPH), &queryBody); err != nil {
			t.Fatal(err)
		}
		got := storeBody.LiveStats
		if len(queryBody.Stats) != 1 || got != queryBody.Stats[0] {
			t.Fatalf("%s: live_stats %+v, /api/query stats %+v", node.name, got, queryBody.Stats)
		}
		if got.Count != n {
			t.Fatalf("%s: live_stats count %d of %d rows", node.name, got.Count, n)
		}
		if want == nil {
			want = &got
			continue
		}
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.StdDev) != math.Float64bits(want.StdDev) || got != *want {
			t.Fatalf("%s: live_stats %+v, 3 shards read %+v", node.name, got, *want)
		}
	}
}

// TestNonFiniteCellsAreStoredMissing: a ±Inf cell acked through any
// ingest road — typed CSV, a JSON "Inf" string, a raw column of a binary
// batch — is stored as a missing cell, so the refreshes after it still
// publish. A stored Inf coordinate stopped every later refresh at the
// clustering stage while the node went on reporting itself healthy.
func TestNonFiniteCellsAreStoredMissing(t *testing.T) {
	infRow := func(t *testing.T, ds *synth.Dataset) *table.Table {
		row, err := ds.Table.Slice(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		ratio, _ := row.Floats(epc.AttrAspectRatio)
		ratio[0] = math.Inf(1)
		return row
	}
	for name, body := range map[string]func(t *testing.T, ds *synth.Dataset) (string, []byte){
		"csv": func(t *testing.T, ds *synth.Dataset) (string, []byte) {
			var buf bytes.Buffer
			if err := infRow(t, ds).WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			return "text/csv", buf.Bytes()
		},
		"json": func(t *testing.T, ds *synth.Dataset) (string, []byte) {
			rec := store.Record{epc.AttrCertificateID: "inf-json", epc.AttrAspectRatio: "Inf"}
			payload, _ := json.Marshal([]store.Record{rec})
			return "application/json", payload
		},
		"binary": func(t *testing.T, ds *synth.Dataset) (string, []byte) {
			var buf bytes.Buffer
			if err := table.Encode(infRow(t, ds)).WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			return "application/octet-stream", buf.Bytes()
		},
	} {
		t.Run(name, func(t *testing.T) {
			ts, live, ds := liveServer(t, 300)
			var bin bytes.Buffer
			if err := table.Encode(ds.Table).WriteBinary(&bin); err != nil {
				t.Fatal(err)
			}
			if code, out := post(t, ts.URL+"/api/ingest", "application/octet-stream", bin.Bytes()); code != http.StatusOK {
				t.Fatalf("corpus ingest = %d: %s", code, out)
			}
			if code, out := post(t, ts.URL+"/api/refresh", "", nil); code != http.StatusOK {
				t.Fatalf("first refresh = %d: %s", code, out)
			}
			contentType, payload := body(t, ds)
			code, out := post(t, ts.URL+"/api/ingest", contentType, payload)
			var res store.IngestResult
			if err := json.Unmarshal([]byte(out), &res); code != http.StatusOK || err != nil || res.Accepted != 1 {
				t.Fatalf("ingest of the Inf row = %d: %s", code, out)
			}
			if tot, err := live.Store().Totals(epc.AttrAspectRatio); err != nil || math.IsInf(tot[0].S.Max, 0) || tot[0].Count() != 300 {
				t.Fatalf("the store holds aspect ratios %+v (%v); want the Inf cell missing", tot, err)
			}
			for i := 0; i < 2; i++ {
				if code, out := post(t, ts.URL+"/api/refresh", "", nil); code != http.StatusOK {
					t.Fatalf("refresh %d after the Inf row = %d: %s", i+2, code, out)
				}
			}
		})
	}
}
