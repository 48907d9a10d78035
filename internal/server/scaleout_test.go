package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"indice/internal/core"
	"indice/internal/scaleout"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// testCluster is an in-process leader + N replicas + coordinator, all
// real Servers over httptest listeners — the full scale-out path minus
// process boundaries (covered by the cmd e2e test).
type testCluster struct {
	leaderStore *store.Store
	leaderLive  *core.Live
	leader      *httptest.Server
	replicas    []*scaleout.Replica
	replicaSrvs []*httptest.Server
	coord       *scaleout.Coordinator
	coordSrv    *httptest.Server
}

func newTestCluster(t *testing.T, nReplicas, certificates int) *testCluster {
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
	scfg.Shards = 4
	scfg.SegmentRows = 512
	tc := &testCluster{}
	tc.leaderStore, err = store.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.leaderLive, err = core.NewLive(tc.leaderStore, city.Hierarchy, core.LiveConfig{MinRows: 100, Analysis: core.AnalysisConfig{KMax: 3}})
	if err != nil {
		t.Fatal(err)
	}
	leaderSrv, err := NewLiveCluster(tc.leaderLive, ClusterConfig{Leader: scaleout.NewLeader(tc.leaderStore)})
	if err != nil {
		t.Fatal(err)
	}
	tc.leader = httptest.NewServer(leaderSrv)
	t.Cleanup(tc.leader.Close)

	if _, err := tc.leaderStore.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.leaderLive.Refresh(); err != nil {
		t.Fatal(err)
	}

	urls := make([]string, 0, nReplicas)
	for i := 0; i < nReplicas; i++ {
		rstore, err := store.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		repl := scaleout.NewReplica(rstore, tc.leader.URL, tc.leader.Client(), 10*time.Millisecond)
		rsrv, err := NewLiveCluster(nil, ClusterConfig{Replica: repl})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rsrv)
		t.Cleanup(ts.Close)
		tc.replicas = append(tc.replicas, repl)
		tc.replicaSrvs = append(tc.replicaSrvs, ts)
		urls = append(urls, ts.URL)
	}

	tc.coord, err = scaleout.NewCoordinator(scaleout.CoordinatorConfig{
		Replicas: urls, PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.coord.Close)
	coordSrv, err := NewCoordinator(tc.coord)
	if err != nil {
		t.Fatal(err)
	}
	tc.coordSrv = httptest.NewServer(coordSrv)
	t.Cleanup(tc.coordSrv.Close)
	return tc
}

// syncAll pulls every replica current and refreshes the coordinator's
// view, so queries are deterministic.
func (tc *testCluster) syncAll(t *testing.T) {
	t.Helper()
	for _, r := range tc.replicas {
		if err := r.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	tc.coord.PollStatus(context.Background())
}

// TestCoordinatorMatchesSingleNode is the server-level equivalence
// check: the scatter-gather /api/query answer over 1, 2 and 3 replicas
// must match the single-node answer from the leader bitwise on every
// merged statistic, group for group, row for row.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	for _, nReplicas := range []int{1, 2, 3} {
		tc := newTestCluster(t, nReplicas, 1200)
		tc.syncAll(t)

		for _, q := range []string{
			"/api/query?attrs=eph,u_windows&by=energy_class&limit=5",
			"/api/query?attrs=eph&by=district&q=eph+%3E%3D+100&limit=7&offset=30",
			"/api/query?attrs=eph&q=eph+%3E%3D+100",
			"/api/query?preset=pa&by=district",
		} {
			_, single, singleBody := getQuery(t, tc.leader.URL+q)
			if single == nil {
				t.Fatalf("replicas=%d leader %s: %s", nReplicas, q, singleBody)
			}
			_, merged, mergedBody := getQuery(t, tc.coordSrv.URL+q)
			if merged == nil {
				t.Fatalf("replicas=%d coordinator %s: %s", nReplicas, q, mergedBody)
			}

			if merged.Matched != single.Matched || merged.StoreRows != single.StoreRows {
				t.Fatalf("replicas=%d %s: matched %d/%d, want %d/%d",
					nReplicas, q, merged.Matched, merged.StoreRows, single.Matched, single.StoreRows)
			}
			if merged.Cluster == nil || merged.Cluster.Replicas != nReplicas {
				t.Fatalf("replicas=%d %s: cluster block %+v", nReplicas, q, merged.Cluster)
			}
			if len(merged.Stats) != len(single.Stats) {
				t.Fatalf("replicas=%d %s: %d stats, want %d", nReplicas, q, len(merged.Stats), len(single.Stats))
			}
			for i, m := range merged.Stats {
				s := single.Stats[i]
				if m.Attr != s.Attr || m.Count != s.Count || m.Mean != s.Mean || m.StdDev != s.StdDev ||
					m.Min != s.Min || m.Max != s.Max {
					t.Fatalf("replicas=%d %s: stats[%d] = %+v, want %+v", nReplicas, q, i, m, s)
				}
				// Every statistic merges exactly — the sums are exact and
				// rounded once: the same bits, not merely ==.
				for _, pair := range [][2]float64{{m.Mean, s.Mean}, {m.StdDev, s.StdDev}, {m.Min, s.Min}, {m.Max, s.Max}, {m.Q1, s.Q1}, {m.Median, s.Median}, {m.Q3, s.Q3}} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("replicas=%d %s: stats[%d] = %+v, want bitwise %+v", nReplicas, q, i, m, s)
					}
				}
				// Every shape — stats-only or row page — takes the sketch
				// path on both sides; sketch merges are exact, so
				// coordinator quartiles equal the single node's bitwise.
				if m.Count > 0 && m.Median == 0 && m.Q1 == 0 && m.Q3 == 0 && s.Median != 0 {
					t.Fatalf("replicas=%d %s: merged quartiles read 0: %+v", nReplicas, q, m)
				}
				if m.Q1 != s.Q1 || m.Median != s.Median || m.Q3 != s.Q3 {
					t.Fatalf("replicas=%d %s: stats[%d] quartiles [%v %v %v], want [%v %v %v]",
						nReplicas, q, i, m.Q1, m.Median, m.Q3, s.Q1, s.Median, s.Q3)
				}
			}
			if len(merged.Groups) != len(single.Groups) {
				t.Fatalf("replicas=%d %s: %d groups, want %d", nReplicas, q, len(merged.Groups), len(single.Groups))
			}
			for i, g := range merged.Groups {
				w := single.Groups[i]
				if g.Value != w.Value || g.Count != w.Count {
					t.Fatalf("replicas=%d %s: group %q/%d, want %q/%d", nReplicas, q, g.Value, g.Count, w.Value, w.Count)
				}
				for attr, mean := range w.Means {
					if math.Float64bits(g.Means[attr]) != math.Float64bits(mean) {
						t.Fatalf("replicas=%d %s: group %q mean[%s] = %v, want %v",
							nReplicas, q, g.Value, attr, g.Means[attr], mean)
					}
				}
				if !reflect.DeepEqual(g.Quartiles, w.Quartiles) || len(g.Means) != len(w.Means) {
					t.Fatalf("replicas=%d %s: group %q quartiles = %+v, want %+v",
						nReplicas, q, g.Value, g.Quartiles, w.Quartiles)
				}
				for attr, wq := range w.Quartiles {
					gq := g.Quartiles[attr]
					for _, pair := range [][2]float64{{gq.Q1, wq.Q1}, {gq.Median, wq.Median}, {gq.Q3, wq.Q3}, {gq.P90, wq.P90}} {
						if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
							t.Fatalf("replicas=%d %s: group %q %s quartiles = %+v, want bitwise %+v", nReplicas, q, g.Value, attr, gq, wq)
						}
					}
				}
			}
			// Legs forward the rows they encoded, so the coordinator's page
			// is the single node's byte for byte (absent on both sides for
			// the stats-only shapes).
			if got, want := rawRows(t, mergedBody), rawRows(t, singleBody); !bytes.Equal(got, want) {
				t.Fatalf("replicas=%d %s: rows %s, want %s", nReplicas, q, got, want)
			}
		}

		// The coordinator has its own epoch-partitioned cache. A query
		// shape not issued above must miss, then hit.
		q := "/api/query?attrs=eph&q=eph+%3E%3D+100&limit=3"
		if _, first, _ := getQuery(t, tc.coordSrv.URL+q); first.Cached {
			t.Fatal("first coordinator query claims to be cached")
		}
		if _, second, _ := getQuery(t, tc.coordSrv.URL+q); !second.Cached {
			t.Fatal("repeated coordinator query missed the cache")
		}
	}
}

// TestCoordinatorLegsMergeInAnyOrder: the legs of one fan-out merge to
// the same answer whatever order they arrive in, and that answer is the
// single node's, byte for byte beside the plan and epoch echoes: every
// accumulator merges exactly.
func TestCoordinatorLegsMergeInAnyOrder(t *testing.T) {
	tc := newTestCluster(t, 3, 1200)
	tc.syncAll(t)
	epoch := tc.replicas[0].Status().AppliedEpoch
	shards := tc.leaderStore.NumShards()
	rng := rand.New(rand.NewSource(41))
	withoutPlan := func(body []byte) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("answer %s: %v", body, err)
		}
		for _, echo := range []string{"plan", "cached", "epoch"} {
			delete(m, echo)
		}
		return m
	}
	for _, q := range []string{
		"/api/query?attrs=eph,u_windows&by=energy_class",
		"/api/query?attrs=eph,heat_surface&q=eph+%3E%3D+100",
		"/api/query?preset=pa&by=district",
	} {
		rq, err := resolveRequest(httptest.NewRequest(http.MethodGet, q, nil))
		if err != nil {
			t.Fatal(err)
		}
		_, _, singleBody := getQuery(t, tc.leader.URL+q)
		spec := scaleout.QuerySpec{Q: rq.canonical, Attrs: rq.attrs, By: rq.req.By, Epoch: epoch}
		var legs []*scaleout.Partial
		for i := 0; i < shards; i++ {
			spec.ShardFrom, spec.ShardTo = i, i+1
			body, _ := json.Marshal(spec)
			srv := tc.replicaSrvs[i%len(tc.replicaSrvs)]
			resp, err := srv.Client().Post(srv.URL+"/api/query/partial", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var leg scaleout.Partial
			err = json.NewDecoder(resp.Body).Decode(&leg)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			legs = append(legs, &leg)
		}
		for trial := 0; trial < 6; trial++ {
			rng.Shuffle(len(legs), func(i, j int) { legs[i], legs[j] = legs[j], legs[i] })
			m, err := scaleout.MergePartials(spec, legs)
			if err != nil {
				t.Fatal(err)
			}
			a, err := rq.encodeAnswer(m.Epoch, m.StoreRows, m.Agg, &m.Plan, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := withoutPlan(a.body), withoutPlan([]byte(singleBody)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, legs merged in a shuffled order:\n%s\nthe single node:\n%s", q, a.body, singleBody)
			}
		}
	}
}

// TestCoordinatorDeepPaging is the regression test for pages deeper than
// one leg's row prefix: each leg returns its first offset+limit matches,
// and a replica used to clamp that prefix silently, so once the first leg
// held more matches than the clamp the coordinator sliced the page out of
// the second leg's rows. The answer must be the single node's page, or a
// 400 naming the limit — never other rows.
func TestCoordinatorDeepPaging(t *testing.T) {
	tc := newTestCluster(t, 2, 2*maxLegRows+1200)
	tc.syncAll(t)
	firstLeg := tc.leaderLive.Current().Snapshot.ShardRows(0) + tc.leaderLive.Current().Snapshot.ShardRows(1)
	if firstLeg <= maxLegRows+10 {
		t.Fatalf("first leg holds %d rows; the test needs more than the %d-row leg cap", firstLeg, maxLegRows)
	}

	// Below the cap the coordinator pages exactly like a single node.
	q := "/api/query?limit=10&offset=590"
	_, single, singleBody := getQuery(t, tc.leader.URL+q)
	if single == nil {
		t.Fatalf("leader %s: %s", q, singleBody)
	}
	_, merged, body := getQuery(t, tc.coordSrv.URL+q)
	if merged == nil {
		t.Fatalf("coordinator %s: %s", q, body)
	}
	if len(rowsOf(single)) != 10 || !bytes.Equal(rawRows(t, body), rawRows(t, singleBody)) {
		t.Fatalf("page at offset 590: coordinator rows differ from the single node's")
	}

	// Past it: still inside the first leg's matches, so a clamped prefix
	// would answer with the second leg's rows.
	q = fmt.Sprintf("/api/query?limit=10&offset=%d", maxLegRows+5)
	_, single, singleBody = getQuery(t, tc.leader.URL+q)
	if single == nil || len(rowsOf(single)) != 10 {
		t.Fatalf("leader %s: %s", q, singleBody)
	}
	code, _, body := getQuery(t, tc.coordSrv.URL+q)
	switch {
	case code == http.StatusBadRequest:
		if !strings.Contains(body, fmt.Sprint(maxLegRows)) {
			t.Fatalf("400 does not name the %d-row limit: %s", maxLegRows, body)
		}
	case code != http.StatusOK:
		t.Fatalf("coordinator %s: %d %s", q, code, body)
	case !bytes.Equal(rawRows(t, body), rawRows(t, singleBody)):
		t.Fatalf("coordinator page at offset %d is not the single node's page", maxLegRows+5)
	}

	// A replica refuses an over-long prefix outright instead of clamping.
	epoch := tc.replicas[0].Status().AppliedEpoch
	resp, err := http.Post(tc.replicaSrvs[0].URL+"/api/query/partial", "application/json",
		strings.NewReader(fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 2, "rows_limit": %d}`, epoch, maxLegRows+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replica leg with rows_limit %d: status %d, want 400", maxLegRows+1, resp.StatusCode)
	}
}

// TestRowsArrayPastTheEnd: a limit>0 response always carries a rows array
// — empty once offset passes the last match — on a single node and on a
// coordinator, so a paging client can tell "past the end" from the
// stats-only shape; limit=0 responses still omit the field.
func TestRowsArrayPastTheEnd(t *testing.T) {
	tc := newTestCluster(t, 2, 400)
	tc.syncAll(t)
	for name, base := range map[string]string{"single node": tc.leader.URL, "coordinator": tc.coordSrv.URL} {
		code, resp, body := getQuery(t, base+"/api/query?q=eph+%3E%3D+100&limit=5&offset=1000")
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, code, body)
		}
		if resp.Matched == 0 || resp.Matched >= 1000 {
			t.Fatalf("%s: matched %d; offset 1000 is not past the end", name, resp.Matched)
		}
		if resp.Rows == nil || len(*resp.Rows) != 0 || !strings.Contains(body, `"rows":[]`) {
			t.Fatalf("%s: past-the-end page must carry an empty rows array: %s", name, body)
		}
		code, resp, body = getQuery(t, base+"/api/query?q=eph+%3E%3D+100&offset=1000")
		if code != http.StatusOK || resp.Rows != nil || strings.Contains(body, `"rows"`) {
			t.Fatalf("%s: stats-only response carries rows: %d %s", name, code, body)
		}
	}
}

// TestReadyEndpoints covers the readiness gate on every role, as
// distinct from the always-200 /api/health report.
func TestReadyEndpoints(t *testing.T) {
	tc := newTestCluster(t, 1, 400)

	// Leader published an analysis in newTestCluster: ready.
	code, body := get(t, tc.leader.URL+"/api/ready")
	if code != http.StatusOK {
		t.Fatalf("leader /api/ready = %d: %s", code, body)
	}
	var ready struct {
		Ready bool   `json:"ready"`
		Mode  string `json:"mode"`
	}
	if err := json.Unmarshal([]byte(body), &ready); err != nil || !ready.Ready || ready.Mode != "leader" {
		t.Fatalf("leader ready body: %s (%v)", body, err)
	}

	// Replica: 503 before its first sync, 200 after — while /api/health
	// answers 200 throughout.
	if code, _ := get(t, tc.replicaSrvs[0].URL+"/api/ready"); code != http.StatusServiceUnavailable {
		t.Fatalf("unsynced replica /api/ready = %d, want 503", code)
	}
	if code, _ := get(t, tc.replicaSrvs[0].URL+"/api/health"); code != http.StatusOK {
		t.Fatalf("unsynced replica /api/health = %d, want 200", code)
	}
	// Coordinator: 503 while no replica can serve.
	tc.coord.PollStatus(context.Background())
	if code, _ := get(t, tc.coordSrv.URL+"/api/ready"); code != http.StatusServiceUnavailable {
		t.Fatalf("coordinator /api/ready with no synced replica = %d, want 503", code)
	}

	tc.syncAll(t)
	code, body = get(t, tc.replicaSrvs[0].URL+"/api/ready")
	if code != http.StatusOK {
		t.Fatalf("synced replica /api/ready = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ready); err != nil || ready.Mode != "replica" {
		t.Fatalf("replica ready body: %s (%v)", body, err)
	}
	if code, _ := get(t, tc.coordSrv.URL+"/api/ready"); code != http.StatusOK {
		t.Fatalf("coordinator /api/ready after sync = %d, want 200", code)
	}
}

func TestReplicaRejectsIngest(t *testing.T) {
	tc := newTestCluster(t, 1, 400)
	tc.syncAll(t)
	code, body := post(t, tc.replicaSrvs[0].URL+"/api/ingest", "text/csv", []byte("x"))
	if code != http.StatusForbidden {
		t.Fatalf("replica ingest = %d: %s", code, body)
	}
}

// TestCoordinatorShutdownDrainsInflightFanout is the shutdown-ordering
// regression test: with a slow replica leg in flight, http.Server
// drains the fan-out to completion BEFORE the coordinator's replica
// clients are closed (srv.Shutdown, then coord.Close — the order
// indice-server's main uses). The in-flight query must answer 200, not
// be severed by its own server's teardown.
func TestCoordinatorShutdownDrainsInflightFanout(t *testing.T) {
	const legDelay = 400 * time.Millisecond
	// A hand-rolled slow replica: one shard, epoch 5, and a partial
	// handler that answers correctly but only after legDelay.
	mux := http.NewServeMux()
	mux.HandleFunc("/api/replicate/status", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(scaleout.ReplicaStatus{AppliedEpoch: 5, MinEpoch: 1, Shards: 1, Rows: 10})
	})
	mux.HandleFunc("/api/query/partial", func(w http.ResponseWriter, r *http.Request) {
		var spec scaleout.QuerySpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-time.After(legDelay):
		case <-r.Context().Done():
			return
		}
		var eph table.AggAccum
		for v := 90.0; v < 100; v++ {
			eph.Observe(v)
		}
		json.NewEncoder(w).Encode(&scaleout.Partial{
			Epoch: spec.Epoch, StoreRows: 10,
			Agg: table.AggPartial{Rows: 10, Totals: []table.AggAccum{eph}},
		})
	})
	replica := httptest.NewServer(mux)
	defer replica.Close()

	coord, err := scaleout.NewCoordinator(scaleout.CoordinatorConfig{
		Replicas:     []string{replica.URL},
		PollInterval: 10 * time.Millisecond,
		HedgeAfter:   10 * time.Second, // no hedging noise
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.PollStatus(context.Background())
	handler, err := NewCoordinator(coord)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Launch the query, give it time to reach the replica, then shut
	// the server down while the leg is still sleeping.
	type result struct {
		code    int
		resp    queryResponse
		elapsed time.Duration
		err     error
	}
	resCh := make(chan result, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		resp, err := http.Get(base + "/api/query?attrs=eph")
		r := result{elapsed: time.Since(start), err: err}
		if err == nil {
			r.code = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&r.resp)
			resp.Body.Close()
		}
		resCh <- r
	}()
	time.Sleep(legDelay / 4)

	shutStart := time.Now()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	shutTook := time.Since(shutStart)
	coord.Close() // postDrain: only after the fan-out drained

	wg.Wait()
	r := <-resCh
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight query during shutdown: code %d, err %v", r.code, r.err)
	}
	if r.resp.Matched != 10 || len(r.resp.Stats) != 1 || r.resp.Stats[0].Count != 10 {
		t.Fatalf("drained query answered %+v", r.resp)
	}
	// Shutdown must have waited for the slow leg rather than returning
	// while it was still in flight.
	if shutTook < legDelay/2 {
		t.Fatalf("Shutdown returned in %v, before the %v leg finished", shutTook, legDelay)
	}
	// And the listener is really closed afterwards.
	if _, err := http.Get(base + "/api/ready"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestCoordinatorRefusesMalformedLegs: a replica answering something a
// healthy one cannot — accumulators that do not fit the query, summed
// values missing from the sketch, another epoch than asked — makes the
// coordinator answer 502; it neither panics nor renders skewed statistics.
func TestCoordinatorRefusesMalformedLegs(t *testing.T) {
	var eph table.AggAccum
	eph.Observe(120)
	sketchless := eph
	sketchless.S = nil
	leg := func(epochOff uint64, agg table.AggPartial) func(scaleout.QuerySpec) *scaleout.Partial {
		return func(spec scaleout.QuerySpec) *scaleout.Partial {
			return &scaleout.Partial{Epoch: spec.Epoch + epochOff, StoreRows: 1, Agg: agg}
		}
	}
	for name, leg := range map[string]func(scaleout.QuerySpec) *scaleout.Partial{
		"healthy":                    leg(0, table.AggPartial{Rows: 1, Totals: []table.AggAccum{eph}}),
		"no accumulators":            leg(0, table.AggPartial{Rows: 1}),
		"two accumulators, one attr": leg(0, table.AggPartial{Rows: 1, Totals: []table.AggAccum{eph, eph}}),
		"count without a sketch":     leg(0, table.AggPartial{Rows: 1, Totals: []table.AggAccum{sketchless}}),
		"another epoch":              leg(1, table.AggPartial{Rows: 1, Totals: []table.AggAccum{eph}}),
		"null group":                 leg(0, table.AggPartial{Rows: 1, Groups: []*table.GroupAccum{nil}}),
		"group without accumulators": leg(0, table.AggPartial{Rows: 1, Groups: []*table.GroupAccum{{Key: "C", Rows: 1}}}),
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("/api/replicate/status", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(scaleout.ReplicaStatus{AppliedEpoch: 5, MinEpoch: 1, Shards: 1, Rows: 1})
		})
		mux.HandleFunc("/api/query/partial", func(w http.ResponseWriter, r *http.Request) {
			var spec scaleout.QuerySpec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			json.NewEncoder(w).Encode(leg(spec))
		})
		replica := httptest.NewServer(mux)
		coord, err := scaleout.NewCoordinator(scaleout.CoordinatorConfig{Replicas: []string{replica.URL}, PollInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		coord.PollStatus(context.Background())
		handler, err := NewCoordinator(coord)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(handler)
		panics := mHTTPPanics.Value()
		q := "/api/query?attrs=eph"
		if strings.Contains(name, "group") {
			q += "&by=energy_class"
		}
		code, body := get(t, ts.URL+q)
		want := http.StatusBadGateway
		if name == "healthy" {
			want = http.StatusOK
		}
		if code != want {
			t.Errorf("%s: status %d (%s), want %d", name, code, strings.TrimSpace(body), want)
		}
		if mHTTPPanics.Value() != panics {
			t.Errorf("%s: the handler panicked", name)
		}
		ts.Close()
		coord.Close()
		replica.Close()
	}
}

// TestReplicaReadyAfterFirstSync: a replica runs no analysis, so its
// readiness is its first sync alone — 503 before it, 200 after, with no
// refresh run anywhere on the replica.
func TestReplicaReadyAfterFirstSync(t *testing.T) {
	tc := newTestCluster(t, 1, 400)
	replica := tc.replicaSrvs[0].URL
	if code, body := get(t, replica+"/api/ready"); code != http.StatusServiceUnavailable {
		t.Fatalf("unsynced replica /api/ready = %d: %s", code, body)
	}
	if code, body := get(t, replica+"/api/query?attrs=eph"); code != http.StatusServiceUnavailable {
		t.Fatalf("unsynced replica /api/query = %d: %s", code, body)
	}
	if err := tc.replicas[0].SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, replica+"/api/ready"); code != http.StatusOK {
		t.Fatalf("synced replica /api/ready = %d: %s", code, body)
	}
	var health struct {
		Status    string `json:"status"`
		Rows      int    `json:"rows"`
		Refreshes uint64 `json:"refreshes"`
	}
	_, body := get(t, replica+"/api/health")
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Rows != tc.leaderStore.Rows() || health.Refreshes != 0 {
		t.Fatalf("synced replica /api/health: %s", body)
	}
	var st struct {
		Published *struct{} `json:"published"`
		Refreshes uint64    `json:"refreshes"`
	}
	_, body = get(t, replica+"/api/store")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Published != nil || st.Refreshes != 0 {
		t.Fatalf("replica /api/store reports an analysis: %s", body)
	}
}

// TestReplicaAnswersAtLeaderEpochs: a replica's /api/query, /api/ready
// and /api/health speak the leader's epochs — the ones its status
// reports and a coordinator pins — not its own store's snapshot count.
func TestReplicaAnswersAtLeaderEpochs(t *testing.T) {
	tc := newTestCluster(t, 1, 400)
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 5, 4
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		gcfg := synth.DefaultConfig()
		gcfg.Certificates, gcfg.Seed = 50, int64(100+batch)
		ds, err := synth.Generate(gcfg, city)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.leaderStore.AppendTable(ds.Table); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.leaderLive.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	tc.syncAll(t)
	replica := tc.replicaSrvs[0].URL
	var status scaleout.ReplicaStatus
	_, body := get(t, replica+"/api/replicate/status")
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if status.AppliedEpoch != tc.leaderStore.Epoch() || status.AppliedEpoch == tc.replicas[0].Store().Epoch() {
		t.Fatalf("applied epoch %d, leader store %d, replica store %d: the test needs them apart",
			status.AppliedEpoch, tc.leaderStore.Epoch(), tc.replicas[0].Store().Epoch())
	}
	for _, path := range []string{"/api/query?attrs=eph", "/api/ready", "/api/health"} {
		var resp struct {
			Epoch uint64 `json:"epoch"`
		}
		_, body := get(t, replica+path)
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, body)
		}
		if resp.Epoch != status.AppliedEpoch {
			t.Fatalf("%s epoch = %d, replica status applied_epoch = %d", path, resp.Epoch, status.AppliedEpoch)
		}
	}
}

// TestReplicaRouteContract pins what a replica serves: its store, its
// sync state and the query engine locally; every analysis route and the
// pipeline's controls as a 307 to the same path and query on the
// leader; and never a write.
func TestReplicaRouteContract(t *testing.T) {
	tc := newTestCluster(t, 1, 400)
	tc.syncAll(t)
	replica := tc.replicaSrvs[0].URL
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	do := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, replica+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for _, path := range []string{
		"/api/query?attrs=eph&by=energy_class", "/api/presets", "/api/store",
		"/api/replicate/status", "/api/health", "/api/ready", "/metrics",
	} {
		if resp := do(http.MethodGet, path); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200 served locally", path, resp.StatusCode)
		}
	}
	for _, rt := range []struct{ method, path string }{
		{http.MethodGet, "/"},
		{http.MethodGet, "/dashboard/citizen"},
		{http.MethodGet, "/map?level=district&attr=eph"},
		{http.MethodGet, "/api/stats?attr=eph"},
		{http.MethodGet, "/api/zones?level=district&attr=u_windows"},
		{http.MethodGet, "/api/rules?k=3"},
		{http.MethodGet, "/api/clusters"},
		{http.MethodPost, "/api/refresh"},
		{http.MethodPost, "/api/checkpoint"},
	} {
		resp := do(rt.method, rt.path)
		if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != tc.leader.URL+rt.path {
			t.Errorf("%s %s = %d to %q, want 307 to %s", rt.method, rt.path,
				resp.StatusCode, resp.Header.Get("Location"), tc.leader.URL+rt.path)
		}
	}
	if resp := do(http.MethodPost, "/api/ingest"); resp.StatusCode != http.StatusForbidden {
		t.Errorf("POST /api/ingest = %d, want 403", resp.StatusCode)
	}
}

// TestReplicaAnalysisIsTheLeaders: through the redirect, a replica's
// analysis routes answer the leader's one analysis, byte for byte.
func TestReplicaAnalysisIsTheLeaders(t *testing.T) {
	tc := newTestCluster(t, 1, 400)
	tc.syncAll(t)
	for _, path := range []string{"/api/rules?k=5", "/api/clusters", "/dashboard/citizen"} {
		lcode, leader := get(t, tc.leader.URL+path)
		rcode, replica := get(t, tc.replicaSrvs[0].URL+path)
		if lcode != http.StatusOK || rcode != lcode || replica != leader {
			t.Fatalf("%s: replica %d (%d bytes), leader %d (%d bytes)", path, rcode, len(replica), lcode, len(leader))
		}
	}
}

// TestPartialQueryValidation drives /api/query/partial directly through
// every rejection branch and both service branches (the pushdown
// stats-shaped leg and the row-shaped leg), plus the info endpoints the
// coordinator path never exercises.
func TestPartialQueryValidation(t *testing.T) {
	tc := newTestCluster(t, 1, 600)
	tc.syncAll(t)
	replica := tc.replicaSrvs[0]
	epoch := tc.replicas[0].Status().AppliedEpoch

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := replica.Client().Post(replica.URL+"/api/query/partial", "application/json", strings.NewReader(body))
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

	for _, tt := range []struct {
		name, body string
		status     int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"trailing data", fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 4} garbage`, epoch), http.StatusBadRequest},
		{"two documents", fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 4}{"epoch": %d}`, epoch, epoch), http.StatusBadRequest},
		{"missing epoch", fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 4}`, epoch+99), http.StatusPreconditionFailed},
		{"bad shard range", fmt.Sprintf(`{"epoch": %d, "shard_from": 3, "shard_to": 1}`, epoch), http.StatusBadRequest},
		{"unparseable query", fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 4, "q": "eph >"}`, epoch), http.StatusBadRequest},
		{"unknown agg attr", fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 4, "attrs": ["nope"]}`, epoch), http.StatusBadRequest},
	} {
		if code, body := post(tt.body); code != tt.status {
			t.Fatalf("%s: status %d (%s), want %d", tt.name, code, body, tt.status)
		}
	}

	// Stats-shaped leg (rows_limit absent): served by the pushdown, no
	// rows, populated sketches.
	code, body := post(fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 4, "attrs": ["eph"], "by": "energy_class"}`, epoch))
	if code != http.StatusOK {
		t.Fatalf("stats leg: %d %s", code, body)
	}
	var p scaleout.Partial
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if p.Rows != nil || len(p.Agg.Groups) == 0 || p.Agg.Rows == 0 || p.Agg.Totals != nil {
		t.Fatalf("stats leg: %+v", p)
	}
	if eph := p.Agg.Groups[0].Attrs[0]; eph.Count() == 0 || len(eph.Dec) == 0 {
		t.Fatalf("stats leg carried no sketch: %+v", eph)
	}

	// Row-shaped leg: materializes and pages.
	code, body = post(fmt.Sprintf(`{"epoch": %d, "shard_from": 0, "shard_to": 4, "attrs": ["eph"], "rows_limit": 5}`, epoch))
	if code != http.StatusOK {
		t.Fatalf("row leg: %d %s", code, body)
	}
	p = scaleout.Partial{}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 5 || p.Agg.Rows == 0 || len(p.Agg.Totals) != 1 {
		t.Fatalf("row leg: %d rows, matched %d", len(p.Rows), p.Agg.Rows)
	}

	// The leader's replication info and the coordinator's replica view.
	resp, err := tc.leader.Client().Get(tc.leader.URL + "/api/replicate/info")
	if err != nil {
		t.Fatal(err)
	}
	var info scaleout.LeaderInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || info.Shards != 4 {
		t.Fatalf("replicate info: %+v, %v", info, err)
	}
	resp, err = tc.coordSrv.Client().Get(tc.coordSrv.URL + "/api/replicas")
	if err != nil {
		t.Fatal(err)
	}
	views, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(views), tc.replicaSrvs[0].URL) {
		t.Fatalf("replica views: %s, %v", views, err)
	}
}

// TestReplicateInfoTakesNoSnapshot pins /api/replicate/info as a read of
// the leader store's layout: answering it takes no snapshot, so a booting
// replica's probe never moves the leader's epoch.
func TestReplicateInfoTakesNoSnapshot(t *testing.T) {
	_, live, ds := liveServer(t, 200)
	st := live.Store()
	srv, err := NewLiveCluster(live, ClusterConfig{Leader: scaleout.NewLeader(st)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	before := st.Epoch()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/replicate/info", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("replicate info: status %d: %s", rec.Code, rec.Body)
	}
	var info scaleout.LeaderInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Shards != st.NumShards() || info.SegmentRows != st.SegmentRows() {
		t.Fatalf("replicate info %+v, want %d shards of %d-row segments", info, st.NumShards(), st.SegmentRows())
	}
	if after := st.Epoch(); after != before {
		t.Fatalf("replicate info moved the store epoch from %d to %d", before, after)
	}
}
