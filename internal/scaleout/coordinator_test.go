package scaleout

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indice/internal/table"
)

// fakeReplica is an in-process replica: it reports a position and
// answers partial queries over per-shard tables, with injectable
// latency and failures.
type fakeReplica struct {
	t      testing.TB
	shards []*table.Table // one table per shard

	// mu guards the injected behaviour, which a test may change while the
	// coordinator's poller and legs are reading it.
	mu       sync.Mutex
	inj      injected
	partials atomic.Int64 // partial queries served

	srv *httptest.Server
}

// injected is a fakeReplica's position and faults.
type injected struct {
	min, max   uint64        // epochs held
	delay      time.Duration // partial-query latency
	failWith   int           // non-zero: answer partial queries with this status
	statusFail bool          // fail /api/replicate/status with 500
}

// inject changes the replica's behaviour under its lock.
func (f *fakeReplica) inject(change func(*injected)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	change(&f.inj)
}

func (f *fakeReplica) injected() injected {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inj
}

func newFakeReplica(t testing.TB, shards []*table.Table, min, max uint64) *fakeReplica {
	f := &fakeReplica{t: t, shards: shards, inj: injected{min: min, max: max}}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/replicate/status", func(w http.ResponseWriter, r *http.Request) {
		inj := f.injected()
		if inj.statusFail {
			http.Error(w, "status probe starved", http.StatusInternalServerError)
			return
		}
		rows := 0
		for _, s := range shards {
			rows += s.NumRows()
		}
		json.NewEncoder(w).Encode(ReplicaStatus{
			AppliedEpoch: inj.max, MinEpoch: inj.min, Shards: len(shards), Rows: rows,
		})
	})
	mux.HandleFunc("/api/query/partial", func(w http.ResponseWriter, r *http.Request) {
		f.partials.Add(1)
		// Consume the body before any injected delay — the server can
		// only notice a client disconnect while it is reading.
		var spec QuerySpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		inj := f.injected()
		if inj.delay > 0 {
			select {
			case <-time.After(inj.delay):
			case <-r.Context().Done():
				return
			}
		}
		if inj.failWith != 0 {
			http.Error(w, "injected failure", inj.failWith)
			return
		}
		if spec.Epoch < inj.min || spec.Epoch > inj.max {
			http.Error(w, "epoch not held", http.StatusPreconditionFailed)
			return
		}
		leg, err := table.NewWithSchema(partialSchema)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for i := spec.ShardFrom; i < spec.ShardTo; i++ {
			if err := leg.AppendTable(shards[i]); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		totals, groups, err := BuildPartial(leg, spec.Attrs, spec.By)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p := &Partial{Epoch: spec.Epoch, StoreRows: leg.NumRows(), Agg: table.AggPartial{Rows: leg.NumRows(), Groups: groups}}
		if spec.By == "" {
			p.Agg.Totals = totals
		}
		json.NewEncoder(w).Encode(p)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// coordShards deals rows over nShards tables — the per-shard layout
// every fake replica of one cluster shares.
func coordShards(t testing.TB, seed int64, rows, nShards int) []*table.Table {
	t.Helper()
	whole := partialRows(t, rand.New(rand.NewSource(seed)), rows)
	out := make([]*table.Table, nShards)
	assign := make([][]int, nShards)
	for i := 0; i < whole.NumRows(); i++ {
		assign[i%nShards] = append(assign[i%nShards], i)
	}
	for s := range out {
		tab, err := table.NewWithSchema(partialSchema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.AppendTaken(whole, assign[s]); err != nil {
			t.Fatal(err)
		}
		out[s] = tab
	}
	return out
}

func startCoordinator(t testing.TB, cfg CoordinatorConfig, replicas ...*fakeReplica) *Coordinator {
	t.Helper()
	for _, f := range replicas {
		cfg.Replicas = append(cfg.Replicas, f.srv.URL)
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 20 * time.Millisecond
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.PollStatus(context.Background())
	return c
}

func TestCoordinatorMergesAcrossReplicas(t *testing.T) {
	shards := coordShards(t, 11, 400, 4)
	r1 := newFakeReplica(t, shards, 1, 5)
	r2 := newFakeReplica(t, shards, 1, 5)
	c := startCoordinator(t, CoordinatorConfig{}, r1, r2)

	m, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x", "y"}, By: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 5 || m.Replicas != 2 || m.Degraded != 0 {
		t.Fatalf("merged meta: epoch %d, replicas %d, degraded %d", m.Epoch, m.Replicas, m.Degraded)
	}

	// The scatter-gather answer must equal one pass over all shards.
	whole, err := table.NewWithSchema(partialSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if err := whole.AppendTable(s); err != nil {
			t.Fatal(err)
		}
	}
	wantTotals, wantGroups, err := BuildPartial(whole, []string{"x", "y"}, "g")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(m.Agg, whole.NumRows(), wantTotals, wantGroups); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorPicksMaxCommonEpoch: r1 holds [3,5], r2 holds [2,4] —
// epoch 4 is the newest both can serve, so queries pin there rather
// than to r1's newer 5 (which would shrink the fan-out to one replica).
func TestCoordinatorPicksMaxCommonEpoch(t *testing.T) {
	shards := coordShards(t, 12, 100, 2)
	r1 := newFakeReplica(t, shards, 3, 5)
	r2 := newFakeReplica(t, shards, 2, 4)
	c := startCoordinator(t, CoordinatorConfig{}, r1, r2)

	e, err := c.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if e != 4 {
		t.Fatalf("picked epoch %d, want 4", e)
	}
	m, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 4 || m.Replicas != 2 {
		t.Fatalf("merged at epoch %d over %d replicas, want 4 over 2", m.Epoch, m.Replicas)
	}
}

func TestCoordinatorFailsOverAndReportsDegraded(t *testing.T) {
	shards := coordShards(t, 13, 200, 4)
	bad := newFakeReplica(t, shards, 1, 5)
	bad.inject(func(i *injected) { i.failWith = http.StatusInternalServerError })
	good := newFakeReplica(t, shards, 1, 5)
	c := startCoordinator(t, CoordinatorConfig{}, bad, good)

	m, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded == 0 {
		t.Fatal("failed-over query not reported degraded")
	}
	if m.Agg.Matched != 200 {
		t.Fatalf("degraded query matched %d rows, want 200", m.Agg.Matched)
	}
}

// TestCoordinatorFailsOverOn412: a replica that lost the pinned epoch
// from its ring answers 412, which must route the leg to a replica that
// still holds it — not fail the query.
func TestCoordinatorFailsOverOn412(t *testing.T) {
	shards := coordShards(t, 14, 200, 4)
	// Both report [1,5]; stale then forgets everything but epoch 9 —
	// the status cache is allowed to be behind reality.
	stale := newFakeReplica(t, shards, 1, 5)
	good := newFakeReplica(t, shards, 1, 5)
	c := startCoordinator(t, CoordinatorConfig{}, stale, good)
	stale.inject(func(i *injected) { i.min, i.max = 9, 9 })

	m, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Agg.Matched != 200 || m.Degraded == 0 {
		t.Fatalf("after 412 failover: matched %d, degraded %d", m.Agg.Matched, m.Degraded)
	}
}

// TestCoordinatorHedgesSlowLeg: the slow replica's leg is hedged to the
// fast one, so the query finishes far sooner than the slow leg would.
func TestCoordinatorHedgesSlowLeg(t *testing.T) {
	shards := coordShards(t, 15, 100, 4)
	slow := newFakeReplica(t, shards, 1, 5)
	slow.inject(func(i *injected) { i.delay = 3 * time.Second })
	fast := newFakeReplica(t, shards, 1, 5)
	c := startCoordinator(t, CoordinatorConfig{HedgeAfter: 30 * time.Millisecond}, slow, fast)

	start := time.Now()
	m, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged query took %v", elapsed)
	}
	if m.Agg.Matched != 100 {
		t.Fatalf("hedged query matched %d rows, want 100", m.Agg.Matched)
	}
	if fast.partials.Load() < 2 {
		t.Fatalf("fast replica served %d partials, expected its own leg plus a hedge", fast.partials.Load())
	}
}

// TestCoordinatorClientErrorFailsFast: a 400 means the request itself is
// bad, so the coordinator must surface it without burning attempts on
// the other replicas.
func TestCoordinatorClientErrorFailsFast(t *testing.T) {
	shards := coordShards(t, 16, 100, 4)
	r1 := newFakeReplica(t, shards, 1, 5)
	r2 := newFakeReplica(t, shards, 1, 5)
	c := startCoordinator(t, CoordinatorConfig{}, r1, r2)

	_, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"no_such_attr"}})
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Fatalf("bad-attribute query returned %v, want ClientError", err)
	}
}

func TestCoordinatorNotReadyWithoutSyncedReplica(t *testing.T) {
	shards := coordShards(t, 17, 10, 2)
	unsynced := newFakeReplica(t, shards, 0, 0) // AppliedEpoch 0: never synced
	c := startCoordinator(t, CoordinatorConfig{}, unsynced)
	if err := c.Ready(); !errors.Is(err, ErrNoCommonEpoch) {
		t.Fatalf("Ready() = %v, want ErrNoCommonEpoch", err)
	}
	if _, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x"}}); !errors.Is(err, ErrNoCommonEpoch) {
		t.Fatalf("Query = %v, want ErrNoCommonEpoch", err)
	}
}

// TestCoordinatorAllReplicasDead: every candidate fails — the query
// errors rather than hanging or answering partially.
// TestCoordinatorServesOnStaleViews pins the saturation behavior: when
// every status probe fails (under peak load they starve behind query
// legs), the coordinator must keep serving on the last-known replica
// statuses — not fast-fail every query with ErrNoCommonEpoch and turn
// overload into a 503 storm.
func TestCoordinatorServesOnStaleViews(t *testing.T) {
	shards := coordShards(t, 21, 60, 2)
	total := 0
	for _, s := range shards {
		total += s.NumRows()
	}
	r1 := newFakeReplica(t, shards, 1, 5)
	r2 := newFakeReplica(t, shards, 1, 5)
	c := startCoordinator(t, CoordinatorConfig{}, r1, r2)

	for _, r := range []*fakeReplica{r1, r2} {
		r.inject(func(i *injected) { i.statusFail = true })
	}
	c.PollStatus(context.Background()) // both views flip not-ok; statuses are retained

	m, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x"}})
	if err != nil {
		t.Fatalf("query with only stale views: %v", err)
	}
	if m.Agg.Matched != total {
		t.Fatalf("stale-view query matched %d rows, want %d", m.Agg.Matched, total)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("Ready() with retained statuses: %v", err)
	}
}

func TestCoordinatorAllReplicasDead(t *testing.T) {
	shards := coordShards(t, 18, 50, 2)
	r1 := newFakeReplica(t, shards, 1, 5)
	r2 := newFakeReplica(t, shards, 1, 5)
	c := startCoordinator(t, CoordinatorConfig{}, r1, r2)
	// Poll happened while healthy; now every partial query fails.
	for _, r := range []*fakeReplica{r1, r2} {
		r.inject(func(i *injected) { i.failWith = http.StatusInternalServerError })
	}

	if _, err := c.Query(context.Background(), QuerySpec{Attrs: []string{"x"}}); err == nil {
		t.Fatal("query over dead replicas succeeded")
	}
}
