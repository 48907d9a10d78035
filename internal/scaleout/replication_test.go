package scaleout

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"indice/internal/query"
	"indice/internal/store"
	"indice/internal/table"
)

// replConfig keys rows so shard routing is deterministic; the tiny
// segment cap seals often, producing multi-segment shards.
func replConfig() store.Config {
	return store.Config{
		Shards:      3,
		SegmentRows: 16,
		Schema:      wireSchema,
		KeyAttr:     "id",
		IndexAttrs:  []string{"class"},
	}
}

func replBatch(t testing.TB, seed int64, n int) *table.Table {
	t.Helper()
	return wireTable(t, seed, n)
}

// leaderServer mounts a real Leader over st on an httptest server, the
// same three routes indice-server exposes.
func leaderServer(t testing.TB, st *store.Store) (*Leader, *httptest.Server) {
	t.Helper()
	l := NewLeader(st)
	mux := http.NewServeMux()
	mux.HandleFunc("/api/replicate/info", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(l.Info())
	})
	mux.HandleFunc("/api/replicate/segments", l.ServeSegments)
	mux.HandleFunc("/api/replicate/delta", l.ServeDelta)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return l, srv
}

// bitwise renders a store's snapshot to its encoded binary form.
func bitwise(t testing.TB, st *store.Store) []byte {
	t.Helper()
	tab, err := st.Snapshot().Table()
	if err != nil {
		t.Fatal(err)
	}
	return encodedBytes(t, tab)
}

func TestReplicaFullThenDeltaSync(t *testing.T) {
	leaderStore, err := store.New(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderStore.AppendTable(replBatch(t, 1, 200)); err != nil {
		t.Fatal(err)
	}
	_, srv := leaderServer(t, leaderStore)

	replicaStore, err := store.New(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	repl := NewReplica(replicaStore, srv.URL, srv.Client(), 10*time.Millisecond)

	// First sync is a full stream.
	if err := repl.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := replicaStore.Rows(), leaderStore.Rows(); got != want {
		t.Fatalf("after full sync: %d rows, want %d", got, want)
	}
	if !bytes.Equal(bitwise(t, replicaStore), bitwise(t, leaderStore)) {
		t.Fatal("full sync is not bitwise-faithful")
	}
	st := repl.Status()
	if st.FullSyncs != 1 || st.AppliedEpoch == 0 || st.AppliedRows != 200 || st.Syncs != 1 {
		t.Fatalf("status after full sync: %+v", st)
	}
	if _, ok := repl.SnapshotAt(st.AppliedEpoch); !ok {
		t.Fatalf("applied epoch %d not pinned in the ring", st.AppliedEpoch)
	}

	// New rows at the leader arrive via a delta, not another full stream.
	if _, err := leaderStore.AppendTable(replBatch(t, 2, 120)); err != nil {
		t.Fatal(err)
	}
	if err := repl.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := replicaStore.Rows(), leaderStore.Rows(); got != want {
		t.Fatalf("after delta sync: %d rows, want %d", got, want)
	}
	if !bytes.Equal(bitwise(t, replicaStore), bitwise(t, leaderStore)) {
		t.Fatal("delta sync is not bitwise-faithful")
	}
	st = repl.Status()
	if st.FullSyncs != 1 {
		t.Fatalf("delta sync ran %d full syncs, want 1", st.FullSyncs)
	}
	if st.AppliedRows != 320 || st.Syncs != 2 {
		t.Fatalf("status after delta sync: %+v", st)
	}

	// Nothing new: a no-op contact, no error, still current.
	if err := repl.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A no-op sync counts the contact and applies no rows.
	noop := repl.Status()
	if noop.Syncs != 3 || noop.AppliedRows != st.AppliedRows || noop.AppliedEpoch != st.AppliedEpoch {
		t.Fatalf("status after no-op sync: %+v, before %+v", noop, st)
	}
}

// TestReplicaSealsAsItsLeaderDoes: replicated frames enter the replica's
// tails by the road accepted batches take, so a replica synced after every
// small batch seals and folds its tails as its leader does. Through 24
// such syncs each shard holds at most ⌈rows/SegmentRows⌉ sealed segments
// and 8 tail parts, the leader's layout, and every answer — select-all
// sums included — is bitwise the leader's.
func TestReplicaSealsAsItsLeaderDoes(t *testing.T) {
	cfg := replConfig()
	cfg.SegmentRows = 100
	leaderStore, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderStore.AppendTable(replBatch(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	_, srv := leaderServer(t, leaderStore)
	replicaStore, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repl := NewReplica(replicaStore, srv.URL, srv.Client(), 10*time.Millisecond)
	preds := []query.Predicate{
		nil,
		query.MustParse("class = c1"),
		query.MustParse("v >= 0"),
		query.MustParse("not (class = c2) or v <= -50"),
	}
	spec := store.AggSpec{By: "class", Attrs: []string{"v"}}
	answer := func(st *store.Store, p query.Predicate) []byte {
		t.Helper()
		snap := st.Snapshot()
		res, page, _, err := snap.QueryShardsPage(p, 0, snap.NumShards(), 1, spec, 0, snap.NumRows()+1)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := table.NewWithSchema(st.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range page {
			if err := run.AppendTo(tab); err != nil {
				t.Fatal(err)
			}
		}
		return append([]byte(renderResult(res)), encodedBytes(t, tab)...)
	}
	// parts counts a store's tail parts per shard: what a snapshot reads
	// past the sealed segments.
	parts := func(st *store.Store) []int {
		snap := st.Snapshot()
		out := make([]int, snap.NumShards())
		for i, sh := range st.Status().Shards {
			encs, err := snap.ShardEncoded(i)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = len(encs) - sh.Segments
		}
		return out
	}
	folded := false
	prev, prevParts := replicaStore.Status().Shards, parts(replicaStore)
	for b := 0; b < 24; b++ {
		if _, err := leaderStore.AppendTable(replBatch(t, int64(2+b), 25)); err != nil {
			t.Fatal(err)
		}
		if err := repl.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		lead, got, tails := leaderStore.Status(), replicaStore.Status(), parts(replicaStore)
		for i, sh := range got.Shards {
			if limit := (sh.Rows + cfg.SegmentRows - 1) / cfg.SegmentRows; sh.Segments > limit || tails[i] > 8 {
				t.Fatalf("batch %d, shard %d: %d sealed segments and %d tail parts over %d rows; want at most %d and 8",
					b, i, sh.Segments, tails[i], sh.Rows, limit)
			}
			if l := lead.Shards[i]; sh != l {
				t.Fatalf("batch %d, shard %d: the replica holds %+v, its leader %+v", b, i, sh, l)
			}
			folded = folded || sh.Segments == prev[i].Segments && sh.Rows > prev[i].Rows && tails[i] <= prevParts[i]
		}
		prev, prevParts = got.Shards, tails
		for _, p := range preds {
			if !bytes.Equal(answer(replicaStore, p), answer(leaderStore, p)) {
				t.Fatalf("batch %d: the replica answers %v unlike its leader", b, p)
			}
		}
	}
	if !folded {
		t.Fatal("no replica tail ever folded its parts: the test must see it")
	}
}

// TestReplicaAnswersLikeItsCheckpointedLeader: a checkpoint seals every
// tail of its leader early and a replica does not checkpoint, so from then
// on the two cut their shards into different segments. Every answer must
// still be the same at the same epoch: the select-all sums, means and
// deviations included, which no longer depend on the cut.
func TestReplicaAnswersLikeItsCheckpointedLeader(t *testing.T) {
	cfg := replConfig()
	cfg.SegmentRows = 100
	leaderStore, err := store.Open(cfg, store.Durability{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaderStore.Close() })
	if _, err := leaderStore.AppendTable(replBatch(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	_, srv := leaderServer(t, leaderStore)
	replicaStore, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repl := NewReplica(replicaStore, srv.URL, srv.Client(), 10*time.Millisecond)
	for b := 0; b < 7; b++ {
		if _, err := leaderStore.AppendTable(replBatch(t, int64(2+b), 25)); err != nil {
			t.Fatal(err)
		}
		if b == 5 {
			if _, err := leaderStore.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := repl.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	lead, got := leaderStore.Status(), replicaStore.Status()
	if lead.Rows != got.Rows || lead.Shards[0].Segments == got.Shards[0].Segments {
		t.Fatalf("leader %+v, replica %+v: the test needs the same rows cut differently", lead.Shards, got.Shards)
	}
	for _, spec := range []store.AggSpec{{Attrs: []string{"v"}}, {By: "class", Attrs: []string{"v"}}} {
		for _, p := range []query.Predicate{nil, query.MustParse("v >= 0")} {
			want, _, err := leaderStore.Snapshot().QueryAgg(p, spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			have, _, err := replicaStore.Snapshot().QueryAgg(p, spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if w, h := renderResult(want), renderResult(have); w != h {
				t.Fatalf("by %q, %v: the replica answers\n%s\nits leader\n%s", spec.By, p, h, w)
			}
		}
	}
}

// TestReplicaResyncsAfterGone covers the aged-out baseline: the leader
// answers 410 for the replica's epoch, so the replica must reset its
// store and rebuild from a full stream instead of erroring forever.
func TestReplicaResyncsAfterGone(t *testing.T) {
	leaderStore, err := store.New(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderStore.AppendTable(replBatch(t, 3, 150)); err != nil {
		t.Fatal(err)
	}
	l := NewLeader(leaderStore)
	mux := http.NewServeMux()
	mux.HandleFunc("/api/replicate/segments", l.ServeSegments)
	mux.HandleFunc("/api/replicate/delta", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "baseline gone", http.StatusGone)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	replicaStore, err := store.New(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	repl := NewReplica(replicaStore, srv.URL, srv.Client(), 10*time.Millisecond)
	if err := repl.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	preReset := bitwise(t, replicaStore)

	// The next sync asks for a delta, gets 410, and recovers.
	if err := repl.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := repl.Status(); st.FullSyncs != 2 {
		t.Fatalf("after 410: %d full syncs, want 2", st.FullSyncs)
	}
	if got, want := replicaStore.Rows(), leaderStore.Rows(); got != want {
		t.Fatalf("after 410 resync: %d rows, want %d", got, want)
	}
	if !bytes.Equal(bitwise(t, replicaStore), preReset) {
		t.Fatal("410 resync changed the replica's data")
	}
}

func TestReplicaRejectsShardMismatch(t *testing.T) {
	leaderStore, err := store.New(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderStore.AppendTable(replBatch(t, 4, 50)); err != nil {
		t.Fatal(err)
	}
	_, srv := leaderServer(t, leaderStore)

	cfg := replConfig()
	cfg.Shards = 5 // does not mirror the leader
	replicaStore, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repl := NewReplica(replicaStore, srv.URL, srv.Client(), 10*time.Millisecond)
	if err := repl.SyncOnce(context.Background()); err == nil {
		t.Fatal("mismatched shard layout applied")
	}
	if replicaStore.Rows() != 0 {
		t.Fatalf("mismatched stream landed %d rows", replicaStore.Rows())
	}
}

func TestFetchLeaderInfo(t *testing.T) {
	leaderStore, err := store.New(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderStore.AppendTable(replBatch(t, 5, 40)); err != nil {
		t.Fatal(err)
	}
	_, srv := leaderServer(t, leaderStore)
	info, err := FetchLeaderInfo(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 3 || info.SegmentRows != 16 {
		t.Fatalf("leader info = %+v", info)
	}
}
