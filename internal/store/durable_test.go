package store

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indice/internal/query"
)

// reopen closes a durable store and opens the same directory again.
func reopen(t testing.TB, st *Store, cfg Config, dur Durability) *Store {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	return st2
}

// assertStoresEqual compares two stores' observable state: totals,
// per-shard rows, materialized snapshot bytes, a planned query, index
// counts and running statistics.
func assertStoresEqual(t testing.TB, got, want *Store) {
	t.Helper()
	if g, w := got.Rows(), want.Rows(); g != w {
		t.Fatalf("rows = %d, want %d", g, w)
	}
	gs, ws := got.Status(), want.Status()
	for i := range ws.Shards {
		if gs.Shards[i].Rows != ws.Shards[i].Rows {
			t.Fatalf("shard %d rows = %d, want %d", i, gs.Shards[i].Rows, ws.Shards[i].Rows)
		}
	}
	gsn, wsn := got.Snapshot(), want.Snapshot()
	gt, err := gsn.Table()
	if err != nil {
		t.Fatal(err)
	}
	wt, err := wsn.Table()
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqualBinary(t, gt, wt) {
		t.Fatal("materialized snapshots differ")
	}
	pred := query.And{
		query.In{Attr: "batch", Values: []string{"b0", "b2"}},
		query.NumRange{Attr: "v", Min: 5, Max: math.MaxFloat64},
	}
	gq, _, err := gsn.Query(pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	wq, _, err := wsn.Query(pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqualBinary(t, gq, wq) {
		t.Fatal("query results differ")
	}
	gc, _ := got.CountBy("batch")
	wc, _ := want.CountBy("batch")
	if fmt.Sprint(gc) != fmt.Sprint(wc) {
		t.Fatalf("CountBy = %v, want %v", gc, wc)
	}
	gr, _ := got.RunningStats("v")
	wr, _ := want.RunningStats("v")
	if gr.Count != wr.Count || gr.Min != wr.Min || gr.Max != wr.Max || math.Abs(gr.Mean-wr.Mean) > 1e-9 {
		t.Fatalf("stats = %+v, want %+v", gr, wr)
	}
}

func TestOpenFreshDirIsEmpty(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(miniConfig(2), Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Rows() != 0 {
		t.Fatalf("rows = %d", st.Rows())
	}
	ds := st.DurabilityStatus()
	if !ds.Enabled || ds.Dir != dir || ds.Fsync != "always" {
		t.Fatalf("status = %+v", ds)
	}
	if st.RecoveryInfo() != (RecoveryInfo{}) {
		t.Fatalf("fresh dir reported recovery: %+v", st.RecoveryInfo())
	}
	if _, err := Open(miniConfig(2), Durability{}); err == nil {
		t.Fatal("want error for empty data dir")
	}
}

func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(3)
	dur := Durability{Dir: dir, MaxWALBytes: -1}
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		batch := miniBatch(t, b*10, 7, fmt.Sprintf("b%d", b))
		if _, err := st.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
	}
	gen, acc := st.Generation(), st.Status().Accepted

	st = reopen(t, st, cfg, dur)
	defer st.Close()
	rec := st.RecoveryInfo()
	if rec.ReplayedBatches != 4 || rec.ReplayedRows != 28 || rec.CheckpointSegments != 0 || rec.TornTail {
		t.Fatalf("recovery = %+v", rec)
	}
	if st.Generation() != gen || st.Status().Accepted != acc {
		t.Fatalf("counters: gen=%d acc=%d, want %d/%d", st.Generation(), st.Status().Accepted, gen, acc)
	}
	assertStoresEqual(t, st, twin)

	// The recovered store keeps ingesting durably: new batches land after
	// the replayed ones.
	extra := miniBatch(t, 100, 5, "b9")
	if _, err := st.AppendTable(extra); err != nil {
		t.Fatal(err)
	}
	twin.AppendTable(extra)
	st = reopen(t, st, cfg, dur)
	defer st.Close()
	assertStoresEqual(t, st, twin)
}

func TestCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	cfg.SegmentRows = 8
	dur := Durability{Dir: dir, MaxWALBytes: -1}
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := New(cfg)
	feed := func(s *Store, base int, label string) {
		t.Helper()
		b := miniBatch(t, base, 10, label)
		if _, err := s.AppendTable(b); err != nil {
			t.Fatal(err)
		}
	}
	feed(st, 0, "b0")
	feed(twin, 0, "b0")
	feed(st, 10, "b1")
	feed(twin, 10, "b1")

	res, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.NewSegments == 0 || res.NewSegmentRows != 20 || res.WALSeq != 2 {
		t.Fatalf("checkpoint = %+v", res)
	}
	if res.WALFilesRemoved == 0 {
		t.Fatalf("checkpoint left the covered wal files: %+v", res)
	}

	// Batches after the checkpoint live only in the new WAL.
	feed(st, 20, "b2")
	feed(twin, 20, "b2")

	st = reopen(t, st, cfg, dur)
	defer st.Close()
	rec := st.RecoveryInfo()
	if rec.CheckpointRows != 20 || rec.ReplayedBatches != 1 || rec.ReplayedRows != 10 {
		t.Fatalf("recovery = %+v", rec)
	}
	assertStoresEqual(t, st, twin)

	// A second checkpoint reuses the already-persisted segment files.
	res2, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res2.NewSegmentRows != 10 {
		t.Fatalf("incremental checkpoint rewrote history: %+v", res2)
	}
	st = reopen(t, st, cfg, dur)
	defer st.Close()
	assertStoresEqual(t, st, twin)
	if st.RecoveryInfo().CheckpointRows != 30 {
		t.Fatalf("recovery = %+v", st.RecoveryInfo())
	}
}

func TestCheckpointRequiresDurableStore(t *testing.T) {
	st, err := New(miniConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(); err == nil {
		t.Fatal("want error for checkpoint on in-memory store")
	}
	if ds := st.DurabilityStatus(); ds.Enabled {
		t.Fatalf("in-memory store claims durability: %+v", ds)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("in-memory close: %v", err)
	}
}

func TestOpenRejectsMismatchedLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	dur := Durability{Dir: dir}
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(miniBatch(t, 0, 5, "b0")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(miniConfig(3), dur); err == nil {
		t.Fatal("want error for shard-count mismatch")
	}
	other := miniConfig(2)
	other.Schema = other.Schema[:2]
	other.StatsAttrs = []string{}
	if _, err := Open(other, dur); err == nil {
		t.Fatal("want error for schema mismatch")
	}
}

// TestEvictionServesCorpusBeyondBudget is the headline capacity claim:
// with a resident-row budget a third of the corpus, the store keeps
// every query correct while cold segments live on disk.
func TestEvictionServesCorpusBeyondBudget(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	cfg.SegmentRows = 16
	const total = 400
	dur := Durability{Dir: dir, MaxWALBytes: -1, MaxResidentRows: total / 3}
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := New(cfg)
	for b := 0; b < total/20; b++ {
		batch := miniBatch(t, b*20, 20, fmt.Sprintf("b%d", b%4))
		if _, err := st.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
		twin.AppendTable(batch)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resident, _, evictions := st.ld.stats()
	if evictions == 0 || int(resident) > total/3 {
		t.Fatalf("resident=%d evictions=%d budget=%d", resident, evictions, total/3)
	}
	// Queries remain correct with most of the corpus cold, and reloads
	// actually happen.
	assertStoresEqual(t, st, twin)
	if _, loads, _ := st.ld.stats(); loads == 0 {
		t.Fatal("no cold segment was ever reloaded")
	}
	if int(st.ld.residentRows.Load()) > total/3+cfg.SegmentRows {
		t.Fatalf("budget overrun after queries: %d resident", st.ld.residentRows.Load())
	}

	// Reopen under the same budget: recovery itself must not balloon
	// memory, and the recovered store still answers correctly.
	st = reopen(t, st, cfg, dur)
	defer st.Close()
	if resident, _, _ := st.ld.stats(); int(resident) > total/3+cfg.SegmentRows {
		t.Fatalf("recovery kept %d rows resident, budget %d", resident, total/3)
	}
	assertStoresEqual(t, st, twin)
	ds := st.DurabilityStatus()
	if ds.ResidentRows > int64(total/3+cfg.SegmentRows) || ds.Checkpoints != 0 {
		t.Fatalf("status = %+v", ds)
	}
}

// TestPageLoadsOnlyTouchedSegments: a select-all row page over a mostly
// cold store computes its segments from the row counts alone, so it
// reloads the one evicted segment it lies in and nothing else —
// indice_store_segment_loads_total moves by exactly that one load.
func TestPageLoadsOnlyTouchedSegments(t *testing.T) {
	cfg := miniConfig(2)
	cfg.SegmentRows = 16
	const total = 400
	st, err := Open(cfg, Durability{Dir: t.TempDir(), MaxWALBytes: -1, MaxResidentRows: total / 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for b := 0; b < total/20; b++ {
		if _, err := st.AppendTable(miniBatch(t, b*20, 20, fmt.Sprintf("b%d", b%4))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	want, err := snap.FullScan(nil) // before picking the cold segment: this reloads and re-evicts
	if err != nil {
		t.Fatal(err)
	}
	// The first evicted segment, and its first row's snapshot ordinal.
	offset, base := -1, 0
	for _, segs := range snap.segs {
		for _, sg := range segs {
			if offset < 0 && !sg.resident() {
				offset = base
			}
			base += sg.numRows()
		}
	}
	if offset < 0 {
		t.Fatal("no segment is evicted; the budget did not bite")
	}
	before := mSegLoads.Value()
	res, page, _, err := snap.QueryShardsPage(nil, 0, snap.NumShards(), 2, AggSpec{}, offset+2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := mSegLoads.Value() - before; got != 1 {
		t.Fatalf("page inside one cold segment loaded %d segments, want 1", got)
	}
	wantPage, err := want.Take([]int{offset + 2, offset + 3, offset + 4, offset + 5, offset + 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := tablesEqual(page, wantPage); err != nil {
		t.Fatal(err)
	}
	if res.Matched != total {
		t.Fatalf("matched %d, want %d", res.Matched, total)
	}
}

// TestRecoverRefusesV1SegmentFiles: a checkpointed segment file whose
// header says binary version 1 (no deployed store ever wrote one) fails recovery
// with an error naming the file and the version, instead of opening a
// store that silently lacks or re-encodes it.
func TestRecoverRefusesV1SegmentFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	cfg.SegmentRows = 16
	dur := Durability{Dir: dir, MaxWALBytes: -1}
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if _, err := st.AppendTable(miniBatch(t, b*20, 20, fmt.Sprintf("b%d", b))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-build a version-1 header on one checkpointed segment file.
	segDir := filepath.Join(dir, segmentsDirName)
	names, err := os.ReadDir(segDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("checkpoint produced no segment files to downgrade")
	}
	path := filepath.Join(segDir, names[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4], data[5] = 1, 0 // the u16 version after "INDT"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg, dur)
	if err == nil {
		st2.Close()
		t.Fatal("recovery opened a store over a v1 segment file")
	}
	if msg := err.Error(); !strings.Contains(msg, names[0].Name()) || !strings.Contains(msg, "version 1") {
		t.Fatalf("error %q does not name the file and the version", msg)
	}
}

// TestConcurrentReloadUnderTinyBudget pins the eviction-versus-reload
// race for encoded segments: with a resident budget smaller than a single
// segment, every cold load overflows the budget immediately and triggers
// a sweep that wants to evict the very segments other goroutines are
// loading. The TryLock sweep must skip in-use segments rather than block
// (or deadlock against the loader), and every concurrent query must still
// return exactly the reference rows — a reload serving a half-installed
// encoding would corrupt results, not just slow them.
func TestConcurrentReloadUnderTinyBudget(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	cfg.SegmentRows = 32
	dur := Durability{Dir: dir, MaxWALBytes: -1, MaxResidentRows: cfg.SegmentRows / 2}
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	twin, _ := New(cfg)
	for b := 0; b < 8; b++ {
		batch := miniBatch(t, b*20, 20, fmt.Sprintf("b%d", b%4))
		if _, err := st.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
		twin.AppendTable(batch)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	pred := query.And{
		query.In{Attr: "batch", Values: []string{"b1", "b3"}},
		query.NumRange{Attr: "v", Min: 30, Max: 140},
	}
	wantTab, _, err := twin.Snapshot().Query(pred, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := encodedBytes(wantTab)

	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				snap := st.Snapshot()
				got, _, err := snap.Query(pred, 1+w%3)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if !bytes.Equal(encodedBytes(got), want) {
					errs <- fmt.Errorf("worker %d iteration %d: result diverged under reload pressure", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, loads, evictions := st.ld.stats(); loads == 0 || evictions == 0 {
		t.Fatalf("no reload pressure was generated: loads=%d evictions=%d", loads, evictions)
	}
}

func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(1)
	dur := Durability{Dir: dir, MaxWALBytes: 1} // any batch overflows
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AppendTable(miniBatch(t, 0, 5, "b0")); err != nil {
		t.Fatal(err)
	}
	// The checkpoint runs in the background; poll the counter.
	for i := 0; st.checkpoints.Load() == 0; i++ {
		if i > 500 {
			t.Fatal("auto checkpoint never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.DurabilityStatus().Checkpoints == 0 {
		t.Fatal("auto checkpoint not reflected in status")
	}
}
