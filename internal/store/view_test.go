package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"indice/internal/query"
	"indice/internal/table"
)

// mustMatchTable fails unless the two tables serialize identically
// (schema, validity, float bits, strings).
func mustMatchTable(t testing.TB, label string, got, want *table.Table) {
	t.Helper()
	if !tablesEqualBinary(t, got, want) {
		t.Fatalf("%s: tables differ", label)
	}
}

// diffTables is mustMatchTable for goroutines that may not call t.Fatal.
func diffTables(got, want *table.Table) error {
	if !bytes.Equal(encodedBytes(got), encodedBytes(want)) {
		return fmt.Errorf("tables differ (%d rows, want %d)", got.NumRows(), want.NumRows())
	}
	return nil
}

// TestSnapshotPinnedAcrossAppendsReallocationAndSeal is the store half of
// the aliasing contract. A snapshot taken at n rows shares the tail's
// parts (no copy), and must read bitwise the same through every later
// append — those that add a part, those that fold the tail's parts into
// one, and the one that seals it — and so must the delta it hands out.
func TestSnapshotPinnedAcrossAppendsReallocationAndSeal(t *testing.T) {
	cfg := miniConfig(1)
	cfg.SegmentRows = 400
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(miniBatch(t, 0, 100, "base")); err != nil {
		t.Fatal(err)
	}
	first := st.Snapshot()
	if _, err := st.AppendTable(miniBatch(t, 100, 30, "delta")); err != nil {
		t.Fatal(err)
	}
	pinned := st.Snapshot()
	encs, err := pinned.ShardEncoded(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(encs) != 2 || encs[1] != st.shards[0].tail[1] {
		t.Fatal("the snapshot copied the tail instead of sharing its parts")
	}
	want, err := pinned.Table()
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 130 {
		t.Fatalf("pinned snapshot materializes %d rows", want.NumRows())
	}
	delta, ok := pinned.DeltaSince(first.Epoch())
	if !ok || delta.NewRows != 30 || delta.SharedSegments != 1 || len(delta.Tables()) != 1 {
		t.Fatalf("delta: ok=%v %+v", ok, delta)
	}
	wantDelta := miniBatch(t, 100, 30, "delta")

	check := func(stage string) {
		t.Helper()
		got, err := pinned.Table()
		if err != nil {
			t.Fatal(err)
		}
		mustMatchTable(t, stage+": pinned snapshot", got, want)
		mustMatchTable(t, stage+": pinned delta", delta.Tables()[0], wantDelta)
		scan, _, err := pinned.Query(query.In{Attr: "batch", Values: []string{"delta"}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		mustMatchTable(t, stage+": indexed query", scan, wantDelta)
	}
	check("fresh")

	added, folded := false, false
	for rows := 130; rows < cfg.SegmentRows-10; rows += 10 {
		before := len(st.shards[0].tail)
		if _, err := st.AppendTable(miniBatch(t, rows, 10, "later")); err != nil {
			t.Fatal(err)
		}
		if len(st.shards[0].tail) > before {
			added = true
		} else {
			folded = true
		}
		check(fmt.Sprintf("tail at %d rows", rows+10))
	}
	if !added || !folded {
		t.Fatalf("appends adding a part: %v, folding the parts: %v — the test must see both", added, folded)
	}
	if _, err := st.AppendTable(miniBatch(t, 1000, 50, "sealing")); err != nil {
		t.Fatal(err)
	}
	if status := st.Status(); status.Shards[0].Segments != 1 || status.Shards[0].TailRows != 0 {
		t.Fatalf("the tail did not seal: %+v", status.Shards[0])
	}
	check("after the tail sealed")
	if _, err := st.AppendTable(miniBatch(t, 2000, 50, "fresh-tail")); err != nil {
		t.Fatal(err)
	}
	check("after the next tail began")
}

// TestSnapshotAllocatesIndependentOfRows: taking a snapshot of a store
// whose rows all sit in tails (its SegmentRows is above both row counts)
// costs per-shard and per-part bookkeeping only. Without indexes
// the bytes are the same at 1k and at 20k rows; with the default indexes
// the only row-dependent part is the frozen copy of each posting's last
// container (two bytes per posting), three orders of magnitude under the
// ~1.8 KB per row a decoded copy of the 132-column tail costs.
func TestSnapshotAllocatesIndependentOfRows(t *testing.T) {
	snapshotBytes := func(indexed bool, rows int) uint64 {
		cfg := DefaultConfig()
		cfg.SegmentRows = 1 << 15
		if !indexed {
			cfg.IndexAttrs = []string{}
		}
		st, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := table.NewWithSchema(cfg.Schema)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]table.Cell, len(cfg.Schema))
		for r := 0; r < rows; r++ {
			for i, f := range cfg.Schema {
				if f.Type == table.Float64 {
					cells[i] = table.Cell{Float: float64(r + i), Valid: true}
				} else {
					cells[i] = table.Cell{Str: fmt.Sprintf("v%d-%d", i, r%7), Valid: true}
				}
			}
			cells[st.keyCol] = table.Cell{Str: fmt.Sprintf("cert-%06d", r), Valid: true}
			if err := batch.AppendRow(cells); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
		if status := st.Status(); status.Rows != rows || status.Shards[0].Segments != 0 {
			t.Fatalf("store holds %d rows, shard 0 sealed %d segments: want %d unsealed", status.Rows, status.Shards[0].Segments, rows)
		}
		st.Snapshot() // the first snapshot grows the history slice
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			st.Snapshot()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := snapshotBytes(false, 1000), snapshotBytes(false, 20000)
	t.Logf("no indexes: Snapshot allocates %d B at 1k rows, %d B at 20k rows", small, large)
	// The runtime now and then allocates a few dozen bytes of its own inside
	// one of the two windows; a copied row would be 1.8 KB, 19 000 times.
	if diff := int64(large) - int64(small); diff < -256 || diff > 256 {
		t.Fatalf("Snapshot allocates %d B at 1k rows and %d B at 20k rows: it copies rows", small, large)
	}
	small, large = snapshotBytes(true, 1000), snapshotBytes(true, 20000)
	t.Logf("default indexes: Snapshot allocates %d B at 1k rows, %d B at 20k rows", small, large)
	if large > small+16*19000 {
		t.Fatalf("Snapshot allocates %d B at 1k rows and %d B at 20k rows: more than the index postings grew", small, large)
	}
}

// TestPinnedSnapshotsUnderIngest is the -race stress of the snapshot
// discipline: readers pin a snapshot, record what it holds, and keep
// re-reading it — materialized, queried, paged and as a delta — while
// writers append through folds of the tail's parts and sealing.
func TestPinnedSnapshotsUnderIngest(t *testing.T) {
	const (
		writers    = 3
		maxBatches = 120 // per writer: bounds the store if readers are slow
		batchRows  = 25
		readers    = 3
		rounds     = 6 // snapshots each reader pins and re-reads
	)
	cfg := miniConfig(2)
	cfg.SegmentRows = 600
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(miniBatch(t, 0, 50, "seed")); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, writers+readers)
	stop := make(chan struct{})
	var wgWriters, wgReaders sync.WaitGroup
	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			for b := 0; b < maxBatches; b++ {
				select {
				case <-stop:
					return
				default:
				}
				base := 1000 + (w*maxBatches+b)*batchRows
				if _, err := st.AppendTable(miniBatch(t, base, batchRows, fmt.Sprintf("w%d", w))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	pred := query.And{query.In{Attr: "batch", Values: []string{"w0", "w1", "seed"}}, query.NumRange{Attr: "v", Min: 0, Max: 1e9}}
	spec := AggSpec{By: "batch", Attrs: []string{"v"}}
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			prev := st.Snapshot()
			for round := 0; round < rounds; round++ {
				snap := st.Snapshot()
				want, err := snap.Table()
				if err != nil {
					errs <- err
					return
				}
				wantMatch, _, err := snap.Query(pred, 1)
				if err != nil {
					errs <- err
					return
				}
				delta, ok := snap.DeltaSince(prev.Epoch())
				if !ok {
					errs <- fmt.Errorf("no delta from epoch %d to %d", prev.Epoch(), snap.Epoch())
					return
				}
				var wantDelta []*table.Table
				for _, tab := range delta.Tables() {
					wantDelta = append(wantDelta, tab.Clone())
				}
				for pass := 0; pass < 4; pass++ {
					runtime.Gosched()
					got, err := snap.Table()
					if err == nil {
						err = diffTables(got, want)
					}
					if err != nil {
						errs <- fmt.Errorf("epoch %d pass %d: materialized: %v", snap.Epoch(), pass, err)
						return
					}
					res, page, _, err := snap.QueryShardsPage(pred, 0, snap.NumShards(), 2, spec, 0, wantMatch.NumRows()+1)
					if err == nil && res.Matched != wantMatch.NumRows() {
						err = fmt.Errorf("aggregate matched %d rows, want %d", res.Matched, wantMatch.NumRows())
					}
					if err == nil {
						err = diffTables(page, wantMatch)
					}
					if err != nil {
						errs <- fmt.Errorf("epoch %d pass %d: page: %v", snap.Epoch(), pass, err)
						return
					}
					for i, tab := range delta.Tables() {
						if err := diffTables(tab, wantDelta[i]); err != nil {
							errs <- fmt.Errorf("epoch %d pass %d: delta table %d: %v", snap.Epoch(), pass, i, err)
							return
						}
					}
				}
				prev = snap
			}
		}()
	}
	wgReaders.Wait()
	close(stop)
	wgWriters.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rows := st.Rows(); (rows-50)%batchRows != 0 {
		t.Fatalf("store holds %d rows: a batch landed in part", rows)
	}
}

// TestResidentBytesFollowTheRows pins the byte account behind
// /api/store and the indice_store_*_bytes gauges: it equals what a scan of
// the tails' parts and the resident encodings would measure, through
// appends, sealing and a reset.
func TestResidentBytesFollowTheRows(t *testing.T) {
	cfg := miniConfig(2)
	cfg.SegmentRows = 64
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	both := false
	check := func(stage string) {
		t.Helper()
		var tail, sealed int64
		for _, sh := range st.shards {
			for _, p := range sh.tail {
				tail += int64(p.SizeBytes())
			}
			for _, sg := range sh.sealed {
				sealed += int64(sg.enc.SizeBytes())
			}
		}
		status := st.Status()
		if status.TailBytes != tail || status.SealedResidentBytes != sealed {
			t.Fatalf("%s: status reports tail %d B, sealed %d B; the rows measure %d B and %d B",
				stage, status.TailBytes, status.SealedResidentBytes, tail, sealed)
		}
		both = both || (tail > 0 && sealed > 0)
	}
	check("empty")
	for i := 0; i < 10; i++ {
		if _, err := st.AppendTable(miniBatch(t, i*30, 30, fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after batch %d", i))
	}
	if !both {
		t.Fatal("no stage held sealed and unsealed rows at once")
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	check("after reset")
	if status := st.Status(); status.TailBytes != 0 || status.SealedResidentBytes != 0 {
		t.Fatalf("reset left %d tail and %d sealed bytes", status.TailBytes, status.SealedResidentBytes)
	}
}
