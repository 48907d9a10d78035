package store_test

// Crash-recovery property suite. The workload below drives a durable
// store through ingests and checkpoints on a fault-injection filesystem,
// killing the process-equivalent at EVERY filesystem operation in turn
// (including torn final writes), then recovers the surviving directory
// and asserts the recovered store is observably identical to an
// in-memory twin fed exactly the acked batches: same rows, same shard
// layout, same materialized snapshot bytes, same planned-query results,
// same indexes and statistics. The durability contract under test: an
// acked batch survives any crash; an unacked batch never half-appears.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"indice/internal/query"
	"indice/internal/store"
	"indice/internal/store/faultfs"
	"indice/internal/table"
)

// sweepConfig is the small keyed store the sweep runs on. Keyed rows make
// shard routing deterministic, so the twin and the durable store route
// identically.
func sweepConfig() store.Config {
	return store.Config{
		Shards:      2,
		SegmentRows: 8,
		Schema: []table.Field{
			{Name: "id", Type: table.String},
			{Name: "batch", Type: table.String},
			{Name: "v", Type: table.Float64},
		},
		KeyAttr:    "id",
		IndexAttrs: []string{"batch"},
	}
}

// sweepBatch builds batch b of the workload (6 keyed rows).
func sweepBatch(t testing.TB, b int) *table.Table {
	t.Helper()
	tab, err := table.NewWithSchema(sweepConfig().Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := tab.AppendRow([]table.Cell{
			{Str: fmt.Sprintf("id-%03d-%d", b, i), Valid: true},
			{Str: fmt.Sprintf("b%d", b%3), Valid: true},
			{Float: float64(b*10 + i), Valid: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// runWorkload opens a durable store over fsx and pushes it through 12
// ingests with checkpoints after the 4th and 8th. It returns how many
// batches were acked before the first error (the crash), and the error.
func runWorkload(t testing.TB, dir string, fsx store.FS) (acked int, err error) {
	t.Helper()
	st, err := store.Open(sweepConfig(), store.Durability{
		Dir: dir, FS: fsx, Fsync: store.FsyncAlways, MaxWALBytes: -1,
	})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for b := 0; b < 12; b++ {
		if _, err := st.AppendTable(sweepBatch(t, b)); err != nil {
			return acked, err
		}
		acked++
		if b == 3 || b == 7 {
			if _, err := st.Checkpoint(); err != nil {
				return acked, err
			}
		}
	}
	return acked, nil
}

// twin builds the in-memory reference holding the first acked batches.
func twin(t testing.TB, acked int) *store.Store {
	t.Helper()
	st, err := store.New(sweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < acked; b++ {
		if _, err := st.AppendTable(sweepBatch(t, b)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// assertObservablyEqual compares two stores through their public query
// surface, bitwise where the surface is a table.
func assertObservablyEqual(t testing.TB, label string, got, want *store.Store) {
	t.Helper()
	if g, w := got.Rows(), want.Rows(); g != w {
		t.Fatalf("%s: rows = %d, want %d", label, g, w)
	}
	gs, ws := got.Status(), want.Status()
	for i := range ws.Shards {
		if gs.Shards[i].Rows != ws.Shards[i].Rows {
			t.Fatalf("%s: shard %d rows = %d, want %d", label, i, gs.Shards[i].Rows, ws.Shards[i].Rows)
		}
	}
	gsn, wsn := got.Snapshot(), want.Snapshot()
	gt, err := gsn.Table()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wt, err := wsn.Table()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !binEqual(t, gt, wt) {
		t.Fatalf("%s: materialized snapshots differ", label)
	}
	pred := query.And{
		query.In{Attr: "batch", Values: []string{"b0", "b2"}},
		query.NumRange{Attr: "v", Min: 15, Max: math.MaxFloat64},
	}
	gq, _, err := gsn.Query(pred, 2)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wq, _, err := wsn.Query(pred, 2)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !binEqual(t, gq, wq) {
		t.Fatalf("%s: query results differ", label)
	}
	gc, _ := got.CountBy("batch")
	wc, _ := want.CountBy("batch")
	if fmt.Sprint(gc) != fmt.Sprint(wc) {
		t.Fatalf("%s: CountBy = %v, want %v", label, gc, wc)
	}
	if err := store.SameTotals(got, want, "v"); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func binEqual(t testing.TB, a, b *table.Table) bool {
	t.Helper()
	var ab, bb bytes.Buffer
	if err := table.Encode(a).WriteBinary(&ab); err != nil {
		t.Fatal(err)
	}
	if err := table.Encode(b).WriteBinary(&bb); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

// TestCrashRecoverySweep is the kill-at-every-failpoint sweep: one run
// per filesystem operation of the workload, each crashing at that
// operation (with a varying torn-write fraction) and recovering.
func TestCrashRecoverySweep(t *testing.T) {
	// Calibration run with no crash armed: learn the total op count and
	// verify the uninstrumented workload recovers to the full 12 batches.
	calDir := t.TempDir()
	calFS := faultfs.New(store.OSFS{})
	acked, err := runWorkload(t, calDir, calFS)
	if err != nil || acked != 12 {
		t.Fatalf("calibration run: acked=%d err=%v", acked, err)
	}
	total := calFS.Ops()
	if total < 50 {
		t.Fatalf("implausibly few filesystem ops: %d", total)
	}
	rec, err := store.Open(sweepConfig(), store.Durability{Dir: calDir})
	if err != nil {
		t.Fatal(err)
	}
	assertObservablyEqual(t, "calibration", rec, twin(t, 12))
	rec.Close()

	// The sweep. Every op is a crash point; under -race the per-point
	// cost multiplies, so stride the tail while always covering the first
	// 120 ops (directory setup, first appends, first checkpoint) densely.
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for c := int64(1); c <= total; c += stride {
		if c > 120 && stride == 1 {
			stride = 3
		}
		c := c
		t.Run(fmt.Sprintf("crash-at-%d", c), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(store.OSFS{})
			// Vary the torn fraction of the crashing write by crash point:
			// nothing, half, all-but-one byte.
			ffs.Torn = func(n int) int {
				switch c % 3 {
				case 0:
					return 0
				case 1:
					return n / 2
				default:
					return n - 1
				}
			}
			ffs.CrashAt(c)
			acked, _ := runWorkload(t, dir, ffs)
			recovered, oerr := store.Open(sweepConfig(), store.Durability{Dir: dir})
			if oerr != nil {
				t.Fatalf("recovery after crash at op %d failed: %v", c, oerr)
			}
			defer recovered.Close()
			// The contract: every acked batch survives; beyond that, at
			// most the single batch in flight at the crash (its record hit
			// the log completely, the crash ate only the ack) — never less,
			// never more, never a partial batch.
			batches := recovered.Rows() / 6
			if batches < acked || batches > acked+1 || batches > 12 {
				t.Fatalf("crash at op %d: recovered %d batches, acked %d", c, batches, acked)
			}
			assertObservablyEqual(t, fmt.Sprintf("crash at op %d (acked %d)", c, acked),
				recovered, twin(t, batches))
			// Second cycle: an ingest acked AFTER the recovery must survive
			// the next restart too (regression: a torn tail the crash left
			// behind used to stop the later replay short of the new batch).
			extra := sweepBatch(t, 12)
			if _, err := recovered.AppendTable(extra); err != nil {
				t.Fatalf("crash at op %d: post-recovery ingest failed: %v", c, err)
			}
			if err := recovered.Close(); err != nil {
				t.Fatalf("crash at op %d: close: %v", c, err)
			}
			again, err := store.Open(sweepConfig(), store.Durability{Dir: dir})
			if err != nil {
				t.Fatalf("second recovery after crash at op %d failed: %v", c, err)
			}
			defer again.Close()
			want := twin(t, batches)
			if _, err := want.AppendTable(sweepBatch(t, 12)); err != nil {
				t.Fatal(err)
			}
			assertObservablyEqual(t, fmt.Sprintf("second restart after crash at op %d", c), again, want)
		})
	}
}

// tearWALTail appends half a plausible frame (a header claiming more
// payload than follows) to the newest wal file, simulating a crash mid
// append of an unacked batch.
func tearWALTail(t testing.TB, dir string) {
	t.Helper()
	names, err := store.OSFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") && name > newest {
			newest = name
		}
	}
	if newest == "" {
		t.Fatal("no wal file to tear")
	}
	frag := make([]byte, 18)
	binary.LittleEndian.PutUint32(frag[0:4], 100) // claims 100 payload bytes
	binary.LittleEndian.PutUint32(frag[4:8], 0xdeadbeef)
	f, err := store.OSFS{}.OpenAppend(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frag); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringRecovery arms the crash while a recovery itself is
// running: a store that dies mid-boot must leave the directory
// recoverable by the next boot. The boot under test also starts from a
// torn WAL tail, so the sweep covers a crash at (or around) the
// torn-tail truncation itself.
func TestCrashDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	if acked, err := runWorkload(t, dir, store.OSFS{}); err != nil || acked != 12 {
		t.Fatalf("setup: acked=%d err=%v", acked, err)
	}
	// Learn how many ops a clean recovery takes (this one truncates the
	// torn tail; each iteration below re-tears it so every run is
	// identical to the calibration).
	tearWALTail(t, dir)
	cal := faultfs.New(store.OSFS{})
	st, err := store.Open(sweepConfig(), store.Durability{Dir: dir, FS: cal})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	total := cal.Ops()
	for c := int64(1); c <= total; c++ {
		tearWALTail(t, dir)
		ffs := faultfs.New(store.OSFS{})
		ffs.CrashAt(c)
		if st, err := store.Open(sweepConfig(), store.Durability{Dir: dir, FS: ffs}); err == nil {
			st.Close()
		}
		recovered, err := store.Open(sweepConfig(), store.Durability{Dir: dir})
		if err != nil {
			t.Fatalf("boot after crash-at-%d during recovery failed: %v", c, err)
		}
		assertObservablyEqual(t, fmt.Sprintf("recovery crash at %d", c), recovered, twin(t, 12))
		recovered.Close()
	}
}
