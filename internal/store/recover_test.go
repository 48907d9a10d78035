package store

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// appendBytes appends raw bytes to a file in the data dir.
func appendBytes(t testing.TB, path string, b []byte) {
	t.Helper()
	f, err := OSFS{}.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// tornFrame builds the first half of a valid WAL frame — the shape a
// crash mid-append leaves on disk.
func tornFrame(t testing.TB, seq uint64) []byte {
	t.Helper()
	frame := crcFrame(t, walPayload(t, seq, []AdoptPart{encPart(0, miniBatch(t, 900, 4, "torn"))}))
	return frame[:len(frame)/2]
}

// TestRecoverRefusesOldWALRecords: a log whose records pass their CRC but
// do not decode — kind 1, the layout before WAL parts were encoded
// tables, or a kind-2 record carrying a version-1 part — holds acked
// batches, not a torn tail. Open must fail naming the file, the seq and
// the kind, and leave every byte of the log in place.
func TestRecoverRefusesOldWALRecords(t *testing.T) {
	good := crcFrame(t, walPayload(t, 1, []AdoptPart{encPart(0, miniBatch(t, 0, 3, "w"))}))
	v1Part := walPayload(t, 2, []AdoptPart{encPart(0, miniBatch(t, 10, 3, "w"))})
	v1Part[9+8+4] = 1 // the part's binary version: record header, frame header, "INDT"
	cases := []struct {
		name, want string
		log        []byte
	}{
		{"kind 1 log", "seq 1 has kind 1", append(crcFrame(t, oldWALRecord(1)), crcFrame(t, oldWALRecord(2))...)},
		{"v1 part behind an acked record", "seq 2 (kind 2)", append(append([]byte(nil), good...), crcFrame(t, v1Part)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := join(dir, walFileName(1))
			appendBytes(t, path, tc.log)
			st, err := Open(miniConfig(1), Durability{Dir: dir, MaxWALBytes: -1})
			if err == nil {
				st.Close()
				t.Fatal("recovery opened a store over CRC-valid records it cannot decode")
			}
			if msg := err.Error(); !strings.Contains(msg, walFileName(1)) || !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not name the file and %q", msg, tc.want)
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(after, tc.log) {
				t.Fatalf("the refused log changed: %d bytes, was %d", len(after), len(tc.log))
			}
		})
	}
}

// TestTornTailDoesNotMaskLaterAckedBatches is the regression for the
// two-restart data-loss bug: a torn WAL tail is truncated at recovery,
// so a batch acked AFTER that recovery is still replayed by the NEXT
// recovery instead of being stranded behind the old damage.
func TestTornTailDoesNotMaskLaterAckedBatches(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	dur := Durability{Dir: dir, MaxWALBytes: -1}
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := New(cfg)
	feed := func(s *Store, base int, label string) {
		t.Helper()
		if _, err := s.AppendTable(miniBatch(t, base, 6, label)); err != nil {
			t.Fatal(err)
		}
	}
	feed(st, 0, "b0")
	feed(twin, 0, "b0")
	feed(st, 10, "b1")
	feed(twin, 10, "b1")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append of an unacked third batch: half a frame
	// at the tail of the live log.
	appendBytes(t, join(dir, walFileName(1)), tornFrame(t, 3))

	// First restart: the torn tail is discarded and trimmed.
	st, err = Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	if !st.RecoveryInfo().TornTail {
		t.Fatalf("recovery did not report the torn tail: %+v", st.RecoveryInfo())
	}
	assertStoresEqual(t, st, twin)

	// An acked ingest after the first recovery...
	feed(st, 20, "b2")
	feed(twin, 20, "b2")

	// ...must survive the second restart (pre-fix: replay re-stopped at
	// the old torn frame and never reached the newer log file).
	st = reopen(t, st, cfg, dur)
	defer st.Close()
	if st.RecoveryInfo().TornTail {
		t.Fatalf("second recovery still sees a torn tail: %+v", st.RecoveryInfo())
	}
	if st.RecoveryInfo().ReplayedBatches != 3 {
		t.Fatalf("second recovery replayed %d batches, want 3", st.RecoveryInfo().ReplayedBatches)
	}
	assertStoresEqual(t, st, twin)
}

// TestFullyTornFirstWALFileThenIngest covers the file-name-reuse corner:
// when the very first append tears, recovery applies nothing and the
// writer recreates the SAME wal file name for the next record. Without
// truncation the new acked record would land behind the garbage and be
// unreachable to every later replay.
func TestFullyTornFirstWALFileThenIngest(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	dur := Durability{Dir: dir, MaxWALBytes: -1}
	if err := (OSFS{}).MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	appendBytes(t, join(dir, walFileName(1)), tornFrame(t, 1))

	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows() != 0 || !st.RecoveryInfo().TornTail {
		t.Fatalf("rows=%d recovery=%+v", st.Rows(), st.RecoveryInfo())
	}
	twin, _ := New(cfg)
	batch := miniBatch(t, 0, 6, "b0")
	if _, err := st.AppendTable(batch); err != nil {
		t.Fatal(err)
	}
	twin.AppendTable(batch)

	st = reopen(t, st, cfg, dur)
	defer st.Close()
	if st.RecoveryInfo().ReplayedBatches != 1 {
		t.Fatalf("recovery = %+v, want the post-damage acked batch", st.RecoveryInfo())
	}
	assertStoresEqual(t, st, twin)
}

// TestTornIntermediateFileReplaysSuccessor pins the replay walk itself:
// a torn tail in one log file must not stop replay from continuing into
// a later file whose first seq is contiguous (the reassigned seq of the
// torn, unacked record).
func TestTornIntermediateFileReplaysSuccessor(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(1)
	if err := (OSFS{}).MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	frame := func(seq uint64, base int) []byte {
		return crcFrame(t, walPayload(t, seq, []AdoptPart{encPart(0, miniBatch(t, base, 3, "w"))}))
	}
	// wal-1: seqs 1,2 then a torn frame; wal-3: seq 3 (acked after a
	// recovery that discarded the torn record and reassigned its seq).
	appendBytes(t, join(dir, walFileName(1)), append(frame(1, 0), append(frame(2, 10), tornFrame(t, 3)...)...))
	appendBytes(t, join(dir, walFileName(3)), frame(3, 20))

	st, err := Open(cfg, Durability{Dir: dir, MaxWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.RecoveryInfo()
	if rec.ReplayedBatches != 3 || rec.ReplayedRows != 9 || !rec.TornTail {
		t.Fatalf("recovery = %+v, want 3 batches / 9 rows across the torn boundary", rec)
	}
	// A gapped residue file must still be refused.
	dir2 := t.TempDir()
	appendBytes(t, join(dir2, walFileName(1)), append(frame(1, 0), tornFrame(t, 2)...))
	appendBytes(t, join(dir2, walFileName(5)), frame(5, 20))
	st2, err := Open(cfg, Durability{Dir: dir2, MaxWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.RecoveryInfo().ReplayedBatches != 1 {
		t.Fatalf("gapped residue replayed: %+v", st2.RecoveryInfo())
	}
}

// syncCountFS counts fsync calls on WAL files, for observing the
// FsyncInterval background flusher.
type syncCountFS struct {
	OSFS
	syncs atomic.Int64
}

func (f *syncCountFS) OpenAppend(name string) (File, error) {
	inner, err := f.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &syncCountFile{File: inner, n: &f.syncs}, nil
}

type syncCountFile struct {
	File
	n *atomic.Int64
}

func (f *syncCountFile) Sync() error {
	f.n.Add(1)
	return f.File.Sync()
}

// TestFsyncIntervalBackgroundFlush pins the FsyncInterval contract: a
// burst of appends followed by quiet is synced by the background flusher
// within the interval, not left to OS writeback until the next append.
func TestFsyncIntervalBackgroundFlush(t *testing.T) {
	dir := t.TempDir()
	fsx := &syncCountFS{}
	st, err := Open(miniConfig(1), Durability{
		Dir: dir, FS: fsx, Fsync: FsyncInterval, SyncInterval: 10 * time.Millisecond, MaxWALBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for b := 0; b < 3; b++ {
		if _, err := st.AppendTable(miniBatch(t, b*10, 4, "b")); err != nil {
			t.Fatal(err)
		}
	}
	// No further appends: only the flusher can sync now.
	after := fsx.syncs.Load()
	deadline := time.Now().Add(5 * time.Second)
	for fsx.syncs.Load() == after {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced the quiet WAL")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepUnderConcurrentLoadDoesNotDeadlock is the regression for the
// inline-sweep self-deadlock: with a residency budget smaller than a
// single segment, every cold load immediately triggers a sweep that
// wants the loaders' own segment mutexes. Concurrent readers must make
// progress (pre-fix this could block forever) and stay correct.
func TestSweepUnderConcurrentLoadDoesNotDeadlock(t *testing.T) {
	dir := t.TempDir()
	cfg := miniConfig(2)
	cfg.SegmentRows = 16
	dur := Durability{Dir: dir, MaxWALBytes: -1, MaxResidentRows: 8} // < one segment
	st, err := Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	twin, _ := New(cfg)
	for b := 0; b < 4; b++ {
		batch := miniBatch(t, b*20, 20, "b0")
		if _, err := st.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
		twin.AppendTable(batch)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantRows := twin.Rows()

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					tab, err := st.Snapshot().Table()
					if err != nil {
						t.Errorf("snapshot table: %v", err)
						return
					}
					if tab.NumRows() != wantRows {
						t.Errorf("rows = %d, want %d", tab.NumRows(), wantRows)
						return
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent loads deadlocked against the eviction sweep")
	}
	assertStoresEqual(t, st, twin)
}
