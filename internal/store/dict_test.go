package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"indice/internal/table"
)

// TestPooledBatchNeverRewritesStoredRows: AppendRecords projects every
// JSON batch into one pooled scratch table, and what the shards keep of a
// batch shares its dictionaries — the parts Partition takes, and an empty
// tail that adopts the batch's outright. Refilling the scratch must
// therefore start new dictionaries, never rewrite the old arrays: batches
// with disjoint level sets go in one after another, and after each one
// every row stored so far still reads what it was ingested as — in memory,
// and again after the WAL is replayed into a fresh process.
func TestPooledBatchNeverRewritesStoredRows(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := miniConfig(shards)
			dur := Durability{Dir: t.TempDir(), MaxWALBytes: -1}
			st, err := Open(cfg, dur)
			if err != nil {
				t.Fatal(err)
			}
			type row struct {
				batch string
				v     float64
			}
			want := map[string]row{}
			check := func(stage string, st *Store) {
				t.Helper()
				tab, err := st.Snapshot().Table()
				if err != nil {
					t.Fatal(err)
				}
				ids, _ := tab.Strings("id")
				batches, _ := tab.Strings("batch")
				vs, _ := tab.Floats("v")
				if len(ids) != len(want) {
					t.Fatalf("%s: store holds %d rows, %d ingested", stage, len(ids), len(want))
				}
				for i, id := range ids {
					if w, ok := want[id]; !ok || w.batch != batches[i] || w.v != vs[i] {
						t.Fatalf("%s: row %q reads batch %q, v %v; ingested as %+v", stage, id, batches[i], vs[i], w)
					}
				}
			}
			// Sizes shrink and grow so a refill both fits the old arrays and
			// outgrows them. (Under -race sync.Pool drops a quarter of what
			// it is handed, hence many rounds rather than two.)
			for round, n := range []int{40, 12, 64, 5, 30, 90, 8, 33, 70, 21} {
				recs := make([]Record, n)
				for i := range recs {
					id := fmt.Sprintf("r%02d-%03d", round, i)
					level := fmt.Sprintf("level-%d-of-round-%d", i%(2+round%3), round)
					recs[i] = Record{"id": id, "batch": level, "v": float64(round*1000 + i)}
					want[id] = row{level, float64(round*1000 + i)}
				}
				res, err := st.AppendRecords(recs)
				if err != nil || res.Accepted != n {
					t.Fatalf("round %d: %+v, %v", round, res, err)
				}
				check(fmt.Sprintf("after round %d", round), st)
			}
			st = reopen(t, st, cfg, dur)
			defer st.Close()
			check("after WAL replay", st)
		})
	}
}

// mixedBatch builds n rows over miniConfig's schema with everything a
// segment encoder has to get right: unique ids, a few levels — the empty
// string among them in every other run of 200 rows, so that missing cells
// meet dictionaries with and without "" — missing cells in every column,
// and, when payloads is set, values under invalid cells, which only a
// raw-string layout carries.
func mixedBatch(t *testing.T, base, n int, payloads bool) *table.Table {
	t.Helper()
	ids, levels, vs := make([]string, n), make([]string, n), make([]float64, n)
	idValid, levelValid, vValid := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range ids {
		r := base + i
		ids[i], idValid[i] = fmt.Sprintf("id-%06d", r), true
		levels[i], levelValid[i] = []string{"north", "", "south", "east"}[r%4], r%7 != 0
		if levels[i] == "" && (base/200)%2 == 1 {
			levels[i] = "west"
		}
		if !levelValid[i] && !payloads {
			levels[i] = ""
		}
		vs[i], vValid[i] = float64(r%50), r%9 != 0
	}
	tab := table.New()
	if err := tab.AddStringsValid("id", ids, idValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddStringsValid("batch", levels, levelValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloatsValid("v", vs, vValid); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestTableAppendsSealedSegmentsFromTheirEncoding: Snapshot.Table decodes
// sealed segments straight onto the materialization. Over a store that
// holds every kind of segment at once — checkpointed and evicted, reloaded,
// sealed but never persisted, and raw tails — the result is bitwise what
// decoding each segment into a table of its own and appending that gives.
func TestTableAppendsSealedSegmentsFromTheirEncoding(t *testing.T) {
	cfg := miniConfig(2)
	cfg.SegmentRows = 32
	st, err := Open(cfg, Durability{Dir: t.TempDir(), MaxWALBytes: -1, MaxResidentRows: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows := 0
	type cell struct {
		level string
		valid bool
	}
	source := map[string]cell{} // what each certificate was ingested with
	ingest := func(n int, payloads bool) {
		t.Helper()
		batch := mixedBatch(t, rows, n, payloads)
		ids, _ := batch.Strings("id")
		levels, _ := batch.Strings("batch")
		levelValid, _ := batch.ValidMask("batch")
		for i, id := range ids {
			source[id] = cell{levels[i], levelValid[i]}
		}
		if _, err := st.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
		rows += n
	}
	for i := 0; i < 8; i++ {
		ingest(50, i == 3)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ingest(45, i == 1)
	}
	ingest(7, false)
	snap := st.Snapshot()
	var evicted, unpersisted, tails int
	for _, segs := range snap.segs {
		for _, sg := range segs {
			switch {
			case sg.tab != nil:
				tails++
			case sg.path == "":
				unpersisted++
			case !sg.resident():
				evicted++
			}
		}
	}
	if evicted == 0 || unpersisted == 0 || tails == 0 {
		t.Fatalf("%d evicted, %d sealed-in-memory and %d tail segments: the test needs all three", evicted, unpersisted, tails)
	}

	want, err := table.NewWithSchema(cfg.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, segs := range snap.segs {
		for _, sg := range segs {
			tab, err := sg.open(snap.ld) // Decode, for a sealed segment
			if err != nil {
				t.Fatal(err)
			}
			if err := want.AppendTable(tab); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, loadsBefore, _ := st.ld.stats()
	got, err := snap.Table()
	if err != nil {
		t.Fatal(err)
	}
	if _, loads, _ := st.ld.stats(); loads == loadsBefore {
		t.Fatal("no evicted segment was reloaded by the materialization")
	}
	if got.NumRows() != rows {
		t.Fatalf("materialized %d rows of %d", got.NumRows(), rows)
	}
	mustMatchTable(t, "materialization", got, want)
	// Both roads leave the encoding through the same code, so each cell is
	// also held against the batches as they were built.
	ids, _ := got.Strings("id")
	levels, _ := got.Strings("batch")
	levelValid, _ := got.ValidMask("batch")
	for i, id := range ids {
		if w, ok := source[id]; !ok || w != (cell{levels[i], levelValid[i]}) {
			t.Fatalf("row %q materializes level %q (valid %v), ingested as %+v", id, levels[i], levelValid[i], w)
		}
	}
	// Bitwise includes what a serialization would not show twice: the
	// two tables encode to the same segment.
	if ge, we := table.Encode(got).SizeBytes(), table.Encode(want).SizeBytes(); ge != we {
		t.Fatalf("the materialization encodes to %d B, the decode road's to %d B", ge, we)
	}
}

// TestSnapshotReaderRacesAppenderOfNewValues is the dictionary half of the
// view discipline, for -race: a reader keeps walking the string cells of
// pinned snapshots while the appender lands rows whose values no
// dictionary has seen — first within the tail's capacity, then across
// reallocations of cells and dictionaries alike.
func TestSnapshotReaderRacesAppenderOfNewValues(t *testing.T) {
	cfg := miniConfig(1)
	cfg.SegmentRows = 1 << 20
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newValues := func(base, n int) *table.Table {
		tab, err := table.NewWithSchema(cfg.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			r := base + i
			if err := tab.AppendRow([]table.Cell{
				{Str: fmt.Sprintf("id-%06d", r), Valid: true},
				{Str: fmt.Sprintf("level-%06d", r), Valid: true},
				{Float: float64(r), Valid: true},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	if _, err := st.AppendTable(newValues(0, 100)); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := st.Snapshot()
			view := tailView(snap, 0)
			mustBe := view.NumRows()
			for pass := 0; pass < 3; pass++ {
				codes, dict, err := view.StringCodes("batch")
				if err != nil || len(codes) != mustBe {
					errs <- fmt.Errorf("view of %d rows reads %d codes (%v)", mustBe, len(codes), err)
					return
				}
				for r, k := range codes {
					if want := fmt.Sprintf("level-%06d", r); dict[k] != want {
						errs <- fmt.Errorf("epoch %d row %d reads %q, want %q", snap.Epoch(), r, dict[k], want)
						return
					}
				}
			}
		}
	}()
	inPlace, reallocated := false, false
	for rows := 100; rows < 6000; rows += 20 {
		_, before, _ := st.shards[0].tail.StringCodes("batch")
		if _, err := st.AppendTable(newValues(rows, 20)); err != nil {
			t.Fatal(err)
		}
		_, after, _ := st.shards[0].tail.StringCodes("batch")
		if &after[0] == &before[0] {
			inPlace = true
		} else {
			reallocated = true
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if !inPlace || !reallocated {
		t.Fatalf("dictionary grew in place: %v, reallocating: %v — the test must see both", inPlace, reallocated)
	}
}
