package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"indice/internal/epc"
	"indice/internal/synth"
	"indice/internal/table"
)

// miniConfig is a small three-column store used by most unit tests: a
// shard-key id, an indexed batch label and one tracked numeric.
func miniConfig(shards int) Config {
	return Config{
		Shards: shards,
		Schema: []table.Field{
			{Name: "id", Type: table.String},
			{Name: "batch", Type: table.String},
			{Name: "v", Type: table.Float64},
		},
		KeyAttr:    "id",
		IndexAttrs: []string{"batch"},
		StatsAttrs: []string{"v"},
	}
}

// miniBatch builds n rows labelled batch, with ids offset by base and
// v = base+i.
func miniBatch(t testing.TB, base, n int, batch string) *table.Table {
	t.Helper()
	tab, err := table.NewWithSchema(miniConfig(1).Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tab.AppendRow([]table.Cell{
			{Str: fmt.Sprintf("id-%06d", base+i), Valid: true},
			{Str: batch, Valid: true},
			{Float: float64(base + i), Valid: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestNewDefaults(t *testing.T) {
	st, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 4 {
		t.Fatalf("shards = %d", st.NumShards())
	}
	if len(st.Schema()) != 132 {
		t.Fatalf("schema columns = %d", len(st.Schema()))
	}
	status := st.Status()
	if status.Rows != 0 || status.Epoch != 0 || len(status.Shards) != 4 {
		t.Fatalf("status = %+v", status)
	}
	// Default index attrs resolve to the zone/class columns.
	if len(status.IndexAttrs) != 3 {
		t.Fatalf("index attrs = %v", status.IndexAttrs)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := miniConfig(2)
	cfg.IndexAttrs = []string{"ghost"}
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for unknown index attr")
	}
	cfg = miniConfig(2)
	cfg.IndexAttrs = []string{"v"} // numeric cannot be indexed
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for numeric index attr")
	}
	cfg = miniConfig(2)
	cfg.StatsAttrs = []string{"batch"} // categorical cannot carry stats
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for categorical stats attr")
	}
	cfg = miniConfig(2)
	cfg.Schema = append(cfg.Schema, table.Field{Name: "id", Type: table.String})
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for duplicate schema column")
	}
}

func TestAppendAndSnapshot(t *testing.T) {
	st, err := New(miniConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.AppendTable(miniBatch(t, 0, 100, "b0")); err != nil || res.Accepted != 100 {
		t.Fatalf("append = %+v, %v", res, err)
	}
	if st.Rows() != 100 {
		t.Fatalf("rows = %d", st.Rows())
	}
	snap := st.Snapshot()
	if snap.NumRows() != 100 || snap.Epoch() != 1 {
		t.Fatalf("snapshot rows=%d epoch=%d", snap.NumRows(), snap.Epoch())
	}

	// Every row landed in exactly one shard, routed deterministically.
	total := 0
	for i := 0; i < snap.NumShards(); i++ {
		segs, err := snap.ShardSegments(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			total += seg.NumRows()
		}
	}
	if total != 100 {
		t.Fatalf("segment rows sum to %d", total)
	}

	// The index sees all 100 rows under the batch label.
	counts, ok := snap.CountBy("batch")
	if !ok || counts["b0"] != 100 {
		t.Fatalf("CountBy = %v, %v", counts, ok)
	}
	if _, ok := snap.CountBy("ghost"); ok {
		t.Fatal("unindexed attr must report !ok")
	}

	// Incremental stats match the data: v is 0..99.
	r, ok := snap.Stats("v")
	if !ok || r.Count != 100 || r.Min != 0 || r.Max != 99 || math.Abs(r.Mean-49.5) > 1e-9 {
		t.Fatalf("stats = %+v, %v", r, ok)
	}

	// The materialized table carries every row once.
	tab, err := snap.Table()
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 100 {
		t.Fatalf("materialized rows = %d", tab.NumRows())
	}
	vals, _ := tab.Floats("v")
	seen := make(map[int]bool, 100)
	for _, v := range vals {
		seen[int(v)] = true
	}
	if len(seen) != 100 {
		t.Fatalf("materialized table has %d distinct rows", len(seen))
	}

	// The snapshot is frozen: later appends do not leak into it.
	if _, err := st.AppendTable(miniBatch(t, 100, 50, "b1")); err != nil {
		t.Fatal(err)
	}
	if snap.NumRows() != 100 {
		t.Fatal("snapshot grew after later append")
	}
	if c, _ := snap.CountBy("batch"); c["b1"] != 0 {
		t.Fatalf("snapshot index leaked later batch: %v", c)
	}
	snap2 := st.Snapshot()
	if snap2.NumRows() != 150 || snap2.Epoch() != 2 {
		t.Fatalf("snapshot2 rows=%d epoch=%d", snap2.NumRows(), snap2.Epoch())
	}
}

func TestSingleRecordAppend(t *testing.T) {
	st, err := New(miniConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Append(Record{"id": "a", "batch": "b", "v": 7.5})
	if err != nil || res.Accepted != 1 {
		t.Fatalf("append = %+v, %v", res, err)
	}
	// Numeric strings coerce; missing attrs become invalid cells.
	res, err = st.Append(Record{"id": "b", "v": "12.25"})
	if err != nil || res.Accepted != 1 {
		t.Fatalf("append = %+v, %v", res, err)
	}
	// Unknown attribute rejects the record without failing the call.
	res, err = st.Append(Record{"id": "c", "nope": 1.0})
	if err != nil || res.Accepted != 0 || res.Rejected != 1 || len(res.Issues) == 0 {
		t.Fatalf("append = %+v, %v", res, err)
	}
	// Uncoercible value rejects the record.
	res, err = st.Append(Record{"id": "d", "v": []any{1}})
	if err != nil || res.Rejected != 1 {
		t.Fatalf("append = %+v, %v", res, err)
	}
	snap := st.Snapshot()
	if snap.NumRows() != 2 {
		t.Fatalf("rows = %d", snap.NumRows())
	}
	r, _ := snap.Stats("v")
	if r.Count != 2 || r.Min != 7.5 || r.Max != 12.25 {
		t.Fatalf("stats = %+v", r)
	}
	status := st.Status()
	if status.Accepted != 2 || status.Rejected != 2 {
		t.Fatalf("status = %+v", status)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	st, err := New(miniConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	wrong := table.New()
	if err := wrong.AddFloats("v", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(wrong); err == nil {
		t.Fatal("want schema mismatch error")
	}
	if st.Rows() != 0 {
		t.Fatalf("rows = %d after rejected batch", st.Rows())
	}
	// Same columns under a different name fail with the column named.
	renamed := table.New()
	if err := renamed.AddStrings("id", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := renamed.AddStrings("label", []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if err := renamed.AddFloats("v", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(renamed); err == nil || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("renamed column err = %v", err)
	}
}

func TestReorderedBatchConforms(t *testing.T) {
	st, err := New(miniConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Same columns, different order: the batch is projected onto the
	// store schema by name.
	reordered := table.New()
	if err := reordered.AddFloats("v", []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := reordered.AddStrings("batch", []string{"r", "r"}); err != nil {
		t.Fatal(err)
	}
	if err := reordered.AddStrings("id", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	res, err := st.AppendTable(reordered)
	if err != nil || res.Accepted != 2 {
		t.Fatalf("reordered append = %+v, %v", res, err)
	}
	snap := st.Snapshot()
	tab, err := snap.Table()
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.ColumnNames(); !reflect.DeepEqual(got, []string{"id", "batch", "v"}) {
		t.Fatalf("stored column order = %v", got)
	}
	if r, _ := snap.Stats("v"); r.Count != 2 || r.Min != 3 || r.Max != 4 {
		t.Fatalf("stats = %+v", r)
	}
}

func TestLiveRunningStatsAndCounts(t *testing.T) {
	st, err := New(miniConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(miniBatch(t, 0, 20, "a")); err != nil {
		t.Fatal(err)
	}
	// No snapshot needed: the live views see the appended rows.
	r, ok := st.RunningStats("v")
	if !ok || r.Count != 20 || r.Min != 0 || r.Max != 19 {
		t.Fatalf("running stats = %+v, %v", r, ok)
	}
	if _, ok := st.RunningStats("id"); ok {
		t.Fatal("untracked attr must report !ok")
	}
	counts, ok := st.CountBy("batch")
	if !ok || counts["a"] != 20 {
		t.Fatalf("counts = %v, %v", counts, ok)
	}
	if _, ok := st.CountBy("v"); ok {
		t.Fatal("unindexed attr must report !ok")
	}
}

func TestSegmentSealing(t *testing.T) {
	cfg := miniConfig(1)
	cfg.SegmentRows = 64
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(miniBatch(t, 0, 300, "b")); err != nil {
		t.Fatal(err)
	}
	status := st.Status()
	if status.Shards[0].Segments == 0 {
		t.Fatal("tail never sealed despite exceeding SegmentRows")
	}
	if status.Shards[0].Rows != 300 {
		t.Fatalf("rows = %d", status.Shards[0].Rows)
	}
	snap := st.Snapshot()
	if snap.NumRows() != 300 {
		t.Fatalf("snapshot rows = %d", snap.NumRows())
	}
}

// TestSnapshotTableProjects: naming columns materializes exactly those
// columns, in the order named, over sealed segments and tail parts alike —
// the full materialization with the rest selected away.
func TestSnapshotTableProjects(t *testing.T) {
	cfg := miniConfig(2)
	cfg.SegmentRows = 64
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(miniBatch(t, 0, 300, "b")); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	full, err := snap.Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]string{{"v", "id"}, {"batch"}} {
		want, err := full.Select(cols...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Table(cols...)
		if err != nil {
			t.Fatal(err)
		}
		if err := tablesEqual(want, got); err != nil {
			t.Fatalf("Table(%v): %v", cols, err)
		}
	}
	if _, err := snap.Table("v", "ghost"); !errors.Is(err, table.ErrNoColumn) {
		t.Fatalf("unknown column: %v, want ErrNoColumn", err)
	}
}

func TestCSVAndBinaryIngestion(t *testing.T) {
	st, err := New(miniConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	batch := miniBatch(t, 0, 40, "csv")
	var csvBuf, binBuf bytes.Buffer
	if err := batch.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := table.Encode(miniBatch(t, 40, 25, "bin")).WriteBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	if res, err := st.AppendCSV(&csvBuf); err != nil || res.Accepted != 40 {
		t.Fatalf("csv = %+v, %v", res, err)
	}
	if res, err := st.AppendBinary(&binBuf); err != nil || res.Accepted != 25 {
		t.Fatalf("binary = %+v, %v", res, err)
	}
	if _, err := st.AppendCSV(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("want error for malformed CSV")
	}
	if _, err := st.AppendBinary(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("want error for malformed binary")
	}
	if st.Rows() != 65 {
		t.Fatalf("rows = %d", st.Rows())
	}
}

func TestValidateRejectsImplausibleRows(t *testing.T) {
	city, err := synth.GenerateCity(synth.CityConfig{
		Name: "T", Seed: 3, Streets: 20, CivicsPerStreet: 5,
		DistrictRows: 1, DistrictCols: 2, NeighbourhoodsPerDistrict: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.Generate(synth.Config{Seed: 3, Certificates: 60, ResidentialShare: 0.7}, city)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt two rows beyond the plausible EPH range.
	for _, r := range []int{5, 17} {
		if err := ds.Table.SetFloat(epc.AttrEPH, r, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Validate = true
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.AppendTable(ds.Table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 58 || res.Rejected != 2 || len(res.Issues) != 2 {
		t.Fatalf("result = %+v", res)
	}
	snap := st.Snapshot()
	if snap.NumRows() != 58 {
		t.Fatalf("rows = %d", snap.NumRows())
	}
	if r, ok := snap.Stats(epc.AttrEPH); !ok || r.Max > 600 {
		t.Fatalf("eph stats = %+v (implausible row entered the store)", r)
	}
	// Zone index follows the synthetic districts.
	counts, ok := snap.CountBy(epc.AttrDistrict)
	if !ok || len(counts) == 0 {
		t.Fatalf("district counts = %v, %v", counts, ok)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum > 58 {
		t.Fatalf("district index counts %d rows", sum)
	}
}

// TestConcurrentIngestReadConsistency is the -race stress test: writers
// stream batches and single records from several goroutines while readers
// repeatedly snapshot, asserting (a) row counts grow monotonically,
// (b) every snapshot is internally consistent (segments sum to the row
// count, stats cover exactly the valid cells), and (c) batches are atomic
// — no snapshot ever sees part of a batch.
func TestConcurrentIngestReadConsistency(t *testing.T) {
	const (
		writers      = 4
		batches      = 12
		batchRows    = 50
		singleAppend = 30
		readers      = 3
	)
	cfg := miniConfig(4)
	cfg.SegmentRows = 128
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wgWriters, wgReaders sync.WaitGroup
	errs := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			for b := 0; b < batches; b++ {
				batch := miniBatch(t, (w*batches+b)*batchRows, batchRows,
					fmt.Sprintf("w%d-b%d", w, b))
				if _, err := st.AppendTable(batch); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// One writer of single records (its own label, checked for presence,
	// not atomicity).
	wgWriters.Add(1)
	go func() {
		defer wgWriters.Done()
		for i := 0; i < singleAppend; i++ {
			if _, err := st.Append(Record{
				"id": fmt.Sprintf("solo-%d", i), "batch": "solo", "v": float64(i),
			}); err != nil {
				errs <- err
				return
			}
		}
	}()

	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			lastRows := -1
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				if snap.NumRows() < lastRows {
					errs <- fmt.Errorf("rows shrank: %d -> %d", lastRows, snap.NumRows())
					return
				}
				if snap.Epoch() <= lastEpoch {
					errs <- fmt.Errorf("epoch not increasing: %d after %d", snap.Epoch(), lastEpoch)
					return
				}
				lastRows, lastEpoch = snap.NumRows(), snap.Epoch()

				segRows := 0
				for i := 0; i < snap.NumShards(); i++ {
					segs, err := snap.ShardSegments(i)
					if err != nil {
						errs <- err
						return
					}
					for _, seg := range segs {
						segRows += seg.NumRows()
					}
				}
				if segRows != snap.NumRows() {
					errs <- fmt.Errorf("segments sum to %d, snapshot claims %d", segRows, snap.NumRows())
					return
				}
				if r, ok := snap.Stats("v"); !ok || r.Count != snap.NumRows() {
					errs <- fmt.Errorf("stats cover %d of %d rows", r.Count, snap.NumRows())
					return
				}
				counts, ok := snap.CountBy("batch")
				if !ok {
					errs <- fmt.Errorf("batch index missing")
					return
				}
				indexed := 0
				for label, c := range counts {
					indexed += c
					if label == "solo" {
						continue
					}
					if c != batchRows {
						errs <- fmt.Errorf("snapshot sees partial batch %s: %d of %d rows",
							label, c, batchRows)
						return
					}
				}
				if indexed != snap.NumRows() {
					errs <- fmt.Errorf("index covers %d of %d rows", indexed, snap.NumRows())
					return
				}
			}
		}()
	}

	wgWriters.Wait()
	close(stop)
	wgReaders.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	want := writers*batches*batchRows + singleAppend
	final := st.Snapshot()
	if final.NumRows() != want {
		t.Fatalf("final rows = %d, want %d", final.NumRows(), want)
	}
}
