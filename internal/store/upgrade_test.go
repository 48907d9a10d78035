package store

import (
	"math"
	"reflect"
	"testing"

	"indice/internal/epc"
	"indice/internal/query"
	"indice/internal/synth"
)

// TestReopenUnderSmallerSegmentRows is the upgrade from an 8 192-row tail
// bound to the 2 048-row default. A durable store written at 8 192
// checkpoints — sealing each shard's ≈ 5 000-row tail into one segment —
// and logs more batches after the checkpoint. Reopened at the default, it
// adopts the checkpointed segments as they are and replays the log into
// tails that now seal at 2 048, so segments of both sizes serve side by
// side; every acked row is back and every answer is the one the store gave
// before the restart. A checkpoint under the new bound and a second
// restart keep the mixed layout and the answers.
func TestReopenUnderSmallerSegmentRows(t *testing.T) {
	const base, extra, extraBatch = 20000, 10000, 250
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 30, 8
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = base + extra
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	old, cfg := DefaultConfig(), DefaultConfig()
	old.SegmentRows = 8192
	if perShard := base / cfg.Shards; perShard >= old.SegmentRows || perShard <= cfg.SegmentRows {
		t.Fatalf("%d rows per shard: want a checkpointed tail between the default %d and the old %d rows", perShard, cfg.SegmentRows, old.SegmentRows)
	}
	dur := Durability{Dir: t.TempDir(), Fsync: FsyncOff, MaxWALBytes: -1}
	st, err := Open(old, dur)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(lo, hi, step int) {
		t.Helper()
		for ; lo < hi; lo += step {
			part, err := ds.Table.View(lo, min(lo+step, hi))
			if err != nil {
				t.Fatal(err)
			}
			if res, err := st.AppendTable(part); err != nil || res.Rejected != 0 {
				t.Fatalf("ingest rows %d..: %+v, %v", lo, res, err)
			}
		}
	}
	feed(0, base, 2000)
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointed := st.Status()
	feed(base, base+extra, extraBatch)

	preds := []query.Predicate{
		query.MustParse("energy_class in {C, D}"),
		query.MustParse("energy_class in {B, E} and eph in [40, 160]"),
		query.MustParse("eph in [60, 140]"),
		query.MustParse("not (energy_class in {C, D}) or heat_surface >= 120"),
	}
	offsets := []int{0, 1000, 4000}
	type answers struct {
		corpus  []byte
		aggs    []*AggResult
		pages   [][]byte
		perDist *AggResult
	}
	answer := func(sn *Snapshot) answers {
		t.Helper()
		tab, err := sn.Table()
		if err != nil {
			t.Fatal(err)
		}
		out := answers{corpus: encodedBytes(tab)}
		spec := AggSpec{By: epc.AttrDistrict, Attrs: []string{epc.AttrEPH, epc.AttrHeatSurface}}
		for _, p := range preds {
			for _, offset := range offsets {
				agg, page, _, err := sn.QueryShardsPage(p, 0, sn.NumShards(), 2, spec, offset, 20)
				if err != nil {
					t.Fatal(err)
				}
				out.aggs = append(out.aggs, agg)
				out.pages = append(out.pages, encodedBytes(page))
			}
		}
		if out.perDist, _, err = sn.QueryAgg(nil, AggSpec{By: epc.AttrDistrict}, 2); err != nil {
			t.Fatal(err)
		}
		return out
	}
	same := func(label string, got, want answers) {
		t.Helper()
		if string(got.corpus) != string(want.corpus) {
			t.Fatalf("%s: the materialized corpus differs", label)
		}
		for i := range want.aggs {
			p, offset := preds[i/len(offsets)], offsets[i%len(offsets)]
			if !reflect.DeepEqual(got.aggs[i], want.aggs[i]) {
				t.Fatalf("%s: %v: the aggregate differs", label, p)
			}
			if string(got.pages[i]) != string(want.pages[i]) {
				t.Fatalf("%s: %v: the page at offset %d differs", label, p, offset)
			}
		}
		if !reflect.DeepEqual(got.perDist, want.perDist) {
			t.Fatalf("%s: the select-all counts by district differ", label)
		}
	}
	want := answer(st.Snapshot())
	wantEPH, _ := st.RunningStats(epc.AttrEPH)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// layout lists each shard's sealed segment sizes, then its tail's rows
	// negated.
	layout := func(sn *Snapshot) [][]int {
		out := make([][]int, sn.NumShards())
		for i, segs := range sn.segs {
			tail := 0
			for j, sg := range segs {
				if j >= sn.tailAt[i] {
					tail -= sg.rows
				} else {
					out[i] = append(out[i], sg.rows)
				}
			}
			if tail != 0 {
				out[i] = append(out[i], tail)
			}
		}
		return out
	}
	st, err = Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	rec := st.RecoveryInfo()
	if rec.CheckpointRows != base || rec.ReplayedRows != extra || rec.TornTail || st.Rows() != base+extra {
		t.Fatalf("recovery %+v, %d rows: want %d checkpointed and %d replayed", rec, st.Rows(), base, extra)
	}
	sn := st.Snapshot()
	mixed := layout(sn)
	for i, segs := range mixed {
		// The checkpointed tail at its own size, then the replayed rows
		// sealed each time a tail reached the new bound, then a short tail.
		ok := len(segs) >= 3 && segs[0] == checkpointed.Shards[i].Rows
		for k, rows := range segs[1:] {
			if k == len(segs)-2 {
				ok = ok && rows < 0 && -rows < cfg.SegmentRows
			} else {
				ok = ok && rows >= cfg.SegmentRows && rows < cfg.SegmentRows+extraBatch
			}
		}
		if !ok {
			t.Fatalf("shard %d holds segments %v (tail negated): want the %d-row checkpointed one, seals of %d to %d rows, then a shorter tail",
				i, segs, checkpointed.Shards[i].Rows, cfg.SegmentRows, cfg.SegmentRows+extraBatch-1)
		}
	}
	t.Logf("segment rows per shard after reopening at %d (tail negated): %v", cfg.SegmentRows, mixed)
	same("reopened at the default", answer(sn), want)
	gotEPH, _ := st.RunningStats(epc.AttrEPH)
	if gotEPH.Count != wantEPH.Count || gotEPH.Min != wantEPH.Min || gotEPH.Max != wantEPH.Max ||
		math.Abs(gotEPH.Mean-wantEPH.Mean) > 1e-12*math.Abs(wantEPH.Mean) {
		t.Fatalf("eph summary %+v, want %+v", gotEPH, wantEPH)
	}

	// The next checkpoint lists both sizes in one manifest and seals the
	// tail as it stands; the restart after it adopts every segment.
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = reopen(t, st, cfg, dur)
	defer st.Close()
	if rec := st.RecoveryInfo(); rec.CheckpointRows != base+extra || rec.ReplayedRows != 0 {
		t.Fatalf("second recovery %+v: want every row from the checkpoint", rec)
	}
	sn = st.Snapshot()
	for i, segs := range layout(sn) {
		ok := len(segs) == len(mixed[i])
		for k := 0; ok && k < len(segs); k++ {
			ok = segs[k] == max(mixed[i][k], -mixed[i][k])
		}
		if !ok {
			t.Fatalf("shard %d holds segments %v after the second checkpoint, want %v with the tail sealed", i, segs, mixed[i])
		}
	}
	same("after a checkpoint at the default", answer(sn), want)
}
