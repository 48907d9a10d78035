package core

import (
	"context"
	"testing"
	"time"

	"indice/internal/store"
	"indice/internal/synth"
)

// TestRestartResumesAutoRefresh is the restart regression for the
// durable store: a server that dies after publishing an analysis must,
// on reboot over the same data directory, recover every acked row and
// publish again from the recovered state — the recovered store's nonzero
// generation must not trip the no-op refresh skip, and AutoRefresh must
// pick the work up without an explicit kick.
func TestRestartResumesAutoRefresh(t *testing.T) {
	city, err := synth.GenerateCity(synth.CityConfig{
		Name: "T", Seed: 5, Streets: 30, CivicsPerStreet: 8,
		DistrictRows: 2, DistrictCols: 2, NeighbourhoodsPerDistrict: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.Generate(synth.Config{Seed: 5, Certificates: 600, ResidentialShare: 0.8}, city)
	if err != nil {
		t.Fatal(err)
	}
	cfg := store.DefaultConfig()
	cfg.Shards = 2
	dir := t.TempDir()
	dur := store.Durability{Dir: dir, MaxWALBytes: -1}

	st, err := store.Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultAnalysisConfig()
	acfg.KMax = 4
	lcfg := LiveConfig{Analysis: acfg, MinRows: 100}
	live, err := NewLive(st, city.Hierarchy, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	pub, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Rows != 600 {
		t.Fatalf("published rows = %d", pub.Rows)
	}
	// Kill: no checkpoint, no graceful close — the WAL alone carries the
	// corpus.
	gen := st.Generation()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(cfg, dur)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Rows() != 600 || st2.Generation() != gen {
		t.Fatalf("recovered rows=%d gen=%d, want 600/%d", st2.Rows(), st2.Generation(), gen)
	}
	live2, err := NewLive(st2, city.Hierarchy, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go live2.AutoRefresh(ctx, 20*time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for live2.Current() == nil {
		if time.Now().After(deadline) {
			t.Fatal("AutoRefresh never published after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	pub2 := live2.Current()
	if pub2.Rows != 600 {
		t.Fatalf("restarted publication rows = %d", pub2.Rows)
	}
	if pub2.Analysis == nil || pub2.Analysis.ChosenK < 2 {
		t.Fatalf("restarted analysis = %+v", pub2.Analysis)
	}

	// Ingestion continues durably after the restart and the loop follows.
	if _, err := st2.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	for live2.Current().Rows != 1200 {
		if time.Now().After(deadline) {
			t.Fatalf("rows stuck at %d after post-restart ingest", live2.Current().Rows)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
