package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"indice/internal/geo"
	"indice/internal/outlier"
	"indice/internal/store"
	"indice/internal/synth"
)

func liveWorld(t *testing.T, certificates int) (*store.Store, *Live, *synth.Dataset) {
	t.Helper()
	city, err := synth.GenerateCity(synth.CityConfig{
		Name: "T", Seed: 5, Streets: 30, CivicsPerStreet: 8,
		DistrictRows: 2, DistrictCols: 2, NeighbourhoodsPerDistrict: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := synth.Generate(synth.Config{Seed: 5, Certificates: certificates, ResidentialShare: 0.8}, city)
	if err != nil {
		t.Fatal(err)
	}
	cfg := store.DefaultConfig()
	cfg.Shards = 2
	st, err := store.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultAnalysisConfig()
	acfg.KMax = 4
	live, err := NewLive(st, city.Hierarchy, LiveConfig{Analysis: acfg, MinRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	return st, live, ds
}

func TestNewLiveValidation(t *testing.T) {
	st, _ := store.New(store.Config{})
	if _, err := NewLive(nil, nil, LiveConfig{}); err == nil {
		t.Fatal("want error for nil store")
	}
	if _, err := NewLive(st, nil, LiveConfig{}); err == nil {
		t.Fatal("want error for nil hierarchy")
	}
	// A refresh screens a delta at a time: it can neither run the DBSCAN
	// screen nor leave the method to the suggestion store.
	hier, err := geo.GridHierarchy("t", geo.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	multivariate := DefaultPreprocessConfig()
	multivariate.Multivariate = true
	suggested := DefaultPreprocessConfig()
	suggested.Univariate = outlier.Config{}
	for field, pcfg := range map[string]PreprocessConfig{"Multivariate": multivariate, "Univariate.Method": suggested} {
		_, err := NewLive(st, hier, LiveConfig{Preprocess: pcfg})
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("%s: NewLive error %v, want one naming the field", field, err)
		}
	}
}

func TestLiveRefreshPublishes(t *testing.T) {
	st, live, ds := liveWorld(t, 600)
	if live.Current() != nil {
		t.Fatal("published state before any refresh")
	}
	// Refresh against the empty store fails with the threshold error and
	// publishes nothing.
	if _, err := live.Refresh(); !errors.Is(err, ErrStoreTooSmall) {
		t.Fatalf("empty refresh err = %v", err)
	}
	if msg, at := live.LastError(); msg == "" || at.IsZero() {
		t.Fatal("refresh failure not recorded")
	}
	if live.Current() != nil {
		t.Fatal("failed refresh published state")
	}

	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	pub, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Rows != 600 || pub.Engine == nil || pub.Analysis == nil || pub.Report == nil {
		t.Fatalf("published = %+v", pub)
	}
	if pub.Engine.Table().NumRows() == 0 || pub.Engine.Table().NumRows() > 600 {
		t.Fatalf("engine rows = %d", pub.Engine.Table().NumRows())
	}
	if pub.Analysis.ChosenK < 2 {
		t.Fatalf("chosen K = %d", pub.Analysis.ChosenK)
	}
	if msg, _ := live.LastError(); msg != "" {
		t.Fatalf("stale error after success: %q", msg)
	}
	if live.Refreshes() != 1 {
		t.Fatalf("refreshes = %d", live.Refreshes())
	}
	if got := live.Current(); got != pub {
		t.Fatal("Current does not serve the published state")
	}

	// The published state is pinned: further ingestion leaves it intact
	// until the next refresh.
	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	if live.Current().Rows != 600 {
		t.Fatal("published state changed without a refresh")
	}
	pub2, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if pub2.Rows != 1200 || pub2.Epoch <= pub.Epoch {
		t.Fatalf("second refresh = %+v", pub2)
	}

	// With no new data, Refresh short-circuits to the current publication
	// instead of re-running the pipeline.
	pub3, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if pub3 != pub2 {
		t.Fatal("unchanged store re-ran the pipeline")
	}
	if live.Refreshes() != 2 {
		t.Fatalf("refreshes = %d", live.Refreshes())
	}
}

// TestLiveKeepsAPartialAnalysisConfig: NewLive fills only the zero
// fields of the analysis tier's configuration, so a Live built with seed
// 7 publishes the analysis at seed 7.
func TestLiveKeepsAPartialAnalysisConfig(t *testing.T) {
	st, _, ds := liveWorld(t, 400)
	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	live, err := NewLive(st, ds.City.Hierarchy, LiveConfig{Analysis: AnalysisConfig{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := live.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pub.Engine.Analyze(AnalysisConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pub.Analysis, want) {
		t.Fatalf("published analysis is not the seed-7 analysis: SSE curve %v, want %v", pub.Analysis.SSECurve, want.SSECurve)
	}
}

func TestLiveAutoRefresh(t *testing.T) {
	st, live, ds := liveWorld(t, 400)
	if _, err := st.AppendTable(ds.Table); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		live.AutoRefresh(ctx, 20*time.Millisecond)
	}()
	deadline := time.After(30 * time.Second)
	for live.Current() == nil {
		select {
		case <-deadline:
			msg, _ := live.LastError()
			t.Fatalf("no published state after a tick (last error: %q)", msg)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if live.Current().Rows != 400 {
		t.Fatalf("published rows = %d", live.Current().Rows)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AutoRefresh loop did not exit on cancel")
	}
}
