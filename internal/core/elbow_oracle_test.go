package core

import (
	"fmt"
	"slices"
	"testing"

	"indice/internal/cluster"
	"indice/internal/parallel"
)

// oracleClustering is the clustering half of an Analysis as Analyze
// computed it before the sweep kept its fits: Restarts fresh K-means runs
// at the elbow's K, restart 0 seeded with cfg.Seed and restart r >= 1 with
// cfg.Seed + r·7919 + k, the minimum SSE taken in restart order under a
// strict <. tied reports whether restart 0 won although a later restart
// reached its SSE with other labels — the case a <= fold gets wrong.
func oracleClustering(t *testing.T, eng *Engine, cfg AnalysisConfig) (an *Analysis, tied bool) {
	t.Helper()
	norm, rowIdx, err := eng.tab.DenseMatrix(cfg.Attributes...)
	if err != nil {
		t.Fatal(err)
	}
	norm.Normalize()
	curve, err := cluster.SSECurveMatrix(norm, cfg.KMin, cfg.KMax, cfg.Restarts, cluster.KMeansConfig{Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	k, err := cluster.ElbowK(curve)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*cluster.KMeansResult, cfg.Restarts)
	for r := range results {
		c := cluster.KMeansConfig{K: k, Seed: cfg.Seed}
		if r > 0 {
			c.Seed = cfg.Seed + int64(r)*7919 + int64(k)
		}
		if results[r], err = cluster.KMeansMatrix(norm, c); err != nil {
			t.Fatal(err)
		}
	}
	best := results[0]
	for _, res := range results[1:] {
		if res.SSE < best.SSE {
			best = res
		}
		tied = tied || (res.SSE == results[0].SSE && !slices.Equal(res.Labels, results[0].Labels))
	}
	tied = tied && best == results[0]
	an = &Analysis{ChosenK: k, Clustering: best}
	resp, _ := eng.tab.Floats(cfg.Response)
	respValid, _ := eng.tab.ValidMask(cfg.Response)
	an.labelRows(rowIdx, resp, respValid)
	return an, tied
}

// TestFinalClusteringIsTheRestartLoopsChoice holds Analyze, which runs
// only restart 0 of the final clustering and takes the other restarts
// from the sweep, against the loop that ran them all.
func TestFinalClusteringIsTheRestartLoopsChoice(t *testing.T) {
	// Two corpora: the synthetic certificates, and the same rows with the
	// clustering attributes overwritten by two tight, far-apart blobs.
	// There every seed finds the one partition, so at K = 2 the restarts
	// reach bit-equal SSEs and differ only in which blob is cluster 0.
	planted := engineFor(t, 500, false)
	for i := 0; i < planted.tab.NumRows(); i++ {
		for d, attr := range DefaultAnalysisConfig().Attributes {
			v := float64(i%2*10+d) + float64(i%7)/100
			if err := planted.tab.SetFloat(attr, i, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	ties := 0
	for _, eng := range []*Engine{engineFor(t, 500, false), planted} {
		for _, kRange := range [][2]int{{2, 8}, {2, 3}} {
			for restarts := 1; restarts <= 3; restarts++ {
				for _, seed := range []int64{1, 2, 5, 11} {
					cfg := DefaultAnalysisConfig()
					cfg.KMin, cfg.KMax = kRange[0], kRange[1]
					cfg.Restarts, cfg.Seed = restarts, seed
					want, tied := oracleClustering(t, eng, cfg)
					if tied {
						ties++
					}
					for _, p := range []int{1, parallel.Auto} {
						cfg.Parallelism = p
						got, err := eng.Analyze(cfg)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("K %d…%d, %d restarts, seed %d, parallelism %d vs the restart loop",
							kRange[0], kRange[1], restarts, seed, p)
						if got.ChosenK != want.ChosenK {
							t.Fatalf("%s: ChosenK = %d, want %d", label, got.ChosenK, want.ChosenK)
						}
						mustMatchClusterings(t, label, got, want)
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no case where a kept sweep fit ties restart 0 on SSE with other labels: a <= fold would pass")
	}
}
