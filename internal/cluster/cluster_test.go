package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates g well-separated Gaussian blobs of m points each.
func blobs(seed int64, g, m int, spread float64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, 0, g*m)
	truth := make([]int, 0, g*m)
	for c := 0; c < g; c++ {
		cx := float64(c * 10)
		cy := float64((c % 2) * 10)
		for i := 0; i < m; i++ {
			pts = append(pts, []float64{
				cx + rng.NormFloat64()*spread,
				cy + rng.NormFloat64()*spread,
			})
			truth = append(truth, c)
		}
	}
	return pts, truth
}

func TestKMeansRecoverseparatedBlobs(t *testing.T) {
	pts, truth := blobs(1, 3, 60, 0.5)
	res, err := KMeans(pts, KMeansConfig{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 || len(res.Labels) != len(pts) {
		t.Fatalf("shape: %+v", res)
	}
	// Every true blob must map to exactly one k-means cluster.
	mapping := map[int]int{}
	for i, l := range res.Labels {
		if prev, ok := mapping[truth[i]]; ok {
			if prev != l {
				t.Fatalf("blob %d split across clusters", truth[i])
			}
		} else {
			mapping[truth[i]] = l
		}
	}
	if len(mapping) != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
	for c, s := range res.Sizes {
		if s != 60 {
			t.Fatalf("cluster %d size = %d", c, s)
		}
	}
}

func TestKMeansK1(t *testing.T) {
	pts, _ := blobs(2, 2, 20, 1)
	res, err := KMeans(pts, KMeansConfig{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("K=1 should label everything 0")
		}
	}
	// SSE with one cluster equals total variance around the mean.
	if res.SSE <= 0 {
		t.Fatalf("SSE = %v", res.SSE)
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, KMeansConfig{K: 1}); err == nil {
		t.Fatal("want error on empty input")
	}
	pts := [][]float64{{1, 2}, {3, 4}}
	if _, err := KMeans(pts, KMeansConfig{K: 0}); err == nil {
		t.Fatal("want error for K=0")
	}
	if _, err := KMeans(pts, KMeansConfig{K: 3}); err == nil {
		t.Fatal("want error for K>n")
	}
	if _, err := KMeans([][]float64{{1}, {1, 2}}, KMeansConfig{K: 1}); err == nil {
		t.Fatal("want error for ragged input")
	}
	if _, err := KMeans([][]float64{{math.NaN()}}, KMeansConfig{K: 1}); err == nil {
		t.Fatal("want error for NaN input")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := blobs(3, 3, 40, 1)
	a, err := KMeans(pts, KMeansConfig{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, KMeansConfig{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed, different labels")
		}
	}
	if a.SSE != b.SSE {
		t.Fatal("same seed, different SSE")
	}
}

func TestKMeansNoEmptyClusters(t *testing.T) {
	// Adversarial: many duplicated points, K close to n.
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{float64(i % 4), 0}
	}
	res, err := KMeans(pts, KMeansConfig{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res.Sizes {
		if s == 0 {
			t.Fatalf("cluster %d empty", c)
		}
	}
}

func TestKMeansSSEDecreasesWithKProperty(t *testing.T) {
	pts, _ := blobs(4, 4, 30, 2)
	curve, err := SSECurve(pts, 1, 8, 3, KMeansConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		// Monotone non-increasing up to restart noise.
		if curve[i].SSE > curve[i-1].SSE*1.05 {
			t.Fatalf("SSE rose sharply at K=%d: %v -> %v", curve[i].K, curve[i-1].SSE, curve[i].SSE)
		}
	}
}

func TestElbowKFindsTrueK(t *testing.T) {
	pts, _ := blobs(5, 4, 50, 0.4)
	curve, err := SSECurve(pts, 1, 9, 4, KMeansConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	k, err := ElbowK(curve)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("elbow K = %d, want 4", k)
	}
}

func TestElbowKEdgeCases(t *testing.T) {
	if _, err := ElbowK(nil); err == nil {
		t.Fatal("want error for empty curve")
	}
	k, err := ElbowK([]SSECurvePoint{{K: 2, SSE: 5}})
	if err != nil || k != 2 {
		t.Fatalf("single-point curve: %d, %v", k, err)
	}
}

func TestDBSCANBlobsAndNoise(t *testing.T) {
	pts, _ := blobs(7, 2, 80, 0.4)
	// Plant three isolated outliers.
	pts = append(pts, []float64{100, 100}, []float64{-50, 70}, []float64{60, -60})
	res, err := DBSCAN(pts, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.Clusters)
	}
	if res.NoiseCount != 3 {
		t.Fatalf("noise = %d, want 3", res.NoiseCount)
	}
	for i := len(pts) - 3; i < len(pts); i++ {
		if res.Labels[i] != Noise {
			t.Fatalf("outlier %d labelled %d", i, res.Labels[i])
		}
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	res, err := DBSCAN(pts, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 0 || res.NoiseCount != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	pts, _ := blobs(8, 1, 50, 0.3)
	res, err := DBSCAN(pts, 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 {
		t.Fatalf("clusters = %d", res.Clusters)
	}
	if res.NoiseCount > 2 {
		t.Fatalf("noise = %d", res.NoiseCount)
	}
}

func TestDBSCANErrors(t *testing.T) {
	if _, err := DBSCAN(nil, 1, 2); err == nil {
		t.Fatal("want error on empty input")
	}
	pts := [][]float64{{0, 0}}
	if _, err := DBSCAN(pts, 0, 2); err == nil {
		t.Fatal("want error for eps=0")
	}
	if _, err := DBSCAN(pts, 1, 0); err == nil {
		t.Fatal("want error for minPts=0")
	}
	if _, err := DBSCAN([][]float64{{0}, {0, 1}}, 1, 1); err == nil {
		t.Fatal("want error for ragged input")
	}
	if _, err := DBSCAN([][]float64{{math.Inf(1)}}, 1, 1); err == nil {
		t.Fatal("want error for Inf input")
	}
}

func TestDBSCANMatchesBruteForceProperty(t *testing.T) {
	// The grid-accelerated neighbour query must agree with brute force on
	// cluster/noise structure.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		eps := 0.8
		minPts := 4
		res, err := DBSCAN(pts, eps, minPts)
		if err != nil {
			return false
		}
		// Core property: a point with >= minPts neighbours is never noise;
		// a noise point has < minPts neighbours within eps.
		for i := range pts {
			cnt := 0
			for j := range pts {
				if Dist(pts[i], pts[j]) <= eps {
					cnt++
				}
			}
			if cnt >= minPts && res.Labels[i] == Noise {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKDistances(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}, {10, 10}}
	kd, err := KDistances(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kd) != 4 {
		t.Fatalf("len = %d", len(kd))
	}
	// Sorted descending; the isolated point dominates.
	for i := 1; i < len(kd); i++ {
		if kd[i] > kd[i-1] {
			t.Fatalf("not descending: %v", kd)
		}
	}
	if kd[0] < 12 {
		t.Fatalf("isolated point 1-distance = %v", kd[0])
	}
	if _, err := KDistances(pts, 4); err == nil {
		t.Fatal("want error for k >= n")
	}
	if _, err := KDistances(nil, 1); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestEstimateDBSCANParams(t *testing.T) {
	pts, _ := blobs(9, 3, 60, 0.4)
	eps, minPts, err := EstimateDBSCANParams(pts, []int{3, 4, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Fatalf("eps = %v", eps)
	}
	if minPts < 3 || minPts > 8 {
		t.Fatalf("minPts = %d", minPts)
	}
	// The estimated parameters should recover the blob structure.
	res, err := DBSCAN(pts, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters < 2 || res.Clusters > 4 {
		t.Fatalf("clusters with estimated params = %d", res.Clusters)
	}
}

func TestSilhouetteSeparatedVsOverlapping(t *testing.T) {
	sep, _ := blobs(10, 2, 40, 0.3)
	sepRes, err := KMeans(sep, KMeansConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sGood, err := Silhouette(sep, sepRes.Labels)
	if err != nil {
		t.Fatal(err)
	}
	ovl, _ := blobs(10, 2, 40, 6.0)
	ovlRes, err := KMeans(ovl, KMeansConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sBad, err := Silhouette(ovl, ovlRes.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if sGood < 0.7 {
		t.Fatalf("separated silhouette = %v", sGood)
	}
	if sBad >= sGood {
		t.Fatalf("overlapping silhouette %v >= separated %v", sBad, sGood)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	if _, err := Silhouette(nil, nil); err == nil {
		t.Fatal("want error for empty input")
	}
	pts := [][]float64{{0}, {1}}
	if _, err := Silhouette(pts, []int{0, 0}); err == nil {
		t.Fatal("want error for single cluster")
	}
}

func BenchmarkKMeans(b *testing.B) {
	pts, _ := blobs(11, 5, 5000, 1.0)
	cfg := KMeansConfig{K: 5, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(pts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	pts, _ := blobs(12, 4, 2500, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DBSCAN(pts, 2.0, 5); err != nil {
			b.Fatal(err)
		}
	}
}
