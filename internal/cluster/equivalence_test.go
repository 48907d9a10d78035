package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indice/internal/matrix"
)

// The tests in this file pin the flat-matrix compute core bitwise against
// the retained pre-refactor implementations (reference_test.go): same labels,
// same centroids, same SSE, same iteration counts, at any parallelism.

// equivPoints draws a point set designed to stress the equivalence: a few
// Gaussian blobs plus, optionally, many exact duplicates (which force
// empty-cluster re-seeding and argmin ties).
func equivPoints(rng *rand.Rand, n, dim int, withDuplicates bool) [][]float64 {
	pts := make([][]float64, n)
	centers := 1 + rng.Intn(5)
	for i := range pts {
		p := make([]float64, dim)
		c := rng.Intn(centers)
		for d := range p {
			p[d] = float64(c*3) + rng.NormFloat64()
		}
		pts[i] = p
	}
	if withDuplicates {
		for i := range pts {
			if rng.Intn(3) == 0 {
				pts[i] = append([]float64(nil), pts[rng.Intn(i+1)]...)
			}
		}
	}
	return pts
}

func sameKMeans(t *testing.T, tag string, got, want *KMeansResult) {
	t.Helper()
	if got.K != want.K || got.Iterations != want.Iterations {
		t.Fatalf("%s: K/iterations = %d/%d, want %d/%d", tag, got.K, got.Iterations, want.K, want.Iterations)
	}
	if got.SSE != want.SSE {
		t.Fatalf("%s: SSE = %v, want %v (Δ %g)", tag, got.SSE, want.SSE, got.SSE-want.SSE)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", tag, i, got.Labels[i], want.Labels[i])
		}
	}
	for c := range want.Centroids {
		if got.Sizes[c] != want.Sizes[c] {
			t.Fatalf("%s: size[%d] = %d, want %d", tag, c, got.Sizes[c], want.Sizes[c])
		}
		for d := range want.Centroids[c] {
			if got.Centroids[c][d] != want.Centroids[c][d] {
				t.Fatalf("%s: centroid[%d][%d] = %v, want %v", tag, c, d,
					got.Centroids[c][d], want.Centroids[c][d])
			}
		}
	}
}

func TestKMeansMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(120)
		dim := 1 + rng.Intn(6)
		pts := equivPoints(rng, n, dim, trial%2 == 0)
		cfg := KMeansConfig{K: 1 + rng.Intn(min(n, 8)), Seed: rng.Int63n(1 << 30)}
		want, err := KMeansReference(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			c := cfg
			c.Parallelism = par
			got, err := KMeans(pts, c)
			if err != nil {
				t.Fatal(err)
			}
			sameKMeans(t, "kmeans", got, want)
		}
	}
}

// TestKMeansMatchesReferenceTinySeparation drives points whose centroid
// distances differ only far out in the mantissa, forcing the
// expanded-kernel screen to fall back to exact confirmation.
func TestKMeansMatchesReferenceTinySeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 16 + rng.Intn(40)
		pts := make([][]float64, n)
		for i := range pts {
			base := float64(rng.Intn(2))
			pts[i] = []float64{
				base + float64(rng.Intn(3))*1e-13,
				-base + float64(rng.Intn(3))*1e-13,
			}
		}
		cfg := KMeansConfig{K: 1 + rng.Intn(4), Seed: int64(trial)}
		want, err := KMeansReference(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := KMeans(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameKMeans(t, "tiny-separation", got, want)
	}
}

// TestKMeansMatchesReferenceLongLivedBounds covers what the small draws
// above never reach: bounds that decay across dozens of updates, runs
// stopped by the iteration cap rather than by convergence, and an
// empty-cluster re-seed arriving after quiet iterations, when every bound
// is live and one more shift is due.
func TestKMeansMatchesReferenceLongLivedBounds(t *testing.T) {
	// One broad overlapping cloud: no K in 6…10 has a clean partition, so
	// Lloyd's creeps for 40–100 iterations.
	rng := rand.New(rand.NewSource(23))
	cloud := make([][]float64, 4000)
	for i := range cloud {
		p := make([]float64, 5)
		for d := range p {
			p[d] = 0.5 + 0.18*rng.NormFloat64() + 0.1*float64(i%3)
		}
		cloud[i] = p
	}
	capped := 0
	for k := 6; k <= 10; k++ {
		for seed := int64(2); seed <= 3; seed++ {
			cfg := KMeansConfig{K: k, Seed: seed}
			want, err := KMeansReference(cloud, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Iterations < 40 {
				t.Fatalf("K=%d seed=%d: the reference converges in %d iterations; the cloud no longer ages the bounds", k, seed, want.Iterations)
			}
			if want.Iterations == 101 {
				capped++
			}
			for _, par := range []int{1, 4} {
				cfg.Parallelism = par
				got, err := KMeans(cloud, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameKMeans(t, fmt.Sprintf("cloud K=%d seed=%d parallelism=%d", k, seed, par), got, want)
			}
		}
	}
	if capped == 0 {
		t.Fatal("no run of the cloud ends at the iteration cap (Iterations == MaxIterations+1)")
	}

	// A line of ~24 distinct values with skewed multiplicities. The seeds
	// are the ones of the first 21 000 on which a cluster runs empty at
	// iteration >= 3 right after an iteration without any re-seed.
	for _, seed := range []int64{288, 1906, 3930, 8896, 20928} {
		rng := rand.New(rand.NewSource(seed))
		n := 250 + rng.Intn(150)
		values := make([]float64, 18+rng.Intn(12))
		for i := range values {
			values[i] = rng.Float64()
		}
		line := make([][]float64, n)
		for i := range line {
			line[i] = []float64{values[int(float64(len(values))*rng.Float64()*rng.Float64())]}
		}
		cfg := KMeansConfig{K: 7 + rng.Intn(3), Seed: seed}
		reseedAt := map[int]bool{}
		want, err := kmeansReference(line, cfg, func(iter int) { reseedAt[iter] = true })
		if err != nil {
			t.Fatal(err)
		}
		midRun := false
		for iter := range reseedAt {
			midRun = midRun || (iter >= 3 && !reseedAt[iter-1])
		}
		if !midRun {
			t.Fatalf("seed %d: re-seeds at iterations %v, none after a quiet iteration", seed, reseedAt)
		}
		for _, par := range []int{1, 4} {
			cfg.Parallelism = par
			got, err := KMeans(line, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameKMeans(t, fmt.Sprintf("line seed=%d parallelism=%d", seed, par), got, want)
		}
	}
}

func TestSSECurveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts := equivPoints(rng, 150, 4, false)
	kMin, kMax, restarts := 2, 7, 3
	cfg := KMeansConfig{Seed: 17}
	// Reference sweep: the sequential loop over (K, restart) jobs, seeded
	// exactly as SSECurve seeds them.
	var want []SSECurvePoint
	for k := kMin; k <= kMax; k++ {
		best := math.Inf(1)
		for r := 0; r < restarts; r++ {
			c := cfg
			c.K = k
			c.Seed = cfg.Seed + int64(r)*7919 + int64(k)
			res, err := KMeansReference(pts, c)
			if err != nil {
				t.Fatal(err)
			}
			if res.SSE < best {
				best = res.SSE
			}
		}
		want = append(want, SSECurvePoint{K: k, SSE: best})
	}
	for _, par := range []int{1, 4} {
		c := cfg
		c.Parallelism = par
		got, err := SSECurve(pts, kMin, kMax, restarts, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: curve[%d] = %+v, want %+v", par, i, got[i], want[i])
			}
		}
	}
}

func TestDBSCANMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(200)
		dim := 1 + rng.Intn(4)
		pts := equivPoints(rng, n, dim, trial%2 == 0)
		eps := 0.2 + rng.Float64()*2
		minPts := 1 + rng.Intn(8)
		want, err := DBSCANReference(pts, eps, minPts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			got, err := DBSCANParallel(pts, eps, minPts, par)
			if err != nil {
				t.Fatal(err)
			}
			if got.Clusters != want.Clusters || got.NoiseCount != want.NoiseCount {
				t.Fatalf("trial %d par %d: clusters/noise = %d/%d, want %d/%d",
					trial, par, got.Clusters, got.NoiseCount, want.Clusters, want.NoiseCount)
			}
			for i := range want.Labels {
				if got.Labels[i] != want.Labels[i] {
					t.Fatalf("trial %d par %d: label[%d] = %d, want %d",
						trial, par, i, got.Labels[i], want.Labels[i])
				}
			}
		}
	}
}

func TestKDistancesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(120)
		dim := 1 + rng.Intn(5)
		pts := equivPoints(rng, n, dim, trial%2 == 0)
		k := 1 + rng.Intn(n-1)
		want, err := KDistancesReference(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 3} {
			got, err := KDistancesParallel(pts, k, par)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d par %d: kd[%d] = %v, want %v", trial, par, i, got[i], want[i])
				}
			}
		}
	}
}

// silhouetteMapReference is the historical map-based silhouette, retained
// test-locally as the equivalence oracle.
func silhouetteMapReference(points [][]float64, labels []int) (float64, error) {
	n := len(points)
	sizes := make(map[int]int)
	for _, l := range labels {
		if l != Noise {
			sizes[l]++
		}
	}
	vals := make([]float64, n)
	eligible := make([]bool, n)
	for i := 0; i < n; i++ {
		li := labels[i]
		if li == Noise || sizes[li] < 2 {
			continue
		}
		sums := make(map[int]float64)
		for j := 0; j < n; j++ {
			if i == j || labels[j] == Noise {
				continue
			}
			sums[labels[j]] += Dist(points[i], points[j])
		}
		a := sums[li] / float64(sizes[li]-1)
		b := math.Inf(1)
		for l, s := range sums {
			if l == li {
				continue
			}
			if m := s / float64(sizes[l]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		eligible[i] = true
		if den := math.Max(a, b); den > 0 {
			vals[i] = (b - a) / den
		}
	}
	var total float64
	var counted int
	for i := 0; i < n; i++ {
		if eligible[i] {
			total += vals[i]
			counted++
		}
	}
	return total / float64(counted), nil
}

func TestSilhouetteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(150)
		dim := 1 + rng.Intn(4)
		pts := equivPoints(rng, n, dim, false)
		labels := make([]int, n)
		nc := 2 + rng.Intn(5)
		for i := range labels {
			labels[i] = rng.Intn(nc+1) - 1 // includes Noise
		}
		// Guarantee two clusters with >= 2 members.
		labels[0], labels[1], labels[2], labels[3] = 0, 0, 1, 1
		want, err := silhouetteMapReference(pts, labels)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			got, err := SilhouetteParallel(pts, labels, par)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d par %d: silhouette = %v, want %v", trial, par, got, want)
			}
		}
	}
}

func TestSilhouetteRejectsSparseLabels(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {3}}
	if _, err := Silhouette(pts, []int{0, 0, 1 << 30, 1}); err == nil {
		t.Fatal("want error for sparse labels")
	}
	if _, err := Silhouette(pts, []int{0, 0, -2, 1}); err == nil {
		t.Fatal("want error for labels below Noise")
	}
}

// TestNeighboursZeroAlloc proves the packed-int64 grid's region query
// allocates nothing once its scratch buffers reached steady state — the
// churn the string-keyed grid paid on every probe.
func TestNeighboursZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := equivPoints(rng, 2000, 3, false)
	m, err := matrix.FromRows(pts)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.8
	idx := newCellIndex(m, eps)
	var sc neighbourScratch
	// Warm the scratch to steady-state capacity.
	for i := 0; i < m.Rows(); i++ {
		idx.neighbours(i, eps*eps, &sc)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		idx.neighbours(i%m.Rows(), eps*eps, &sc)
		i++
	})
	if allocs != 0 {
		t.Fatalf("neighbours allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkCellIndexNeighbours is the satellite benchmark: allocs/op must
// report 0 for the packed-int64 grid (compare the reference sub-bench,
// which pays a string key per probed cell).
func BenchmarkCellIndexNeighbours(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	pts := equivPoints(rng, 5000, 3, false)
	eps := 0.8
	b.Run("int64-key", func(b *testing.B) {
		m, err := matrix.FromRows(pts)
		if err != nil {
			b.Fatal(err)
		}
		idx := newCellIndex(m, eps)
		var sc neighbourScratch
		idx.neighbours(0, eps*eps, &sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.neighbours(i%len(pts), eps*eps, &sc)
		}
	})
	b.Run("string-key-reference", func(b *testing.B) {
		idx := newStringCellIndex(pts, eps)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.neighbours(i%len(pts), eps*eps)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
