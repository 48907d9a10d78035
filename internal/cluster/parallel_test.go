package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indice/internal/matrix"
	"indice/internal/parallel"
)

// blobPoints samples four well-separated Gaussian blobs in dim dimensions.
func blobPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 4)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = float64(c*7) + rng.Float64()
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[i%len(centers)]
		p := make([]float64, dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()*0.5
		}
		pts[i] = p
	}
	return pts
}

func float64sBitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKMeansParallelEquivalence verifies the hard guarantee behind
// KMeansConfig.Parallelism: the result is bitwise-identical to the
// sequential run at every worker count.
func TestKMeansParallelEquivalence(t *testing.T) {
	pts := blobPoints(400, 3, 11)
	base := KMeansConfig{K: 4, Seed: 42, Parallelism: 1}
	want, err := KMeans(pts, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 8, parallel.Auto} {
		cfg := base
		cfg.Parallelism = p
		got, err := KMeans(pts, cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !intsEqual(got.Labels, want.Labels) {
			t.Fatalf("parallelism %d: labels diverge", p)
		}
		if math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
			t.Fatalf("parallelism %d: SSE %v != %v", p, got.SSE, want.SSE)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("parallelism %d: iterations %d != %d", p, got.Iterations, want.Iterations)
		}
		for c := range want.Centroids {
			if !float64sBitwiseEqual(got.Centroids[c], want.Centroids[c]) {
				t.Fatalf("parallelism %d: centroid %d diverges", p, c)
			}
		}
		if !intsEqual(got.Sizes, want.Sizes) {
			t.Fatalf("parallelism %d: sizes diverge", p)
		}
	}
}

func TestSSECurveParallelEquivalence(t *testing.T) {
	pts := blobPoints(300, 2, 7)
	seq, err := SSECurve(pts, 2, 8, 3, KMeansConfig{Seed: 5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 16} {
		par, err := SSECurve(pts, 2, 8, 3, KMeansConfig{Seed: 5, Parallelism: p})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("parallelism %d: curve length %d != %d", p, len(par), len(seq))
		}
		for i := range seq {
			if par[i].K != seq[i].K || math.Float64bits(par[i].SSE) != math.Float64bits(seq[i].SSE) {
				t.Fatalf("parallelism %d: point %d = %+v, want %+v", p, i, par[i], seq[i])
			}
		}
	}
	kSeq, err := ElbowK(seq)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := SSECurve(pts, 2, 8, 3, KMeansConfig{Seed: 5, Parallelism: 4})
	kPar, err := ElbowK(par)
	if err != nil {
		t.Fatal(err)
	}
	if kSeq != kPar {
		t.Fatalf("elbow K diverges: %d != %d", kPar, kSeq)
	}
}

// TestSSECurveErrorIsTheLowestJobs pins the sweep's error to the one the
// ascending sequential loop meets first — the smallest failing K, restart
// 0 — although jobs are issued from the largest K down, and to the
// input's own error before any job's.
func TestSSECurveErrorIsTheLowestJobs(t *testing.T) {
	pts := blobPoints(6, 2, 3)
	for _, p := range []int{1, 4} {
		_, err := SSECurve(pts, 5, 9, 2, KMeansConfig{Seed: 1, Parallelism: p})
		if err == nil || err.Error() != "cluster: K=7 out of range [1, 6]" {
			t.Fatalf("parallelism %d: err = %v, want the K=7 range error", p, err)
		}
		bad := append([][]float64{{math.NaN(), 0}}, pts...)
		_, err = SSECurve(bad, 5, 9, 2, KMeansConfig{Seed: 1, Parallelism: p})
		if err == nil || err.Error() != "cluster: point 0 holds a non-finite coordinate" {
			t.Fatalf("parallelism %d: err = %v, want the non-finite point error", p, err)
		}
	}
}

func TestDBSCANParallelEquivalence(t *testing.T) {
	pts := blobPoints(500, 2, 3)
	seq, err := DBSCAN(pts, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 32} {
		par, err := DBSCANParallel(pts, 0.6, 4, p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !intsEqual(par.Labels, seq.Labels) {
			t.Fatalf("parallelism %d: labels diverge", p)
		}
		if par.Clusters != seq.Clusters || par.NoiseCount != seq.NoiseCount {
			t.Fatalf("parallelism %d: %d clusters/%d noise, want %d/%d",
				p, par.Clusters, par.NoiseCount, seq.Clusters, seq.NoiseCount)
		}
	}
}

func TestKDistancesParallelEquivalence(t *testing.T) {
	pts := blobPoints(200, 3, 9)
	seq, err := KDistances(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		par, err := KDistancesParallel(pts, 4, p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !float64sBitwiseEqual(par, seq) {
			t.Fatalf("parallelism %d: k-distance plot diverges", p)
		}
	}
}

func TestEstimateDBSCANParamsParallelEquivalence(t *testing.T) {
	pts := blobPoints(150, 2, 13)
	epsSeq, minPtsSeq, err := EstimateDBSCANParams(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	epsPar, minPtsPar, err := EstimateDBSCANParamsParallel(pts, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(epsPar) != math.Float64bits(epsSeq) || minPtsPar != minPtsSeq {
		t.Fatalf("estimate diverges: (%v, %d) != (%v, %d)", epsPar, minPtsPar, epsSeq, minPtsSeq)
	}
}

func TestSilhouetteParallelEquivalence(t *testing.T) {
	pts := blobPoints(300, 2, 21)
	res, err := KMeans(pts, KMeansConfig{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Silhouette(pts, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 16} {
		par, err := SilhouetteParallel(pts, res.Labels, p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if math.Float64bits(par) != math.Float64bits(seq) {
			t.Fatalf("parallelism %d: silhouette %v != %v", p, par, seq)
		}
	}
}

// TestSweepRefitIsTheSweepsRun pins what lets ElbowSweep keep SSEs and
// drop its runs: KMeansMatrix seeded with RestartSeed re-fits every
// (K, restart) job bitwise — labels, centroids, sizes, iterations and
// SSE — at any Parallelism, and the sweep recorded that job's SSE.
func TestSweepRefitIsTheSweepsRun(t *testing.T) {
	const kMin, kMax, restarts = 2, 7, 3
	rng := rand.New(rand.NewSource(11))
	for trial, dup := range []bool{false, true, false} {
		m, err := matrix.FromRows(equivPoints(rng, 240+40*trial, 3, dup))
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(5 + trial)
		sw, err := ElbowSweep(m, kMin, kMax, restarts, KMeansConfig{Seed: seed, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		xn := m.RowNorms(nil)
		for k := kMin; k <= kMax; k++ {
			for r, sse := range sw.SSEs(k) {
				// The job exactly as the sweep runs it.
				job, err := kmeansRun(m, xn, KMeansConfig{K: k, Seed: RestartSeed(seed, r, k), Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("trial %d K=%d restart %d", trial, k, r)
				if math.Float64bits(job.SSE) != math.Float64bits(sse) {
					t.Fatalf("%s: the sweep recorded SSE %v, the job's is %v", tag, sse, job.SSE)
				}
				for _, p := range []int{1, parallel.Auto} {
					refit, err := KMeansMatrix(m, KMeansConfig{K: k, Seed: RestartSeed(seed, r, k), Parallelism: p})
					if err != nil {
						t.Fatal(err)
					}
					sameKMeans(t, fmt.Sprintf("%s parallelism %d", tag, p), refit, job)
					if math.Float64bits(refit.SSE) != math.Float64bits(job.SSE) {
						t.Fatalf("%s parallelism %d: SSE bits differ", tag, p)
					}
				}
			}
		}
	}
}
