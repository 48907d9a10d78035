package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"indice/internal/matrix"
)

// This file retains the pre-flat-matrix implementations of the three hot
// algorithms, verbatim: Lloyd's K-means over [][]float64 rows, DBSCAN
// with the string-keyed cell grid, and the fully-sorting k-distance scan.
// They are the executable specification the optimized paths are pinned
// against — the randomized equivalence tests assert bitwise-identical
// labels, centroids and distances at any parallelism, and
// BenchmarkE11KernelsReference below is the "before" of the E11 kernel
// benchmark.

// KMeansReference is the pre-refactor Lloyd's iteration. Results are
// bitwise-identical to KMeans at any cfg.Parallelism (the reference
// itself always runs sequentially).
func KMeansReference(points [][]float64, cfg KMeansConfig) (*KMeansResult, error) {
	return kmeansReference(points, cfg, nil)
}

// kmeansReference is KMeansReference telling onReseed (when not nil) the
// iteration of every empty-cluster re-seed.
func kmeansReference(points [][]float64, cfg KMeansConfig, onReseed func(iter int)) (*KMeansResult, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("cluster: kmeans on empty input")
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cluster: point %d holds a non-finite coordinate", i)
			}
		}
	}
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("cluster: K=%d out of range [1, %d]", cfg.K, n)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	centroids := make([][]float64, cfg.K)
	perm := rng.Perm(n)
	for c := 0; c < cfg.K; c++ {
		centroids[c] = append([]float64(nil), points[perm[c]]...)
	}

	labels := make([]int, n)
	sizes := make([]int, cfg.K)
	sums := make([][]float64, cfg.K)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}

	var iter int
	for iter = 1; iter <= cfg.MaxIterations; iter++ {
		changed := iter == 1
		for i := 0; i < n; i++ {
			p := points[i]
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := refSqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				changed = true
			}
			labels[i] = best
		}

		for c := range sums {
			sizes[c] = 0
			for d := range sums[c] {
				sums[c][d] = 0
			}
		}
		for i, p := range points {
			c := labels[i]
			sizes[c]++
			for d, v := range p {
				sums[c][d] += v
			}
		}
		maxMove := 0.0
		for c := range centroids {
			if sizes[c] == 0 {
				if onReseed != nil {
					onReseed(iter)
				}
				far, farD := 0, -1.0
				for i, p := range points {
					if d := refSqDist(p, centroids[labels[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = append([]float64(nil), points[far]...)
				labels[far] = c
				sizes[c] = 1
				maxMove = math.Inf(1)
				continue
			}
			move := 0.0
			for d := range centroids[c] {
				nv := sums[c][d] / float64(sizes[c])
				diff := nv - centroids[c][d]
				move += diff * diff
				centroids[c][d] = nv
			}
			if move > maxMove {
				maxMove = move
			}
		}
		if !changed || maxMove <= 0 {
			break
		}
	}

	res := &KMeansResult{
		K:          cfg.K,
		Centroids:  centroids,
		Labels:     labels,
		Iterations: iter,
		Sizes:      make([]int, cfg.K),
	}
	for i := range points {
		res.Sizes[labels[i]]++
		res.SSE += refSqDist(points[i], centroids[labels[i]])
	}
	return res, nil
}

func refSqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// DBSCANReference is the pre-refactor DBSCAN: the same density
// reachability over the same eps-grid, but with string cell keys and a
// fresh allocation per neighbourhood probe.
func DBSCANReference(points [][]float64, eps float64, minPts int) (*DBSCANResult, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("cluster: dbscan on empty input")
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("cluster: eps must be positive and finite, got %v", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cluster: point %d holds a non-finite coordinate", i)
			}
		}
	}

	idx := newStringCellIndex(points, eps)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise - 1
	}
	const unvisited = Noise - 1

	eps2 := eps * eps
	clusterID := 0
	var queue []int
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		neigh := idx.neighbours(i, eps2)
		if len(neigh) < minPts {
			labels[i] = Noise
			continue
		}
		labels[i] = clusterID
		queue = append(queue[:0], neigh...)
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[j] == Noise {
				labels[j] = clusterID
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = clusterID
			jn := idx.neighbours(j, eps2)
			if len(jn) >= minPts {
				queue = append(queue, jn...)
			}
		}
		clusterID++
	}

	res := &DBSCANResult{Labels: labels, Clusters: clusterID}
	for _, l := range res.Labels {
		if l == Noise {
			res.NoiseCount++
		}
	}
	return res, nil
}

// stringCellIndex is the pre-refactor grid: cell keys are the "|"-joined
// decimal cell coordinates, allocated per probe.
type stringCellIndex struct {
	points [][]float64
	eps    float64
	cells  map[string][]int32
}

func newStringCellIndex(points [][]float64, eps float64) *stringCellIndex {
	ci := &stringCellIndex{
		points: points,
		eps:    eps,
		cells:  make(map[string][]int32),
	}
	for i, p := range points {
		k := ci.key(p)
		ci.cells[k] = append(ci.cells[k], int32(i))
	}
	return ci
}

func (ci *stringCellIndex) key(p []float64) string {
	buf := make([]byte, 0, len(p)*4)
	for _, v := range p {
		c := int64(math.Floor(v / ci.eps))
		buf = refAppendInt(buf, c)
		buf = append(buf, '|')
	}
	return string(buf)
}

func refAppendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = refAppendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

func (ci *stringCellIndex) neighbours(i int, eps2 float64) []int {
	p := ci.points[i]
	dim := len(p)
	base := make([]int64, dim)
	for d, v := range p {
		base[d] = int64(math.Floor(v / ci.eps))
	}
	offsets := make([]int64, dim)
	for d := range offsets {
		offsets[d] = -1
	}
	var out []int
	for {
		buf := make([]byte, 0, dim*4)
		for d := range base {
			buf = refAppendInt(buf, base[d]+offsets[d])
			buf = append(buf, '|')
		}
		for _, id := range ci.cells[string(buf)] {
			if refSqDist(p, ci.points[id]) <= eps2 {
				out = append(out, int(id))
			}
		}
		d := 0
		for ; d < dim; d++ {
			offsets[d]++
			if offsets[d] <= 1 {
				break
			}
			offsets[d] = -1
		}
		if d == dim {
			break
		}
	}
	return out
}

// KDistancesReference is the pre-refactor k-distance scan: every
// per-point distance slice is fully sorted just to read its k-th entry.
func KDistancesReference(points [][]float64, k int) ([]float64, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("cluster: k-distances on empty input")
	}
	if k < 1 || k >= n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1, %d)", k, n)
	}
	out := make([]float64, n)
	dists := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		dists = dists[:0]
		for j := range points {
			if i == j {
				continue
			}
			dists = append(dists, refSqDist(points[i], points[j]))
		}
		sort.Float64s(dists)
		out[i] = math.Sqrt(dists[k-1])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out, nil
}

// kernelPoints generates the E11 point sets — the root package's
// benchKernelPoints, seed for seed: `centers` Gaussian blobs of the given
// spread in [0,1]^dim.
func kernelPoints(n, dim, centers int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	mus := make([][]float64, centers)
	for c := range mus {
		mus[c] = make([]float64, dim)
		for d := range mus[c] {
			mus[c][d] = rng.Float64()
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		mu := mus[i%centers]
		p := make([]float64, dim)
		for d := range p {
			v := mu[d] + rng.NormFloat64()*spread
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			p[d] = v
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkE11KernelsReference holds the three /reference arms of E11:
// the pre-refactor algorithms over the points the root package's
// BenchmarkE11Kernels times the flat kernels on. Each pair is verified
// bitwise-identical before the reference is timed.
func BenchmarkE11KernelsReference(b *testing.B) {
	const (
		kmN, kmDim, kMin, kMax = 100_000, 5, 2, 8
		dbN, dbDim             = 100_000, 3
		dbEps                  = 0.02
		dbMinPts               = 8
		kdN, kdK               = 4000, 4
	)
	kmPts := kernelPoints(kmN, kmDim, 8, 0.06, 42)
	kmMat, err := matrix.FromRows(kmPts)
	if err != nil {
		b.Fatal(err)
	}
	kmCfg := KMeansConfig{Seed: 1}
	// Equivalence gate (one K): the optimized path must be bitwise what
	// the reference computes before its speed means anything.
	{
		c := kmCfg
		c.K = 4
		c.Seed = kmCfg.Seed + 4
		want, err := KMeansReference(kmPts, c)
		if err != nil {
			b.Fatal(err)
		}
		got, err := KMeansMatrix(kmMat, c)
		if err != nil {
			b.Fatal(err)
		}
		if got.SSE != want.SSE || got.Iterations != want.Iterations {
			b.Fatalf("kmeans equivalence: SSE/iters %v/%d vs reference %v/%d",
				got.SSE, got.Iterations, want.SSE, want.Iterations)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				b.Fatalf("kmeans equivalence: label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
			}
		}
	}
	b.Run("kmeans-elbow/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := kMin; k <= kMax; k++ {
				c := kmCfg
				c.K = k
				c.Seed = kmCfg.Seed + int64(k) // restarts=1: r=0 term vanishes
				if _, err := KMeansReference(kmPts, c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	dbPts := kernelPoints(dbN, dbDim, 40, 0.05, 7)
	dbMat, err := matrix.FromRows(dbPts)
	if err != nil {
		b.Fatal(err)
	}
	{
		want, err := DBSCANReference(dbPts, dbEps, dbMinPts)
		if err != nil {
			b.Fatal(err)
		}
		got, err := DBSCANMatrix(dbMat, dbEps, dbMinPts)
		if err != nil {
			b.Fatal(err)
		}
		if got.Clusters != want.Clusters || got.NoiseCount != want.NoiseCount {
			b.Fatalf("dbscan equivalence: %d/%d vs reference %d/%d",
				got.Clusters, got.NoiseCount, want.Clusters, want.NoiseCount)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				b.Fatalf("dbscan equivalence: label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
			}
		}
	}
	b.Run("dbscan-100k/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DBSCANReference(dbPts, dbEps, dbMinPts); err != nil {
				b.Fatal(err)
			}
		}
	})

	kdPts := kernelPoints(kdN, 3, 8, 0.08, 9)
	kdMat, err := matrix.FromRows(kdPts)
	if err != nil {
		b.Fatal(err)
	}
	{
		want, err := KDistancesReference(kdPts, kdK)
		if err != nil {
			b.Fatal(err)
		}
		got, err := KDistancesMatrix(kdMat, kdK, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				b.Fatalf("kdistances equivalence: [%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
	b.Run("kdistances-4k/reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := KDistancesReference(kdPts, kdK); err != nil {
				b.Fatal(err)
			}
		}
	})
}
