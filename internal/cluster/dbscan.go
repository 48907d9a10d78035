package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"indice/internal/matrix"
	"indice/internal/parallel"
)

// Noise is the DBSCAN label for points in no cluster (the multivariate
// outliers INDICE removes).
const Noise = -1

// DBSCANResult is the outcome of a DBSCAN run.
type DBSCANResult struct {
	// Labels assigns each point a cluster id starting at 0, or Noise.
	Labels []int
	// Clusters is the number of clusters found.
	Clusters int
	// NoiseCount is the number of noise points.
	NoiseCount int
}

// DBSCANMatrix clusters the rows of m with density reachability under the
// Euclidean metric: a core point has at least minPts neighbours (itself
// included) within eps; clusters are the transitive closure of core-point
// neighbourhoods; everything else is noise.
func DBSCANMatrix(m *matrix.Matrix, eps float64, minPts int) (*DBSCANResult, error) {
	return DBSCANMatrixParallel(m, eps, minPts, 1)
}

// DBSCANMatrixParallel is DBSCAN over a flat matrix with the region
// queries fanned out across parallelism workers: every point's
// eps-neighbourhood is computed up front (each query is independent and
// deterministic), then the label propagation runs sequentially over the
// precomputed lists. The labelling is therefore bitwise-identical to the
// sequential algorithm at any parallelism; the precompute trades
// O(Σ|neighbourhood|) memory for the speedup and is skipped at
// parallelism <= 1.
//
// The implementation grids the space with cell size eps so neighbourhood
// queries touch only adjacent cells, giving near-linear behaviour on the
// EPC workloads instead of the quadratic all-pairs scan. Cell keys are
// packed 64-bit hashes of the integer cell coordinates (with exact-coord
// buckets resolving the rare collisions), and every query reuses the
// caller's scratch buffers — no string keys, no per-probe allocations.
func DBSCANMatrixParallel(m *matrix.Matrix, eps float64, minPts, parallelism int) (*DBSCANResult, error) {
	n := m.Rows()
	if n == 0 {
		return nil, errors.New("cluster: dbscan on empty input")
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("cluster: eps must be positive and finite, got %v", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	if i := m.Finite(); i >= 0 {
		return nil, fmt.Errorf("cluster: point %d holds a non-finite coordinate", i)
	}

	idx := newCellIndex(m, eps)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise - 1 // unvisited marker
	}
	const unvisited = Noise - 1

	eps2 := eps * eps
	var scratch neighbourScratch
	neighboursOf := func(i int) []int32 { return idx.neighbours(i, eps2, &scratch) }
	if parallel.Workers(parallelism) > 1 {
		all := make([][]int32, n)
		parallel.For(n, parallelism, func(start, end int) {
			var sc neighbourScratch
			for i := start; i < end; i++ {
				all[i] = append([]int32(nil), idx.neighbours(i, eps2, &sc)...)
			}
		})
		neighboursOf = func(i int) []int32 { return all[i] }
	}

	clusterID := 0
	var queue []int32
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		neigh := neighboursOf(i)
		if len(neigh) < minPts {
			labels[i] = Noise
			continue
		}
		// Grow a new cluster from this core point.
		labels[i] = clusterID
		queue = append(queue[:0], neigh...)
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[j] == Noise {
				labels[j] = clusterID // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = clusterID
			jn := neighboursOf(int(j))
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

// cellIndex grids d-dimensional points with cell size eps. Cells are
// addressed by a 64-bit hash of their integer coordinates; each hash
// bucket holds one entry per distinct cell (collisions are resolved by
// comparing the exact coordinates of a representative point), so a query
// sees exactly the points of the addressed cell, in insertion (= point
// index) order — the same candidate stream as the historical string-keyed
// grid, without any allocation.
type cellIndex struct {
	m      *matrix.Matrix
	eps    float64
	dim    int
	coords []int64 // n×dim packed per-point cell coordinates
	cells  map[uint64][]cellBucket
}

// cellBucket is the id list of one exact cell within a hash bucket. rep
// is the first point of the cell; its coords row disambiguates hash
// collisions.
type cellBucket struct {
	rep int32
	ids []int32
}

func newCellIndex(m *matrix.Matrix, eps float64) *cellIndex {
	n, dim := m.Rows(), m.Cols()
	ci := &cellIndex{
		m:      m,
		eps:    eps,
		dim:    dim,
		coords: make([]int64, n*dim),
		cells:  make(map[uint64][]cellBucket, n),
	}
	for i := 0; i < n; i++ {
		cs := ci.coords[i*dim : (i+1)*dim]
		for d, v := range m.Row(i) {
			cs[d] = int64(math.Floor(v / eps))
		}
		h := hashCoords(cs)
		bks := ci.cells[h]
		placed := false
		for b := range bks {
			if ci.sameCell(bks[b].rep, cs) {
				bks[b].ids = append(bks[b].ids, int32(i))
				placed = true
				break
			}
		}
		if !placed {
			bks = append(bks, cellBucket{rep: int32(i), ids: []int32{int32(i)}})
		}
		ci.cells[h] = bks
	}
	return ci
}

// sameCell reports whether point rep's cell coordinates equal cs.
func (ci *cellIndex) sameCell(rep int32, cs []int64) bool {
	ref := ci.coords[int(rep)*ci.dim : (int(rep)+1)*ci.dim]
	for d := range cs {
		if ref[d] != cs[d] {
			return false
		}
	}
	return true
}

// hashCoords mixes the packed cell coordinates into a 64-bit key
// (per-coordinate splitmix64 finalizer folded FNV-style).
func hashCoords(cs []int64) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range cs {
		x := uint64(c)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		h = (h ^ x) * 1099511628211
	}
	return h
}

// neighbourScratch holds the reusable buffers of a neighbours query. The
// zero value is ready to use; after a few queries the buffers reach
// steady state and neighbours performs zero allocations per call.
type neighbourScratch struct {
	out   []int32
	off   []int64
	probe []int64
}

// neighbours returns all points within sqrt(eps2) of point i, including
// i, in the same order as the historical string-keyed grid: adjacent
// cells enumerated by the offset odometer, point-index order within each
// cell. The returned slice aliases sc.out and is valid until the next
// call with the same scratch.
func (ci *cellIndex) neighbours(i int, eps2 float64, sc *neighbourScratch) []int32 {
	dim := ci.dim
	if cap(sc.off) < dim {
		sc.off = make([]int64, dim)
		sc.probe = make([]int64, dim)
	}
	off, probe := sc.off[:dim], sc.probe[:dim]
	for d := range off {
		off[d] = -1
	}
	x := ci.m.Row(i)
	base := ci.coords[i*dim : (i+1)*dim]
	out := sc.out[:0]
	// Enumerate the 3^dim adjacent cells. For the dimensionalities INDICE
	// uses (2-6 attributes) this stays small.
	for {
		for d := range base {
			probe[d] = base[d] + off[d]
		}
		for _, bk := range ci.cells[hashCoords(probe)] {
			if !ci.sameCell(bk.rep, probe) {
				continue
			}
			for _, id := range bk.ids {
				if matrix.SqDist(x, ci.m.Row(int(id))) <= eps2 {
					out = append(out, id)
				}
			}
		}
		// Advance the offset odometer.
		d := 0
		for ; d < dim; d++ {
			off[d]++
			if off[d] <= 1 {
				break
			}
			off[d] = -1
		}
		if d == dim {
			break
		}
	}
	sc.out = out
	return out
}

// KDistancesMatrix returns, for each row of m, the Euclidean distance to
// its k-th nearest neighbour (excluding itself), sorted descending: the
// k-distance plot used to choose DBSCAN's eps. It is O(n²) and intended
// for the sampled parameter-estimation pass, not the full clustering. The
// per-point scans fan out across parallelism workers. Each
// point's k-distance is independent, so the plot is identical at any
// parallelism. The k-th neighbour distance is read with a partial
// quickselect instead of fully sorting every per-point distance slice —
// the selected value is exactly the sorted slice's k-1 entry, so the
// plot is bitwise-identical to the sorting implementation.
func KDistancesMatrix(m *matrix.Matrix, k, parallelism int) ([]float64, error) {
	n := m.Rows()
	if n == 0 {
		return nil, errors.New("cluster: k-distances on empty input")
	}
	if k < 1 || k >= n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1, %d)", k, n)
	}
	out := make([]float64, n)
	parallel.For(n, parallelism, func(start, end int) {
		dists := make([]float64, 0, n-1)
		for i := start; i < end; i++ {
			dists = dists[:0]
			x := m.Row(i)
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				dists = append(dists, matrix.SqDist(x, m.Row(j)))
			}
			out[i] = math.Sqrt(quickselect(dists, k-1))
		}
	})
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out, nil
}

// quickselect returns the k-th smallest value (0-indexed) of xs,
// partially reordering it in place. Median-of-three pivoting keeps the
// recursion shallow on the sorted and reversed inputs the k-distance
// scans produce; small partitions finish by insertion sort.
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for hi-lo > 12 {
		// Median of three to the middle, then Hoare-style partition
		// around it.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return xs[k]
		}
	}
	// Insertion sort the remaining window.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[k]
}

// EstimateDBSCANParamsMatrix implements the heuristic the paper adopts
// from Di Corso et al. (METATECH): compute the k-distance plot for several
// minPts values, pick minPts where the curve stabilises (successive curves
// stop changing much), and eps as the elbow (maximum-curvature point) of
// the stable curve. m should be a representative sample; the method is
// quadratic in its rows, parallelized across parallelism workers.
func EstimateDBSCANParamsMatrix(m *matrix.Matrix, minPtsCandidates []int, parallelism int) (eps float64, minPts int, err error) {
	if len(minPtsCandidates) == 0 {
		minPtsCandidates = []int{3, 4, 5, 8, 10}
	}
	sort.Ints(minPtsCandidates)
	var curves [][]float64
	for _, k := range minPtsCandidates {
		if k >= m.Rows() {
			break
		}
		c, err := KDistancesMatrix(m, k, parallelism)
		if err != nil {
			return 0, 0, err
		}
		curves = append(curves, c)
	}
	if len(curves) == 0 {
		return 0, 0, errors.New("cluster: no usable minPts candidate")
	}
	// Stabilisation: first curve whose mean absolute delta from the
	// previous is below 10% of the previous curve's mean.
	chosen := len(curves) - 1
	for i := 1; i < len(curves); i++ {
		prev, cur := curves[i-1], curves[i]
		var delta, mean float64
		for j := range cur {
			delta += math.Abs(cur[j] - prev[j])
			mean += prev[j]
		}
		if mean > 0 && delta/mean < 0.10 {
			chosen = i
			break
		}
	}
	minPts = minPtsCandidates[chosen]
	curve := curves[chosen]
	// Elbow of the (descending) k-distance curve by maximum distance from
	// the chord, the standard geometric elbow criterion.
	eps = chordElbow(curve)
	if eps <= 0 {
		// Degenerate curve (all equal): any positive eps works.
		eps = curve[0]
		if eps <= 0 {
			eps = 1e-9
		}
	}
	return eps, minPts, nil
}

// chordElbow returns the curve value at the point with maximum distance
// from the straight line joining the curve's endpoints.
func chordElbow(curve []float64) float64 {
	n := len(curve)
	if n < 3 {
		return curve[n-1]
	}
	x1, y1 := 0.0, curve[0]
	x2, y2 := float64(n-1), curve[n-1]
	den := math.Hypot(y2-y1, x2-x1)
	if den == 0 {
		return curve[n/2]
	}
	bestI, bestD := 0, -1.0
	for i := range curve {
		d := math.Abs((y2-y1)*float64(i)-(x2-x1)*curve[i]+x2*y1-y2*x1) / den
		if d > bestD {
			bestD = d
			bestI = i
		}
	}
	return curve[bestI]
}
