// Package cluster implements the unsupervised-learning substrate of the
// INDICE analytics engine: Lloyd's K-means with SSE-based elbow selection
// of K (as the paper prescribes, following Tan et al.), the DBSCAN
// density-based algorithm used for multivariate outlier detection, and the
// silhouette quality index.
//
// Since the flat-matrix PR the compute core operates on
// matrix.Matrix (dense row-major, one allocation) instead of
// [][]float64 rows: the *Matrix entry points are the primary API and the
// historical [][]float64 functions are thin adapters that copy into a
// flat matrix once. K-means additionally maintains Hamerly-style
// upper/lower distance bounds so converged points skip the
// point-centroid distance scan entirely; the bounds are kept
// conservative (inflated/deflated by a slack far above the worst-case
// rounding noise) and every undecided point falls back to the exact
// reference arithmetic, so labels, centroids, SSE and iteration counts
// are bitwise-identical to the retained pre-refactor reference
// (KMeansReference, in reference_test.go) at any parallelism.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"indice/internal/matrix"
	"indice/internal/parallel"
)

// KMeansConfig parameterizes a K-means run.
type KMeansConfig struct {
	// K is the number of clusters.
	K int
	// MaxIterations bounds the Lloyd iterations (default 100).
	MaxIterations int
	// Seed drives centroid initialization: K distinct points picked
	// uniformly, the paper's variant.
	Seed int64
	// WarmStart, when non-empty, supplies the K initial centroids as one
	// flat row-major []float64 of length K×dim, skipping random seeding
	// entirely (Seed is then ignored). Incremental refreshes
	// use it to resume Lloyd's iteration from the previous epoch's
	// converged centroids: on slowly drifting data the run converges in a
	// handful of iterations instead of re-descending from scratch, and a
	// warm start at an exact fixed point reproduces it bitwise in one
	// iteration.
	WarmStart []float64
	// Parallelism bounds the worker goroutines of the assignment step
	// (and, in SSECurve, of the sweep jobs). 0 or 1 run sequentially;
	// parallel.Auto uses every CPU. Results are bitwise-identical at any
	// setting: labels are per-point deterministic and every floating-point
	// reduction folds in point-index order.
	Parallelism int
}

// KMeansResult is the outcome of a K-means run.
type KMeansResult struct {
	K          int
	Centroids  [][]float64
	Labels     []int
	SSE        float64
	Iterations int
	// Sizes[c] is the population of cluster c.
	Sizes []int
}

// boundSlack is the relative margin applied to every stored distance
// bound: upper bounds are inflated and lower bounds deflated by it on
// each update. It sits orders of magnitude above the worst-case rounding
// noise of the underlying float64 arithmetic (≈1e-14 relative for the
// dimensionalities INDICE uses), so a bound comparison that prunes is
// always sound and any genuinely ambiguous point falls through to the
// exact per-centroid scan.
const boundSlack = 1e-12

func boundUp(x float64) float64 { return x * (1 + boundSlack) }

func boundDown(x float64) float64 {
	x *= 1 - boundSlack
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	return x
}

// KMeansMatrix is K-means over a flat matrix of points (one row per
// point). Lloyd's iteration is accelerated two ways without changing a
// single output bit relative to KMeansReference:
//
//   - Hamerly-style bounds: each point carries a conservative upper bound
//     on its distance to its assigned centroid and a lower bound on its
//     distance to every other centroid. After the centroid update the
//     bounds shift by the centroid movements; while upper < lower the
//     point provably keeps its label and the whole distance scan is
//     skipped.
//   - expanded-distance screening: when a point does need a scan, the
//     |x|²+|c|²−2x·c kernel (precomputed norms, contiguous centroid
//     rows) ranks the centroids, and only candidates within the kernel's
//     error bound of the minimum are confirmed with the exact reference
//     loop — which also supplies the exact tie-break ordering.
func KMeansMatrix(m *matrix.Matrix, cfg KMeansConfig) (*KMeansResult, error) {
	if err := checkPoints(m); err != nil {
		return nil, err
	}
	return kmeansRun(m, m.RowNorms(nil), cfg)
}

// checkPoints is the part of K-means' input validation that depends on
// the points alone; a sweep pays it once for all its runs.
func checkPoints(m *matrix.Matrix) error {
	if m.Rows() == 0 {
		return errors.New("cluster: kmeans on empty input")
	}
	if i := m.Finite(); i >= 0 {
		return fmt.Errorf("cluster: point %d holds a non-finite coordinate", i)
	}
	return nil
}

// kmeansRun is KMeansMatrix over points checkPoints has passed, with
// xn = m.RowNorms, which it only reads.
func kmeansRun(m *matrix.Matrix, xn []float64, cfg KMeansConfig) (*KMeansResult, error) {
	n, dim := m.Rows(), m.Cols()
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("cluster: K=%d out of range [1, %d]", cfg.K, n)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	cents, err := matrix.New(cfg.K, dim)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if len(cfg.WarmStart) > 0 {
		if len(cfg.WarmStart) != cfg.K*dim {
			return nil, fmt.Errorf("cluster: warm start carries %d values, want K×dim = %d×%d",
				len(cfg.WarmStart), cfg.K, dim)
		}
		for i, v := range cfg.WarmStart {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cluster: warm-start value %d is not finite", i)
			}
		}
		copy(cents.Data(), cfg.WarmStart)
	} else {
		perm := rand.New(rand.NewSource(cfg.Seed)).Perm(n)
		for c := 0; c < cfg.K; c++ {
			cents.CopyRow(c, m.Row(perm[c]))
		}
	}

	labels := make([]int, n)
	sizes := make([]int, cfg.K)
	sums := make([]float64, cfg.K*dim)

	// Bound state: xn/cn are the squared row norms feeding the expanded
	// kernel; upper/lower are the per-point Hamerly bounds (Euclidean,
	// not squared). upper=+Inf forces a full scan, so iteration 1
	// assigns every point exactly as the reference does.
	var cn []float64
	upper := make([]float64, n)
	lower := make([]float64, n)
	for i := range upper {
		upper[i] = math.Inf(1)
	}
	deltas := make([]float64, cfg.K)
	// The two largest centroid movements of the last update and the mover's
	// index: a point's lower bound only decays by movements of non-assigned
	// centroids, so points of the biggest mover decay by the runner-up.
	// shift says the bounds have not been moved across that update yet: the
	// next assignment pass does it, point by point, before it reads them.
	var maxDelta, maxDelta2 float64
	var maxDeltaC int
	shift := false
	// sHalf[c] is a safe lower bound on half the distance from centroid c
	// to its nearest other centroid: a point whose upper bound is below it
	// is provably nearest to c (triangle inequality), independently of how
	// far its lower bound has decayed. Recomputed per iteration, O(K²·dim).
	sHalf := make([]float64, cfg.K)
	// nearestCentroid's scratch: K entries per chunk of the assignment
	// pass, a cache line apart so that no two workers write to one.
	const cacheLine = 64
	chunk := parallel.ChunkSize(n, cfg.Parallelism)
	chunks := (n + chunk - 1) / chunk
	dStride, eStride := cfg.K+cacheLine/8, cfg.K+cacheLine
	dbufs := make([]float64, chunks*dStride)
	exacts := make([]bool, chunks*eStride)

	// Assignment step: each point's nearest centroid is independent of
	// every other point, so chunks of the row range fan out across the
	// workers. Ties resolve to the lowest centroid index either way.
	var changed atomic.Bool
	assign := func(start, end int) {
		chunkChanged := false
		c := start / chunk
		dbuf, exact := dbufs[c*dStride:][:cfg.K], exacts[c*eStride:][:cfg.K]
		for i := start; i < end; i++ {
			if shift {
				// Shift the bounds across the last update's centroid
				// movements.
				a := labels[i]
				upper[i] = boundUp(upper[i] + deltas[a])
				if a == maxDeltaC {
					lower[i] = boundDown(lower[i] - maxDelta2)
				} else {
					lower[i] = boundDown(lower[i] - maxDelta)
				}
			}
			if u, a := upper[i], labels[i]; u < lower[i] || u < sHalf[a] {
				continue // provably still nearest to labels[i]
			}
			x := m.Row(i)
			// Tighten the upper bound with one exact distance before
			// paying for the full scan.
			u := boundUp(math.Sqrt(matrix.SqDist(x, cents.Row(labels[i]))))
			upper[i] = u
			if u < lower[i] || u < sHalf[labels[i]] {
				continue
			}
			best, bestD, secondLB := nearestCentroid(x, xn[i], cents, cn, dbuf, exact)
			if labels[i] != best {
				chunkChanged = true
			}
			labels[i] = best
			upper[i] = boundUp(math.Sqrt(bestD))
			lower[i] = secondLB
		}
		if chunkChanged {
			changed.Store(true)
		}
	}

	var iter int
	for iter = 1; iter <= cfg.MaxIterations; iter++ {
		cn = cents.RowNorms(cn)
		for c := 0; c < cfg.K; c++ {
			nearest := math.Inf(1)
			for c2 := 0; c2 < cfg.K; c2++ {
				if c2 == c {
					continue
				}
				if d := matrix.SqDist(cents.Row(c), cents.Row(c2)); d < nearest {
					nearest = d
				}
			}
			sHalf[c] = boundDown(0.5 * math.Sqrt(nearest))
		}
		changed.Store(iter == 1)
		parallel.For(n, cfg.Parallelism, assign)

		// Update step: sums fold in point-index order, exactly the
		// reference arithmetic.
		for c := range sizes {
			sizes[c] = 0
		}
		for j := range sums {
			sums[j] = 0
		}
		for i := 0; i < n; i++ {
			c := labels[i]
			sizes[c]++
			acc := sums[c*dim : (c+1)*dim]
			for d, v := range m.Row(i) {
				acc[d] += v
			}
		}
		maxMove := 0.0
		maxDelta, maxDelta2, maxDeltaC = 0, 0, -1
		reseeded := false
		for c := 0; c < cfg.K; c++ {
			if sizes[c] == 0 {
				// Re-seed an empty cluster with the globally worst-fitted
				// point.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					if d := matrix.SqDist(m.Row(i), cents.Row(labels[i])); d > farD {
						far, farD = i, d
					}
				}
				cents.CopyRow(c, m.Row(far))
				labels[far] = c
				sizes[c] = 1
				maxMove = math.Inf(1)
				reseeded = true
				continue
			}
			move := 0.0
			crow := cents.Row(c)
			for d := 0; d < dim; d++ {
				nv := sums[c*dim+d] / float64(sizes[c])
				diff := nv - crow[d]
				move += diff * diff
				crow[d] = nv
			}
			if move > maxMove {
				maxMove = move
			}
			deltas[c] = math.Sqrt(move)
			if deltas[c] > maxDelta {
				maxDelta2 = maxDelta
				maxDelta, maxDeltaC = deltas[c], c
			} else if deltas[c] > maxDelta2 {
				maxDelta2 = deltas[c]
			}
		}
		// Lloyd's iteration runs to exact convergence.
		if !changed.Load() || maxMove == 0 {
			break
		}
		// A re-seed teleports a centroid: no shift covers that, so the
		// bounds reset wholesale (rare) and there is nothing left to shift.
		shift = !reseeded
		if reseeded {
			for i := range upper {
				upper[i] = math.Inf(1)
				lower[i] = 0
			}
		}
	}

	// Final stats. Distances fan out per point; the SSE folds sequentially
	// in point-index order so the sum is bitwise-stable across worker
	// counts.
	res := &KMeansResult{
		K:          cfg.K,
		Centroids:  make([][]float64, cfg.K),
		Labels:     labels,
		Iterations: iter,
		Sizes:      make([]int, cfg.K),
	}
	for c := 0; c < cfg.K; c++ {
		res.Centroids[c] = append([]float64(nil), cents.Row(c)...)
	}
	dists := make([]float64, n)
	parallel.For(n, cfg.Parallelism, func(start, end int) {
		for i := start; i < end; i++ {
			dists[i] = matrix.SqDist(m.Row(i), cents.Row(labels[i]))
		}
	})
	for i := 0; i < n; i++ {
		res.Sizes[labels[i]]++
		res.SSE += dists[i]
	}
	return res, nil
}

// nearestCentroid returns the point's exact nearest centroid (lowest
// index on ties, exactly as a sequential strict-< scan of exact
// distances), the exact squared distance to it, and a safe lower bound on
// the Euclidean distance to the second-closest centroid.
//
// The expanded kernel ranks all centroids in one pass over the contiguous
// centroid matrix; every centroid within the kernel's error bound of the
// approximate minimum is then confirmed with the exact loop, so the
// winner and its distance carry reference arithmetic. dbuf and exact are
// caller-owned scratch of length K.
func nearestCentroid(x []float64, xn float64, cents *matrix.Matrix, cn, dbuf []float64, exact []bool) (best int, bestD, secondLB float64) {
	k := cents.Rows()
	matrix.SqDistsTo(dbuf, x, xn, cents, cn)
	approxV := math.Inf(1)
	cnMax := 0.0
	for j := 0; j < k; j++ {
		if dbuf[j] < approxV {
			approxV = dbuf[j]
		}
		if cn[j] > cnMax {
			cnMax = cn[j]
		}
	}
	eMax := matrix.SqDistErrorBound(cents.Cols(), xn, cnMax)
	thresh := approxV + 2*eMax

	best, bestD = 0, math.Inf(1)
	for j := 0; j < k; j++ {
		if dbuf[j] > thresh {
			exact[j] = false
			continue
		}
		d := matrix.SqDist(x, cents.Row(j))
		dbuf[j] = d
		exact[j] = true
		if d < bestD {
			best, bestD = j, d
		}
	}

	// Lower bound on the squared distance to any non-best centroid:
	// exact entries are exact, screened-out entries get the error bound
	// subtracted.
	slb := math.Inf(1)
	for j := 0; j < k; j++ {
		if j == best {
			continue
		}
		v := dbuf[j]
		if !exact[j] {
			v -= eMax
		}
		if v < slb {
			slb = v
		}
	}
	if slb < 0 {
		slb = 0
	}
	secondLB = boundDown(math.Sqrt(slb))
	return best, bestD, secondLB
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b []float64) float64 {
	return math.Sqrt(matrix.SqDist(a, b))
}

// SSECurvePoint pairs a K value with the SSE of the best run at that K.
type SSECurvePoint struct {
	K   int
	SSE float64
}

// SSECurve runs K-means for every K in [kMin, kMax] and returns the SSE
// trend the elbow method inspects. Thin adapter over SSECurveMatrix.
func SSECurve(points [][]float64, kMin, kMax, restarts int, cfg KMeansConfig) ([]SSECurvePoint, error) {
	m, err := matrix.FromRows(points)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return SSECurveMatrix(m, kMin, kMax, restarts, cfg)
}

// SSECurveMatrix is the SSE trend of ElbowSweep.
func SSECurveMatrix(m *matrix.Matrix, kMin, kMax, restarts int, cfg KMeansConfig) ([]SSECurvePoint, error) {
	sw, err := ElbowSweep(m, kMin, kMax, restarts, cfg)
	if err != nil {
		return nil, err
	}
	return sw.Curve, nil
}

// Sweep is the outcome of ElbowSweep: the SSE curve the elbow method
// inspects and the SSE of every K-means run behind it. The runs
// themselves are not kept: a run is a pure function of the points, K and
// its seed (RestartSeed), so KMeansMatrix re-fits any of them bitwise.
type Sweep struct {
	Curve          []SSECurvePoint
	kMin, restarts int
	sse            []float64 // run (k, r)'s SSE at (k-kMin)*restarts + r
}

// SSEs returns the SSE of the sweep's runs at k in restart order.
func (s *Sweep) SSEs(k int) []float64 {
	at := (k - s.kMin) * s.restarts
	return s.sse[at : at+s.restarts]
}

// RestartSeed is the seed ElbowSweep gives restart r at K when seeded
// with seed.
func RestartSeed(seed int64, r, k int) int64 { return seed + int64(r)*7919 + int64(k) }

// ElbowSweep runs K-means for every K in [kMin, kMax] over the flat point
// matrix, restarts times (≥1) each with distinct seeds, and keeps the
// lowest SSE per K. With cfg.Parallelism > 1 the (K, restart) runs are
// independent jobs sharing the read-only matrix and its row norms; a run
// costs roughly in proportion to K, so they are issued longest first
// (descending K) and whichever worker is free takes the next. A job keeps
// its run's SSE and drops the run. Each job is seeded exactly as the
// sequential sweep and the per-K minimum folds in restart order, so the
// outcome is bitwise-identical at any parallelism.
func ElbowSweep(m *matrix.Matrix, kMin, kMax, restarts int, cfg KMeansConfig) (*Sweep, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("cluster: bad K range [%d, %d]", kMin, kMax)
	}
	if restarts < 1 {
		restarts = 1
	}
	if err := checkPoints(m); err != nil {
		return nil, err
	}
	xn := m.RowNorms(nil)
	nk := kMax - kMin + 1
	sw := &Sweep{kMin: kMin, restarts: restarts, sse: make([]float64, nk*restarts)}
	errs := make([]error, len(sw.sse))
	parallel.ForEach(len(sw.sse), cfg.Parallelism, func(issued int) {
		j := len(sw.sse) - 1 - issued
		k := kMin + j/restarts
		c := cfg
		c.K = k
		c.Seed = RestartSeed(cfg.Seed, j%restarts, k)
		c.Parallelism = 1 // the sweep parallelizes across jobs, not within
		fit, err := kmeansRun(m, xn, c)
		if err != nil {
			errs[j] = err
			return
		}
		sw.sse[j] = fit.SSE
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k := kMin; k <= kMax; k++ {
		best := math.Inf(1)
		for _, sse := range sw.SSEs(k) {
			if sse < best {
				best = sse
			}
		}
		sw.Curve = append(sw.Curve, SSECurvePoint{K: k, SSE: best})
	}
	return sw, nil
}

// ElbowK picks the K "where the marginal decrease in the SSE curve is
// maximized" (Tan et al., as cited by the paper). With both axes
// normalized to [0,1], the elbow is the curve point farthest from the
// chord joining the curve's endpoints — the geometric reading of the
// criterion that is robust to the very large SSE drop at small K. Curves
// with fewer than three points return the smallest K.
func ElbowK(curve []SSECurvePoint) (int, error) {
	if len(curve) == 0 {
		return 0, errors.New("cluster: empty SSE curve")
	}
	if len(curve) < 3 {
		return curve[0].K, nil
	}
	n := len(curve)
	minSSE, maxSSE := curve[0].SSE, curve[0].SSE
	for _, p := range curve {
		if p.SSE < minSSE {
			minSSE = p.SSE
		}
		if p.SSE > maxSSE {
			maxSSE = p.SSE
		}
	}
	span := maxSSE - minSSE
	if span == 0 {
		return curve[0].K, nil
	}
	// Normalized coordinates: x in [0,1] over index, y in [0,1] over SSE.
	// Chord runs from the first to the last point.
	x1, y1 := 0.0, (curve[0].SSE-minSSE)/span
	x2, y2 := 1.0, (curve[n-1].SSE-minSSE)/span
	den := math.Hypot(y2-y1, x2-x1)
	bestK := curve[0].K
	bestD := math.Inf(-1)
	for i, p := range curve {
		x := float64(i) / float64(n-1)
		y := (p.SSE - minSSE) / span
		d := math.Abs((y2-y1)*x-(x2-x1)*y+x2*y1-y2*x1) / den
		if d > bestD {
			bestD = d
			bestK = p.K
		}
	}
	return bestK, nil
}
