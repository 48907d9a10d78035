package cluster

import (
	"errors"
	"fmt"
	"math"
)

// Agglomerative hierarchical clustering, added under the paper's
// future-work plan ("integrate in INDICE other analytics techniques").
// The implementation uses the Lance-Williams update over an explicit
// distance matrix, so it is O(n²) memory and O(n² log n)-ish time —
// suitable for the sampled benchmarking analyses of the energy-scientist
// profile, not for the full 25k collection.

// Linkage selects the inter-cluster distance definition.
type Linkage int

const (
	// SingleLinkage merges on the minimum pairwise distance.
	SingleLinkage Linkage = iota
	// CompleteLinkage merges on the maximum pairwise distance.
	CompleteLinkage
	// AverageLinkage merges on the unweighted average distance (UPGMA).
	AverageLinkage
)

// String implements fmt.Stringer.
func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case AverageLinkage:
		return "average"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step: clusters A and B (ids) merge into
// a new cluster at the given height (inter-cluster distance).
type Merge struct {
	A, B   int
	Height float64
	// Into is the id of the resulting cluster (n + step index).
	Into int
}

// Dendrogram is the full merge history of a hierarchical clustering run.
// Leaves are clusters 0..n-1; merge i creates cluster n+i.
type Dendrogram struct {
	N       int
	Linkage Linkage
	Merges  []Merge
}

// Hierarchical builds the dendrogram of the points under the Euclidean
// metric with the chosen linkage.
func Hierarchical(points [][]float64, linkage Linkage) (*Dendrogram, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("cluster: hierarchical on empty input")
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
	switch linkage {
	case SingleLinkage, CompleteLinkage, AverageLinkage:
	default:
		return nil, fmt.Errorf("cluster: unknown linkage %v", linkage)
	}

	// Active cluster bookkeeping: dist is a symmetric matrix over current
	// cluster slots; size and id track the Lance-Williams update and the
	// dendrogram numbering.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := Dist(points[i], points[j])
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	id := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
		id[i] = i
	}

	dg := &Dendrogram{N: n, Linkage: linkage}
	for step := 0; step < n-1; step++ {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if dist[i][j] < best {
					best = dist[i][j]
					bi, bj = i, j
				}
			}
		}
		if bi < 0 {
			break
		}
		newID := n + step
		dg.Merges = append(dg.Merges, Merge{A: id[bi], B: id[bj], Height: best, Into: newID})
		// Lance-Williams update into slot bi; slot bj dies.
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			var d float64
			switch linkage {
			case SingleLinkage:
				d = math.Min(dist[bi][k], dist[bj][k])
			case CompleteLinkage:
				d = math.Max(dist[bi][k], dist[bj][k])
			case AverageLinkage:
				ni, nj := float64(size[bi]), float64(size[bj])
				d = (ni*dist[bi][k] + nj*dist[bj][k]) / (ni + nj)
			}
			dist[bi][k] = d
			dist[k][bi] = d
		}
		size[bi] += size[bj]
		id[bi] = newID
		active[bj] = false
	}
	return dg, nil
}

// Cut assigns each point to one of k clusters by undoing the last k-1
// merges. Labels are renumbered 0..k-1 in order of first appearance.
func (dg *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > dg.N {
		return nil, fmt.Errorf("cluster: cut k=%d out of range [1, %d]", k, dg.N)
	}
	// Union-find over leaves, applying the first n-k merges.
	parent := make([]int, dg.N+len(dg.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	apply := dg.N - k
	if apply > len(dg.Merges) {
		apply = len(dg.Merges)
	}
	for i := 0; i < apply; i++ {
		m := dg.Merges[i]
		ra, rb := find(m.A), find(m.B)
		parent[ra] = m.Into
		parent[rb] = m.Into
	}
	labels := make([]int, dg.N)
	remap := make(map[int]int)
	for i := 0; i < dg.N; i++ {
		root := find(i)
		l, ok := remap[root]
		if !ok {
			l = len(remap)
			remap[root] = l
		}
		labels[i] = l
	}
	if len(remap) != k {
		return nil, fmt.Errorf("cluster: cut produced %d clusters, want %d", len(remap), k)
	}
	return labels, nil
}
