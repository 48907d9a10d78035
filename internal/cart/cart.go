// Package cart implements the CART regression tree INDICE uses to
// discretize continuous EPC attributes before association-rule mining
// (§2.2.2, following Di Corso et al.): a univariate tree is grown for each
// attribute with the annual primary energy demand normalized on floor area
// as the response, and the tree's split points become the bin edges.
package cart

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Config bounds tree growth.
type Config struct {
	// MaxDepth limits tree depth (default 3, yielding at most 8 leaves /
	// 7 candidate split points — the footnote-4 discretizations use 3-4
	// classes).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 30).
	MinLeaf int
	// MinImprove is the minimum relative SSE improvement for a split to
	// be accepted (default 1e-3).
	MinImprove float64
}

// Node is one node of a univariate regression tree.
type Node struct {
	// Split is the threshold: samples with x < Split go left. Leaves have
	// Left == Right == nil.
	Split       float64
	Left, Right *Node
	// Mean is the response mean of the samples reaching the node.
	Mean float64
	// N is the number of samples reaching the node.
	N int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a fitted univariate regression tree.
type Tree struct {
	Root *Node
	cfg  Config
}

// Fit grows a regression tree predicting ys from the single feature xs by
// recursive binary splitting on the variance-reduction criterion. Pairs
// with non-finite values are dropped.
func Fit(xs, ys []float64, cfg Config) (*Tree, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("cart: feature/response length mismatch")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 3
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 30
	}
	if cfg.MinImprove <= 0 {
		cfg.MinImprove = 1e-3
	}
	type pair struct{ x, y float64 }
	data := make([]pair, 0, len(xs))
	for i := range xs {
		if finite(xs[i]) && finite(ys[i]) {
			data = append(data, pair{xs[i], ys[i]})
		}
	}
	if len(data) < 2*cfg.MinLeaf {
		return nil, fmt.Errorf("cart: %d complete pairs, need at least %d", len(data), 2*cfg.MinLeaf)
	}
	sort.Slice(data, func(i, j int) bool { return data[i].x < data[j].x })
	sx := make([]float64, len(data))
	sy := make([]float64, len(data))
	for i, p := range data {
		sx[i] = p.x
		sy[i] = p.y
	}
	t := &Tree{cfg: cfg}
	t.Root = t.grow(sx, sy, 1)
	return t, nil
}

// grow recursively builds a subtree over the sorted-by-x slices.
func (t *Tree) grow(xs, ys []float64, depth int) *Node {
	n := len(xs)
	mean, sse := meanSSE(ys)
	node := &Node{Mean: mean, N: n}
	if depth > t.cfg.MaxDepth || n < 2*t.cfg.MinLeaf || sse == 0 {
		return node
	}
	// Best split by scanning prefix sums.
	var (
		bestIdx  = -1
		bestGain = 0.0
		sumL     = 0.0
		sqL      = 0.0
	)
	totalSum, totalSq := 0.0, 0.0
	for _, y := range ys {
		totalSum += y
		totalSq += y * y
	}
	for i := 0; i < n-1; i++ {
		sumL += ys[i]
		sqL += ys[i] * ys[i]
		// Candidate boundary only between distinct x values.
		if xs[i] == xs[i+1] {
			continue
		}
		nl := i + 1
		nr := n - nl
		if nl < t.cfg.MinLeaf || nr < t.cfg.MinLeaf {
			continue
		}
		sseL := sqL - sumL*sumL/float64(nl)
		sumR := totalSum - sumL
		sseR := (totalSq - sqL) - sumR*sumR/float64(nr)
		gain := sse - (sseL + sseR)
		if gain > bestGain {
			bestGain = gain
			bestIdx = i
		}
	}
	if bestIdx < 0 || bestGain < t.cfg.MinImprove*sse {
		return node
	}
	node.Split = (xs[bestIdx] + xs[bestIdx+1]) / 2
	node.Left = t.grow(xs[:bestIdx+1], ys[:bestIdx+1], depth+1)
	node.Right = t.grow(xs[bestIdx+1:], ys[bestIdx+1:], depth+1)
	return node
}

func meanSSE(ys []float64) (mean, sse float64) {
	n := float64(len(ys))
	if n == 0 {
		return 0, 0
	}
	var sum, sq float64
	for _, y := range ys {
		sum += y
		sq += y * y
	}
	mean = sum / n
	sse = sq - sum*sum/n
	if sse < 0 {
		sse = 0
	}
	return mean, sse
}

// SplitPoints returns the tree's thresholds in ascending order — the bin
// edges of the discretization.
func (t *Tree) SplitPoints() []float64 {
	var out []float64
	var walk func(*Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		walk(n.Left)
		out = append(out, n.Split)
		walk(n.Right)
	}
	walk(t.Root)
	sort.Float64s(out)
	return out
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
