package render

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"indice/internal/cluster"
)

// DendrogramChart appends an agglomerative-clustering dendrogram to dst: leaves
// along the bottom, merge heights on the vertical axis. Supports the
// hierarchical-clustering extension of the energy-scientist profile; for
// readability the caller should pass a sampled dendrogram (≲ 100 leaves).
func DendrogramChart(dst []byte, title string, dg *cluster.Dendrogram, w, h int) ([]byte, error) {
	if dg == nil || dg.N == 0 {
		return dst, errors.New("render: empty dendrogram")
	}
	if dg.N > 512 {
		return dst, fmt.Errorf("render: dendrogram with %d leaves is unreadable; sample first", dg.N)
	}
	c := NewCanvas(dst, w, h)
	c.Rect(0, 0, float64(w), float64(h), "#ffffff", "#cccccc", 1)
	const (
		left   = 40.0
		right  = 14.0
		top    = 30.0
		bottom = 24.0
	)
	plotW := float64(w) - left - right
	plotH := float64(h) - top - bottom

	// Leaf ordering: walk the merge tree so subtrees stay contiguous.
	children := make(map[int][2]int, len(dg.Merges))
	for _, m := range dg.Merges {
		children[m.Into] = [2]int{m.A, m.B}
	}
	var order []int
	var walk func(node int)
	walk = func(node int) {
		ch, ok := children[node]
		if !ok {
			order = append(order, node)
			return
		}
		walk(ch[0])
		walk(ch[1])
	}
	if len(dg.Merges) > 0 {
		walk(dg.Merges[len(dg.Merges)-1].Into)
	} else {
		order = []int{0}
	}
	// Any leaves disconnected from the root (shouldn't happen with a full
	// dendrogram) are appended for safety.
	seen := make(map[int]bool, len(order))
	for _, l := range order {
		seen[l] = true
	}
	for i := 0; i < dg.N; i++ {
		if !seen[i] {
			order = append(order, i)
		}
	}

	maxH := 1e-12
	for _, m := range dg.Merges {
		if m.Height > maxH {
			maxH = m.Height
		}
	}
	// Pixel positions: x per cluster id, y per height.
	xAt := make(map[int]float64, dg.N+len(dg.Merges))
	yAt := make(map[int]float64, dg.N+len(dg.Merges))
	for i, leaf := range order {
		x := left + plotW*(float64(i)+0.5)/float64(len(order))
		xAt[leaf] = x
		yAt[leaf] = top + plotH
	}
	py := func(height float64) float64 {
		return top + plotH*(1-height/maxH)
	}
	for _, m := range dg.Merges {
		xa, xb := xAt[m.A], xAt[m.B]
		ya, yb := yAt[m.A], yAt[m.B]
		y := py(m.Height)
		// Classic dendrogram bracket: two risers and a crossbar.
		c.Line(xa, ya, xa, y, "#4878a8", 1.2)
		c.Line(xb, yb, xb, y, "#4878a8", 1.2)
		c.Line(xa, y, xb, y, "#4878a8", 1.2)
		xAt[m.Into] = (xa + xb) / 2
		yAt[m.Into] = y
	}
	// Axis with the max height label.
	c.Line(left, top, left, top+plotH, "#333333", 1)
	c.Text(left-4, top+10, trimNum(maxH), 9, "#333333", AnchorEnd)
	c.Text(left-4, top+plotH, "0", 9, "#333333", AnchorEnd)
	// Leaf ticks (indices) when few enough to read.
	if len(order) <= 40 {
		for _, leaf := range order {
			c.Text(xAt[leaf], float64(h)-8, strconv.Itoa(leaf), 8, "#333333", AnchorMiddle)
		}
	}
	c.Title(title)
	if math.IsInf(maxH, 0) {
		return dst, errors.New("render: non-finite merge height")
	}
	return c.End(), nil
}
