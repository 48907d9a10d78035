package render

import (
	"errors"
	"fmt"
	"math"

	"indice/internal/stats"
)

// HistogramChart renders a frequency-distribution bar chart of a numeric
// attribute, the core element of the INDICE distribution panel.
func HistogramChart(title string, h *stats.Histogram, w, height int) (string, error) {
	if h == nil || len(h.Counts) == 0 {
		return "", errors.New("render: empty histogram")
	}
	c := NewCanvas(w, height)
	c.Rect(0, 0, float64(w), float64(height), "#ffffff", "#cccccc", 1)
	const (
		left   = 46.0
		bottom = 34.0
		top    = 30.0
		right  = 12.0
	)
	plotW := float64(w) - left - right
	plotH := float64(height) - top - bottom
	maxC := float64(h.MaxCount())
	if maxC == 0 {
		maxC = 1
	}
	n := len(h.Counts)
	barW := plotW / float64(n)
	for i, cnt := range h.Counts {
		bh := plotH * float64(cnt) / maxC
		x := left + float64(i)*barW
		y := top + plotH - bh
		c.Rect(x+1, y, barW-2, bh, "#4878a8", "#2b4a6b", 0.5)
	}
	// Axes.
	c.Line(left, top, left, top+plotH, "#333333", 1)
	c.Line(left, top+plotH, left+plotW, top+plotH, "#333333", 1)
	// X labels: min, mid, max edges.
	c.Text(left, float64(height)-14, trimNum(h.Edges[0]), 9, "#333333", AnchorMiddle)
	c.Text(left+plotW/2, float64(height)-14, trimNum(h.Edges[n/2]), 9, "#333333", AnchorMiddle)
	c.Text(left+plotW, float64(height)-14, trimNum(h.Edges[n]), 9, "#333333", AnchorMiddle)
	// Y labels: 0 and max.
	c.Text(left-4, top+plotH, "0", 9, "#333333", AnchorEnd)
	c.Text(left-4, top+10, fmt.Sprintf("%d", h.MaxCount()), 9, "#333333", AnchorEnd)
	c.Title(title)
	return c.String(), nil
}

// BarChart renders a categorical frequency chart (used for cluster
// populations and top-k category panels).
func BarChart(title string, labels []string, values []float64, w, height int) (string, error) {
	if len(labels) == 0 || len(labels) != len(values) {
		return "", errors.New("render: bar chart needs matching labels and values")
	}
	c := NewCanvas(w, height)
	c.Rect(0, 0, float64(w), float64(height), "#ffffff", "#cccccc", 1)
	const (
		left   = 46.0
		bottom = 40.0
		top    = 30.0
		right  = 12.0
	)
	plotW := float64(w) - left - right
	plotH := float64(height) - top - bottom
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	n := len(values)
	barW := plotW / float64(n)
	for i, v := range values {
		bh := plotH * v / maxV
		if bh < 0 {
			bh = 0
		}
		x := left + float64(i)*barW
		y := top + plotH - bh
		fill := EnergyRamp.At(float64(i) / math.Max(1, float64(n-1))).Hex()
		c.Rect(x+2, y, barW-4, bh, fill, "#333333", 0.5)
		c.Text(x+barW/2, top+plotH+14, labels[i], 9, "#333333", AnchorMiddle)
		c.Text(x+barW/2, y-3, trimNum(v), 8, "#333333", AnchorMiddle)
	}
	c.Line(left, top, left, top+plotH, "#333333", 1)
	c.Line(left, top+plotH, left+plotW, top+plotH, "#333333", 1)
	c.Title(title)
	return c.String(), nil
}

// CorrelationMatrixPlot renders the Figure 3 panel: a grid of squares, one
// per attribute pair, where the gray level encodes the absolute Pearson
// coefficient (dark = strong correlation, light = weak).
func CorrelationMatrixPlot(title string, m *stats.CorrelationMatrix, w int) (string, error) {
	if m == nil || len(m.Names) == 0 {
		return "", errors.New("render: empty correlation matrix")
	}
	k := len(m.Names)
	const (
		labelBand = 110.0
		top       = 30.0
	)
	cell := (float64(w) - labelBand - 16) / float64(k)
	height := int(top + labelBand + cell*float64(k) + 16)
	c := NewCanvas(w, height)
	c.Rect(0, 0, float64(w), float64(height), "#ffffff", "#cccccc", 1)
	x0 := labelBand
	y0 := top + labelBand
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := math.Abs(m.Coef[i][j])
			fill := GrayRamp.At(v).Hex()
			x := x0 + float64(j)*cell
			y := y0 + float64(i)*cell
			c.Rect(x, y, cell-1, cell-1, fill, "#bbbbbb", 0.5)
			// Numeric annotation, readable on both light and dark cells.
			txt := "#222222"
			if v > 0.55 {
				txt = "#eeeeee"
			}
			c.Text(x+cell/2, y+cell/2+3, fmt.Sprintf("%.2f", m.Coef[i][j]), math.Min(11, cell/4), txt, AnchorMiddle)
		}
	}
	for i, name := range m.Names {
		// Row labels on the left, column labels angled on top.
		c.Text(x0-6, y0+float64(i)*cell+cell/2+3, name, 10, "#222222", AnchorEnd)
		cx := x0 + float64(i)*cell + cell/2
		fmt.Fprintf(&c.b,
			`<text x="%.2f" y="%.2f" font-size="10" font-family="sans-serif" fill="#222222" text-anchor="start" transform="rotate(-60 %.2f %.2f)">%s</text>`+"\n",
			cx, y0-8, cx, y0-8, escText(name))
	}
	c.Title(title)
	return c.String(), nil
}

// SSECurveChart renders the K-selection elbow plot of the analytics engine.
func SSECurveChart(title string, ks []int, sses []float64, chosenK, w, height int) (string, error) {
	if len(ks) == 0 || len(ks) != len(sses) {
		return "", errors.New("render: SSE curve needs matching ks and values")
	}
	c := NewCanvas(w, height)
	c.Rect(0, 0, float64(w), float64(height), "#ffffff", "#cccccc", 1)
	const (
		left   = 56.0
		bottom = 34.0
		top    = 30.0
		right  = 14.0
	)
	plotW := float64(w) - left - right
	plotH := float64(height) - top - bottom
	maxS := 0.0
	for _, s := range sses {
		if s > maxS {
			maxS = s
		}
	}
	if maxS == 0 {
		maxS = 1
	}
	px := func(i int) float64 {
		if len(ks) == 1 {
			return left + plotW/2
		}
		return left + plotW*float64(i)/float64(len(ks)-1)
	}
	py := func(s float64) float64 { return top + plotH*(1-s/maxS) }
	for i := 1; i < len(ks); i++ {
		c.Line(px(i-1), py(sses[i-1]), px(i), py(sses[i]), "#4878a8", 2)
	}
	for i, k := range ks {
		fill := "#4878a8"
		r := 3.5
		if k == chosenK {
			fill = "#d92b1c"
			r = 5.5
		}
		c.Circle(px(i), py(sses[i]), r, fill, "#222222", 0.8, 1)
		c.Text(px(i), top+plotH+14, fmt.Sprintf("%d", k), 9, "#333333", AnchorMiddle)
	}
	c.Line(left, top, left, top+plotH, "#333333", 1)
	c.Line(left, top+plotH, left+plotW, top+plotH, "#333333", 1)
	c.Text(left-6, top+10, trimNum(maxS), 9, "#333333", AnchorEnd)
	c.Text(left-6, top+plotH, "0", 9, "#333333", AnchorEnd)
	c.Title(title)
	return c.String(), nil
}
