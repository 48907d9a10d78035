// Package render implements the data and knowledge visualization tier of
// INDICE (§2.3): an SVG canvas with no external dependencies, the three
// energy maps (choropleth, scatter, cluster-marker), frequency
// distribution charts, the grayscale correlation-matrix plot, and the HTML
// dashboard assembly. The paper's folium/Leaflet interactivity is replaced
// by per-zoom-level static generation bundled into a single offline HTML
// page.
package render

import (
	"fmt"
	"math"
	"strings"
)

// Canvas accumulates SVG elements and serializes to a standalone document.
type Canvas struct {
	W, H int
	b    strings.Builder
}

// NewCanvas returns an empty canvas of the given pixel size.
func NewCanvas(w, h int) *Canvas {
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 480
	}
	return &Canvas{W: w, H: h}
}

// Rect draws a rectangle.
func (c *Canvas) Rect(x, y, w, h float64, fill, stroke string, strokeWidth float64) {
	fmt.Fprintf(&c.b,
		`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x, y, w, h, escAttr(fill), escAttr(stroke), strokeWidth)
}

// Circle draws a circle.
func (c *Canvas) Circle(cx, cy, r float64, fill, stroke string, strokeWidth, opacity float64) {
	fmt.Fprintf(&c.b,
		`<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s" stroke="%s" stroke-width="%.2f" fill-opacity="%.2f"/>`+"\n",
		cx, cy, r, escAttr(fill), escAttr(stroke), strokeWidth, opacity)
}

// Line draws a segment.
func (c *Canvas) Line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(&c.b,
		`<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x1, y1, x2, y2, escAttr(stroke), width)
}

// Polygon draws a closed polygon from (x, y) pairs.
func (c *Canvas) Polygon(pts [][2]float64, fill, stroke string, strokeWidth, opacity float64) {
	var sb strings.Builder
	for i, p := range pts {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.2f,%.2f", p[0], p[1])
	}
	fmt.Fprintf(&c.b,
		`<polygon points="%s" fill="%s" stroke="%s" stroke-width="%.2f" fill-opacity="%.2f"/>`+"\n",
		sb.String(), escAttr(fill), escAttr(stroke), strokeWidth, opacity)
}

// Anchor positions for Text.
const (
	AnchorStart  = "start"
	AnchorMiddle = "middle"
	AnchorEnd    = "end"
)

// Text draws a text label.
func (c *Canvas) Text(x, y float64, s string, size float64, fill, anchor string) {
	if anchor == "" {
		anchor = AnchorStart
	}
	fmt.Fprintf(&c.b,
		`<text x="%.2f" y="%.2f" font-size="%.1f" font-family="sans-serif" fill="%s" text-anchor="%s">%s</text>`+"\n",
		x, y, size, escAttr(fill), escAttr(anchor), escText(s))
}

// Title adds a chart title centered at the top.
func (c *Canvas) Title(s string) {
	c.Text(float64(c.W)/2, 18, s, 14, "#222222", AnchorMiddle)
}

// String serializes the canvas as a complete SVG document.
func (c *Canvas) String() string {
	return fmt.Sprintf(
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n%s</svg>\n",
		c.W, c.H, c.W, c.H, c.b.String())
}

// escText escapes a string for SVG text content.
func escText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// escAttr escapes a string for an SVG attribute value.
func escAttr(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// RGB is a color.
type RGB struct{ R, G, B uint8 }

// Hex renders the color as #rrggbb.
func (c RGB) Hex() string { return fmt.Sprintf("#%02x%02x%02x", c.R, c.G, c.B) }

// Ramp maps a normalized value in [0,1] to a color by piecewise-linear
// interpolation over its stops.
type Ramp []RGB

// EnergyRamp is the green→yellow→red scale used by the energy maps (green
// = efficient, red = energy-hungry), mirroring energy-label iconography.
var EnergyRamp = Ramp{
	{0x1a, 0x96, 0x41}, // green
	{0xd8, 0xd3, 0x35}, // yellow
	{0xd9, 0x2b, 0x1c}, // red
}

// GrayRamp is the black-and-white scale of the correlation matrix: light
// = weak correlation, dark = strong.
var GrayRamp = Ramp{
	{0xf5, 0xf5, 0xf5},
	{0x11, 0x11, 0x11},
}

// At interpolates the ramp at t ∈ [0,1]; out-of-range values clamp and
// NaN returns mid-gray.
func (r Ramp) At(t float64) RGB {
	if len(r) == 0 {
		return RGB{128, 128, 128}
	}
	if math.IsNaN(t) {
		return RGB{160, 160, 160}
	}
	if t <= 0 || len(r) == 1 {
		return r[0]
	}
	if t >= 1 {
		return r[len(r)-1]
	}
	scaled := t * float64(len(r)-1)
	i := int(scaled)
	frac := scaled - float64(i)
	a, b := r[i], r[i+1]
	lerp := func(x, y uint8) uint8 {
		return uint8(math.Round(float64(x) + (float64(y)-float64(x))*frac))
	}
	return RGB{lerp(a.R, b.R), lerp(a.G, b.G), lerp(a.B, b.B)}
}
