// Package render implements the data and knowledge visualization tier of
// INDICE (§2.3): an SVG canvas with no external dependencies, the three
// energy maps (choropleth, scatter, cluster-marker), frequency
// distribution charts, the grayscale correlation-matrix plot, and the HTML
// dashboard assembly. The paper's folium/Leaflet interactivity is replaced
// by per-zoom-level static generation bundled into a single offline HTML
// page.
//
// Every chart appends its SVG document to a caller's byte slice, and a
// Page hands its own buffer to the charts it embeds, so a dashboard is
// written once, into the bytes that are served.
package render

import (
	"math"
	"strconv"
)

// Canvas appends SVG elements to a byte buffer: NewCanvas writes the
// document's opening tag and End its closing one.
type Canvas struct {
	W, H int
	b    []byte
}

// NewCanvas opens an SVG document of the given pixel size at the end of
// dst.
func NewCanvas(dst []byte, w, h int) *Canvas {
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 480
	}
	c := &Canvas{W: w, H: h, b: dst}
	c.lit(`<svg xmlns="http://www.w3.org/2000/svg" width="`).int(w).lit(`" height="`).int(h).
		lit(`" viewBox="0 0 `).int(w).lit(" ").int(h).lit("\">\n")
	return c
}

// grow makes room for n more bytes, so a chart that knows its element
// count grows the buffer once instead of once per append's growth step.
// The extra 2×cap is room for what a page appends after the chart:
// growing to exactly len+n (slices.Grow) makes the page's next section
// copy the whole map again (E33 citizen 4.3 → 7.1 MB/op).
func (c *Canvas) grow(n int) {
	if n > cap(c.b)-len(c.b) {
		b := make([]byte, len(c.b), 2*cap(c.b)+n)
		copy(b, c.b)
		c.b = b
	}
}

// End closes the document and returns the buffer NewCanvas was given
// with the document appended.
func (c *Canvas) End() []byte {
	return append(c.b, "</svg>\n"...)
}

// Rect draws a rectangle.
func (c *Canvas) Rect(x, y, w, h float64, fill, stroke string, strokeWidth float64) {
	c.lit("<rect").num("x", x).num("y", y).num("width", w).num("height", h).
		str("fill", fill).str("stroke", stroke).num("stroke-width", strokeWidth).lit("/>\n")
}

// circleBytes is the length of a scatter-map point, the commonest
// element, for grow.
const circleBytes = 112

// Circle draws a circle.
func (c *Canvas) Circle(cx, cy, r float64, fill, stroke string, strokeWidth, opacity float64) {
	c.lit("<circle").num("cx", cx).num("cy", cy).num("r", r).str("fill", fill).str("stroke", stroke).
		num("stroke-width", strokeWidth).num("fill-opacity", opacity).lit("/>\n")
}

// Line draws a segment.
func (c *Canvas) Line(x1, y1, x2, y2 float64, stroke string, width float64) {
	c.lit("<line").num("x1", x1).num("y1", y1).num("x2", x2).num("y2", y2).
		str("stroke", stroke).num("stroke-width", width).lit("/>\n")
}

// Polygon draws a closed polygon from (x, y) pairs.
func (c *Canvas) Polygon(pts [][2]float64, fill, stroke string, strokeWidth, opacity float64) {
	c.lit(`<polygon points="`)
	for i, p := range pts {
		if i > 0 {
			c.lit(" ")
		}
		c.f2(p[0]).lit(",").f2(p[1])
	}
	c.lit(`"`).str("fill", fill).str("stroke", stroke).num("stroke-width", strokeWidth).
		num("fill-opacity", opacity).lit("/>\n")
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
	c.lit("<text").num("x", x).num("y", y).lit(` font-size="`)
	c.b = strconv.AppendFloat(c.b, size, 'f', 1, 64)
	c.lit(`" font-family="sans-serif"`).str("fill", fill).str("text-anchor", anchor).content(s)
}

// rotatedLabel draws a 10-px label turned 60° anticlockwise about its
// start, the column labels of the correlation matrix.
func (c *Canvas) rotatedLabel(x, y float64, s string) {
	c.lit("<text").num("x", x).num("y", y).
		lit(` font-size="10" font-family="sans-serif" fill="#222222" text-anchor="start" transform="rotate(-60 `).
		f2(x).lit(" ").f2(y).lit(`)"`).content(s)
}

// Title adds a chart title centered at the top.
func (c *Canvas) Title(s string) {
	c.Text(float64(c.W)/2, 18, s, 14, "#222222", AnchorMiddle)
}

func (c *Canvas) lit(s string) *Canvas {
	c.b = append(c.b, s...)
	return c
}

func (c *Canvas) int(v int) *Canvas {
	c.b = strconv.AppendInt(c.b, int64(v), 10)
	return c
}

// f2 appends v as fmt's %.2f would print it.
func (c *Canvas) f2(v float64) *Canvas {
	c.b = strconv.AppendFloat(c.b, v, 'f', 2, 64)
	return c
}

// num appends the attribute name="v" with v to two decimals.
func (c *Canvas) num(name string, v float64) *Canvas {
	return c.lit(" ").lit(name).lit(`="`).f2(v).lit(`"`)
}

// str appends the attribute name="v" with v escaped.
func (c *Canvas) str(name, v string) *Canvas {
	c.lit(" ").lit(name).lit(`="`)
	c.b = appendEscaped(c.b, v, true)
	return c.lit(`"`)
}

// content closes a start tag, appends s as escaped text and closes the
// text element.
func (c *Canvas) content(s string) {
	c.lit(">")
	c.b = appendEscaped(c.b, s, false)
	c.lit("</text>\n")
}

// appendEscaped appends s with &, < and > (and " when quote is set)
// replaced by their entities; runs without one are copied whole. Unlike
// a strings.Replacer it keeps s off the heap: a per-point colour string
// built on the stack stays there.
func appendEscaped(b []byte, s string, quote bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			if !quote {
				continue
			}
			ent = "&quot;"
		default:
			continue
		}
		b = append(append(b, s[last:i]...), ent...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// RGB is a color.
type RGB struct{ R, G, B uint8 }

const hexDigits = "0123456789abcdef"

// Hex renders the color as #rrggbb.
func (c RGB) Hex() string {
	return string([]byte{'#',
		hexDigits[c.R>>4], hexDigits[c.R&15],
		hexDigits[c.G>>4], hexDigits[c.G&15],
		hexDigits[c.B>>4], hexDigits[c.B&15]})
}

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
