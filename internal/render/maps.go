package render

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"indice/internal/geo"
)

// Projection maps geographic coordinates to canvas pixels with a uniform
// scale and a margin. North is up.
type Projection struct {
	bounds geo.Bounds
	w, h   float64
	margin float64
	scale  float64
}

// NewProjection fits the bounds into a w×h canvas with the given margin.
func NewProjection(b geo.Bounds, w, h int, margin float64) (*Projection, error) {
	if b.IsEmpty() {
		return nil, errors.New("render: empty bounds")
	}
	latSpan := b.MaxLat - b.MinLat
	lonSpan := b.MaxLon - b.MinLon
	if latSpan <= 0 && lonSpan <= 0 {
		return nil, errors.New("render: degenerate bounds")
	}
	p := &Projection{bounds: b, w: float64(w), h: float64(h), margin: margin}
	innerW := p.w - 2*margin
	innerH := p.h - 2*margin
	sx, sy := math.Inf(1), math.Inf(1)
	if lonSpan > 0 {
		sx = innerW / lonSpan
	}
	if latSpan > 0 {
		sy = innerH / latSpan
	}
	p.scale = math.Min(sx, sy)
	if math.IsInf(p.scale, 1) || p.scale <= 0 {
		return nil, errors.New("render: cannot compute scale")
	}
	return p, nil
}

// Pixel projects a point.
func (p *Projection) Pixel(pt geo.Point) (x, y float64) {
	x = p.margin + (pt.Lon-p.bounds.MinLon)*p.scale
	y = p.h - p.margin - (pt.Lat-p.bounds.MinLat)*p.scale
	return x, y
}

// normalizer rescales raw values to [0,1] for the color ramp, robust to
// outliers by clipping at the 2nd and 98th percentile.
type normalizer struct {
	lo, hi float64
}

func newNormalizer(vals []float64) normalizer {
	fin := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			fin = append(fin, v)
		}
	}
	if len(fin) == 0 {
		return normalizer{0, 1}
	}
	sort.Float64s(fin)
	loIdx := int(0.02 * float64(len(fin)-1))
	hiIdx := int(0.98 * float64(len(fin)-1))
	n := normalizer{fin[loIdx], fin[hiIdx]}
	if n.lo == n.hi {
		n.hi = n.lo + 1
	}
	return n
}

func (n normalizer) at(v float64) float64 {
	if math.IsNaN(v) {
		return math.NaN()
	}
	t := (v - n.lo) / (n.hi - n.lo)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return t
}

// ZoneValue is one colored area of a choropleth map.
type ZoneValue struct {
	Zone geo.Zone
	// Value is the average of the displayed attribute over the zone's
	// certificates; NaN renders as "no data" gray.
	Value float64
	Count int
}

// Choropleth appends the choropleth energy map to dst: "each area is
// colored according to the average value of the considered variable".
func Choropleth(dst []byte, title string, zones []ZoneValue, bounds geo.Bounds, w, h int) ([]byte, error) {
	proj, err := NewProjection(bounds, w, h, 28)
	if err != nil {
		return dst, fmt.Errorf("render: choropleth: %w", err)
	}
	vals := make([]float64, len(zones))
	for i, z := range zones {
		vals[i] = z.Value
	}
	norm := newNormalizer(vals)
	c := NewCanvas(dst, w, h)
	c.Rect(0, 0, float64(w), float64(h), "#ffffff", "#cccccc", 1)
	for _, z := range zones {
		pts := make([][2]float64, len(z.Zone.Ring))
		for i, v := range z.Zone.Ring {
			x, y := proj.Pixel(v)
			pts[i] = [2]float64{x, y}
		}
		fill := EnergyRamp.At(norm.at(z.Value)).Hex()
		c.Polygon(pts, fill, "#444444", 1, 0.85)
		// Zone label at the ring centroid.
		cx, cy := ringCentroid(pts)
		c.Text(cx, cy, z.Zone.Name, 9, "#222222", AnchorMiddle)
		if !math.IsNaN(z.Value) {
			c.Text(cx, cy+11, strconv.FormatFloat(z.Value, 'f', 1, 64)+" (n="+strconv.Itoa(z.Count)+")", 8, "#333333", AnchorMiddle)
		}
	}
	c.Title(title)
	drawRampLegend(c, norm)
	return c.End(), nil
}

// PointValue is one marker of a scatter map.
type PointValue struct {
	Point geo.Point
	Value float64
}

// ScatterMap appends the scatter energy map to dst: "a point and its
// corresponding value for each EPC contained in the selected area".
func ScatterMap(dst []byte, title string, pts []PointValue, bounds geo.Bounds, w, h int) ([]byte, error) {
	proj, err := NewProjection(bounds, w, h, 28)
	if err != nil {
		return dst, fmt.Errorf("render: scatter map: %w", err)
	}
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Value
	}
	norm := newNormalizer(vals)
	c := NewCanvas(dst, w, h)
	c.grow(len(pts) * circleBytes)
	c.Rect(0, 0, float64(w), float64(h), "#ffffff", "#cccccc", 1)
	for _, p := range pts {
		x, y := proj.Pixel(p.Point)
		c.Circle(x, y, 2.4, EnergyRamp.At(norm.at(p.Value)).Hex(), "none", 0, 0.8)
	}
	c.Title(title)
	drawRampLegend(c, norm)
	return c.End(), nil
}

// Marker is one aggregated marker of a cluster-marker map.
type Marker struct {
	Center geo.Point
	// Count is the cluster cardinality, shown inside the marker and
	// driving its size.
	Count int
	// Value is the average of the independent response variable over the
	// aggregated certificates, driving the marker color.
	Value float64
	// Label optionally annotates the marker (e.g. the zone name).
	Label string
}

// ClusterMarkerMap appends the paper's cluster-marker map to dst: dynamic markers
// whose size and inner label encode the cluster cardinality and whose
// color encodes the average response value, solving the multi-variable
// representation problem at coarse zoom.
func ClusterMarkerMap(dst []byte, title string, markers []Marker, bounds geo.Bounds, w, h int) ([]byte, error) {
	proj, err := NewProjection(bounds, w, h, 36)
	if err != nil {
		return dst, fmt.Errorf("render: cluster-marker map: %w", err)
	}
	vals := make([]float64, len(markers))
	maxCount := 1
	for i, m := range markers {
		vals[i] = m.Value
		if m.Count > maxCount {
			maxCount = m.Count
		}
	}
	norm := newNormalizer(vals)
	c := NewCanvas(dst, w, h)
	c.Rect(0, 0, float64(w), float64(h), "#ffffff", "#cccccc", 1)
	for _, m := range markers {
		x, y := proj.Pixel(m.Center)
		// Radius grows with sqrt(cardinality) for area-proportional size.
		r := 10 + 26*math.Sqrt(float64(m.Count)/float64(maxCount))
		fill := EnergyRamp.At(norm.at(m.Value)).Hex()
		c.Circle(x, y, r, fill, "#333333", 1.5, 0.85)
		c.Text(x, y+4, strconv.Itoa(m.Count), math.Max(10, r/2), "#ffffff", AnchorMiddle)
		if m.Label != "" {
			c.Text(x, y+r+12, m.Label, 9, "#222222", AnchorMiddle)
		}
	}
	c.Title(title)
	drawRampLegend(c, norm)
	return c.End(), nil
}

// drawRampLegend draws the horizontal color legend at the bottom left.
func drawRampLegend(c *Canvas, norm normalizer) {
	const (
		x0    = 12.0
		width = 120.0
		bar   = 10.0
	)
	y := float64(c.H) - 24
	steps := 24
	for i := 0; i < steps; i++ {
		t := float64(i) / float64(steps-1)
		c.Rect(x0+t*width, y, width/float64(steps)+1, bar, EnergyRamp.At(t).Hex(), "none", 0)
	}
	c.Text(x0, y+bar+11, trimNum(norm.lo), 9, "#333333", AnchorStart)
	c.Text(x0+width, y+bar+11, trimNum(norm.hi), 9, "#333333", AnchorEnd)
}

func trimNum(v float64) string {
	if math.Abs(v) >= 100 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

func ringCentroid(pts [][2]float64) (float64, float64) {
	var sx, sy float64
	if len(pts) == 0 {
		return 0, 0
	}
	for _, p := range pts {
		sx += p[0]
		sy += p[1]
	}
	n := float64(len(pts))
	return sx / n, sy / n
}
