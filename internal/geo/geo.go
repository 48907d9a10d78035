// Package geo provides the geospatial substrate for INDICE's energy maps:
// bounding boxes, point-in-polygon tests and the administrative
// hierarchy (city → district → neighbourhood → building) that drives the
// dashboard's drill-down zoom levels.
package geo

import (
	"fmt"
	"math"
)

// Point is a WGS84 coordinate pair in degrees.
type Point struct {
	Lat float64
	Lon float64
}

// Valid reports whether the point lies in the legal lat/lon ranges and is
// finite.
func (p Point) Valid() bool {
	return !math.IsNaN(p.Lat) && !math.IsNaN(p.Lon) &&
		p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Bounds is an axis-aligned lat/lon bounding box.
type Bounds struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// EmptyBounds returns an inverted box ready for Extend.
func EmptyBounds() Bounds {
	return Bounds{
		MinLat: math.Inf(1), MinLon: math.Inf(1),
		MaxLat: math.Inf(-1), MaxLon: math.Inf(-1),
	}
}

// Extend grows b to include p and returns the result.
func (b Bounds) Extend(p Point) Bounds {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Contains reports whether p lies within the box (inclusive).
func (b Bounds) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box midpoint.
func (b Bounds) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// IsEmpty reports whether the box is inverted (holds no point).
func (b Bounds) IsEmpty() bool {
	return b.MinLat > b.MaxLat || b.MinLon > b.MaxLon
}

// BoundsOf returns the bounding box of the given points; empty input yields
// an empty box.
func BoundsOf(pts []Point) Bounds {
	b := EmptyBounds()
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// Polygon is a simple (non-self-intersecting) closed ring of vertices. The
// ring is implicitly closed: the last vertex connects back to the first.
type Polygon []Point

// Contains reports whether p lies inside the polygon using the even-odd
// ray-casting rule. Points exactly on an edge may land on either side;
// administrative zones in INDICE are disjoint so this does not affect
// aggregation totals.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg)
	if n < 3 {
		return false
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg[i], pg[j]
		if (vi.Lat > p.Lat) != (vj.Lat > p.Lat) {
			cross := (vj.Lon-vi.Lon)*(p.Lat-vi.Lat)/(vj.Lat-vi.Lat) + vi.Lon
			if p.Lon < cross {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// Bounds returns the polygon's bounding box.
func (pg Polygon) Bounds() Bounds {
	return BoundsOf(pg)
}

// RectPolygon builds the four-vertex polygon of a bounding box.
func RectPolygon(b Bounds) Polygon {
	return Polygon{
		{Lat: b.MinLat, Lon: b.MinLon},
		{Lat: b.MinLat, Lon: b.MaxLon},
		{Lat: b.MaxLat, Lon: b.MaxLon},
		{Lat: b.MaxLat, Lon: b.MinLon},
	}
}
