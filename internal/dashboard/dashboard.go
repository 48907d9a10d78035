// Package dashboard implements the informative-dashboard tier of INDICE
// (§2.3): spatial aggregation of certificates into the three energy-map
// kinds, the zoom-level policy that switches map representation as the
// user drills from city down to single housing units, and the assembly of
// complete per-stakeholder HTML dashboards.
package dashboard

import (
	"errors"
	"fmt"
	"math"

	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/render"
	"indice/internal/stats"
	"indice/internal/table"
)

// MapKind identifies one of the three geospatial map types.
type MapKind string

// The three energy maps of §2.3.
const (
	KindChoropleth    MapKind = "choropleth"
	KindScatter       MapKind = "scatter"
	KindClusterMarker MapKind = "cluster-marker"
)

// MapKindForLevel returns the representation the dashboard uses at a zoom
// level, following Figure 2: cluster-marker maps at city and district
// zoom, choropleth at neighbourhood zoom, scatter at housing-unit zoom.
func MapKindForLevel(l geo.Level) MapKind {
	switch l {
	case geo.LevelCity, geo.LevelDistrict:
		return KindClusterMarker
	case geo.LevelNeighbourhood:
		return KindChoropleth
	default:
		return KindScatter
	}
}

// ZoneStat aggregates one attribute over one administrative zone.
type ZoneStat struct {
	Zone  geo.Zone
	Count int
	Mean  float64 // NaN when the zone holds no valid value
}

// AggregateByZone computes the per-zone mean of attr at the given level,
// locating certificates by their coordinates.
func AggregateByZone(t *table.Table, h *geo.Hierarchy, level geo.Level, attr string) ([]ZoneStat, error) {
	if level == geo.LevelUnit {
		return nil, errors.New("dashboard: unit level has no zones to aggregate")
	}
	lat, lon, err := coords(t)
	if err != nil {
		return nil, err
	}
	vals, err := t.Floats(attr)
	if err != nil {
		return nil, fmt.Errorf("dashboard: %w", err)
	}
	valid, _ := t.ValidMask(attr)
	zones, locate := h.Locator(level)
	sums := make([]float64, len(zones))
	counts := make([]int, len(zones))
	for i := range lat {
		p := geo.Point{Lat: lat[i], Lon: lon[i]}
		if !valid[i] || !p.Valid() {
			continue
		}
		if j := locate(p); j >= 0 {
			sums[j] += vals[i]
			counts[j]++
		}
	}
	out := make([]ZoneStat, len(zones))
	for j, z := range zones {
		out[j] = ZoneStat{Zone: z, Count: counts[j], Mean: math.NaN()}
		if counts[j] > 0 {
			out[j].Mean = sums[j] / float64(counts[j])
		}
	}
	return out, nil
}

// coords returns the table's latitude and longitude columns, read in
// place.
func coords(t *table.Table) (lat, lon []float64, err error) {
	if lat, err = t.Floats(epc.AttrLatitude); err != nil {
		return nil, nil, fmt.Errorf("dashboard: %w", err)
	}
	if lon, err = t.Floats(epc.AttrLongitude); err != nil {
		return nil, nil, fmt.Errorf("dashboard: %w", err)
	}
	return lat, lon, nil
}

// MapSpec describes one map render request.
type MapSpec struct {
	Title  string
	Level  geo.Level
	Attr   string // displayed / response attribute
	Width  int
	Height int
}

// RenderMap produces the SVG energy map for the requested zoom level,
// choosing the representation with MapKindForLevel.
func RenderMap(t *table.Table, h *geo.Hierarchy, spec MapSpec) ([]byte, MapKind, error) {
	return AppendMap(nil, t, h, spec)
}

// AppendMap is RenderMap appending the map to dst.
func AppendMap(dst []byte, t *table.Table, h *geo.Hierarchy, spec MapSpec) ([]byte, MapKind, error) {
	if spec.Width <= 0 {
		spec.Width = 560
	}
	if spec.Height <= 0 {
		spec.Height = 460
	}
	kind := MapKindForLevel(spec.Level)
	bounds := h.City().Ring.Bounds()
	switch kind {
	case KindClusterMarker:
		level := spec.Level
		if level == geo.LevelCity {
			// At city zoom a single marker aggregates everything; the
			// district grid gives the Figure 2 (bottom right) view, so we
			// aggregate one level below when asked for the city.
			level = geo.LevelDistrict
		}
		zs, err := AggregateByZone(t, h, level, spec.Attr)
		if err != nil {
			return dst, kind, err
		}
		var markers []render.Marker
		for _, z := range zs {
			if z.Count == 0 {
				continue
			}
			markers = append(markers, render.Marker{
				Center: z.Zone.Ring.Bounds().Center(),
				Count:  z.Count,
				Value:  z.Mean,
				Label:  z.Zone.Name,
			})
		}
		b, err := render.ClusterMarkerMap(dst, spec.Title, markers, bounds, spec.Width, spec.Height)
		return b, kind, err
	case KindChoropleth:
		zs, err := AggregateByZone(t, h, spec.Level, spec.Attr)
		if err != nil {
			return dst, kind, err
		}
		zv := make([]render.ZoneValue, len(zs))
		for i, z := range zs {
			zv[i] = render.ZoneValue{Zone: z.Zone, Value: z.Mean, Count: z.Count}
		}
		b, err := render.Choropleth(dst, spec.Title, zv, bounds, spec.Width, spec.Height)
		return b, kind, err
	default: // scatter
		lat, lon, err := coords(t)
		if err != nil {
			return dst, kind, err
		}
		vals, err := t.Floats(spec.Attr)
		if err != nil {
			return dst, kind, err
		}
		valid, _ := t.ValidMask(spec.Attr)
		pv := make([]render.PointValue, 0, len(lat))
		for i := range lat {
			p := geo.Point{Lat: lat[i], Lon: lon[i]}
			if !p.Valid() || !valid[i] {
				continue
			}
			pv = append(pv, render.PointValue{Point: p, Value: vals[i]})
		}
		b, err := render.ScatterMap(dst, spec.Title, pv, bounds, spec.Width, spec.Height)
		return b, kind, err
	}
}

// ClusterMarkers builds the markers of the analytics cluster-marker view
// (Figure 2, bottom): one marker per K-means cluster, positioned at the
// mean coordinates of its members, sized by cardinality and colored by the
// mean of the response variable.
func ClusterMarkers(t *table.Table, labels []int, response string) ([]render.Marker, error) {
	if t.NumRows() != len(labels) {
		return nil, fmt.Errorf("dashboard: %d labels for %d rows", len(labels), t.NumRows())
	}
	lat, lon, err := coords(t)
	if err != nil {
		return nil, err
	}
	vals, err := t.Floats(response)
	if err != nil {
		return nil, fmt.Errorf("dashboard: %w", err)
	}
	valid, _ := t.ValidMask(response)
	type agg struct {
		lat, lon, sum float64
		n, vn         int
	}
	byCluster := make(map[int]*agg)
	for i, l := range labels {
		p := geo.Point{Lat: lat[i], Lon: lon[i]}
		if l < 0 || !p.Valid() {
			continue
		}
		a := byCluster[l]
		if a == nil {
			a = &agg{}
			byCluster[l] = a
		}
		a.lat += p.Lat
		a.lon += p.Lon
		a.n++
		if valid[i] {
			a.sum += vals[i]
			a.vn++
		}
	}
	maxL := -1
	for l := range byCluster {
		if l > maxL {
			maxL = l
		}
	}
	var out []render.Marker
	for l := 0; l <= maxL; l++ {
		a, ok := byCluster[l]
		if !ok || a.n == 0 {
			continue
		}
		m := render.Marker{
			Center: geo.Point{Lat: a.lat / float64(a.n), Lon: a.lon / float64(a.n)},
			Count:  a.n,
			Value:  math.NaN(),
			Label:  fmt.Sprintf("cluster %d", l),
		}
		if a.vn > 0 {
			m.Value = a.sum / float64(a.vn)
		}
		out = append(out, m)
	}
	return out, nil
}

// DistributionPanel renders the frequency-distribution panel of one
// numeric attribute: histogram plus the statistical indices the paper
// lists (count, mean, standard deviation and the three quartiles).
type DistributionPanel struct {
	Attr string
	Desc stats.Description
	hist *stats.Histogram
	w, h int
}

// NewDistributionPanel builds the panel with the given number of bins.
func NewDistributionPanel(t *table.Table, attr string, bins, w, h int) (*DistributionPanel, error) {
	vals, err := t.ValidFloats(attr)
	if err != nil {
		return nil, fmt.Errorf("dashboard: %w", err)
	}
	if bins <= 0 {
		bins = 20
	}
	hist, err := stats.NewHistogram(vals, bins)
	if err != nil {
		return nil, fmt.Errorf("dashboard: distribution of %q: %w", attr, err)
	}
	desc, err := stats.Describe(vals)
	if err != nil {
		return nil, err
	}
	return &DistributionPanel{Attr: attr, Desc: desc, hist: hist, w: w, h: h}, nil
}

// Draw appends the panel's histogram to dst; p.Draw is a render.Panel.
func (p *DistributionPanel) Draw(dst []byte) ([]byte, error) {
	return render.HistogramChart(dst, "Distribution of "+p.Attr, p.hist, p.w, p.h)
}

// StatsRow renders the panel's indices as a table row
// (attr, count, mean, std, min, q1, median, q3, max).
func (p *DistributionPanel) StatsRow() []string {
	d := p.Desc
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	return []string{
		p.Attr, fmt.Sprintf("%d", d.Count), f(d.Mean), f(d.StdDev),
		f(d.Min), f(d.Q1), f(d.Median), f(d.Q3), f(d.Max),
	}
}

// StatsHeader is the header matching StatsRow.
func StatsHeader() []string {
	return []string{"attribute", "count", "mean", "std", "min", "q1", "median", "q3", "max"}
}

// CategoricalPanel describes the categorical frequency panel, mode and
// top-k values, and returns the panel drawing its bar chart.
func CategoricalPanel(t *table.Table, attr string, k, w, h int) (render.Panel, stats.CategoricalDescription, error) {
	vals, err := t.Strings(attr)
	if err != nil {
		return nil, stats.CategoricalDescription{}, fmt.Errorf("dashboard: %w", err)
	}
	if k <= 0 {
		k = 8
	}
	d := stats.DescribeCategorical(vals, k)
	labels := make([]string, len(d.TopK))
	counts := make([]float64, len(d.TopK))
	for i, c := range d.TopK {
		labels[i] = c.Value
		counts[i] = float64(c.Count)
	}
	if len(labels) == 0 {
		return nil, d, errors.New("dashboard: categorical panel with no values")
	}
	return func(dst []byte) ([]byte, error) {
		return render.BarChart(dst, "Top values of "+attr, labels, counts, w, h)
	}, d, nil
}
