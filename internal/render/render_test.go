package render

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"indice/internal/cluster"
	"indice/internal/geo"
	"indice/internal/stats"
)

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(200, 100)
	c.Rect(1, 2, 3, 4, "#fff", "#000", 1)
	c.Circle(10, 10, 5, "red", "none", 0, 0.5)
	c.Line(0, 0, 10, 10, "blue", 2)
	c.Polygon([][2]float64{{0, 0}, {10, 0}, {5, 8}}, "green", "black", 1, 1)
	c.Text(5, 5, "hello <world> & \"quotes\"", 10, "#333", AnchorMiddle)
	c.Title("My Chart")
	out := c.String()
	for _, want := range []string{"<svg", "<rect", "<circle", "<line", "<polygon", "<text", "hello &lt;world&gt; &amp;"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Count(out, "<svg") != 1 || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("malformed SVG document")
	}
}

func TestCanvasDefaultSize(t *testing.T) {
	c := NewCanvas(0, -5)
	if c.W <= 0 || c.H <= 0 {
		t.Fatalf("size = %dx%d", c.W, c.H)
	}
}

func TestRampInterpolation(t *testing.T) {
	r := Ramp{{0, 0, 0}, {100, 100, 100}}
	if got := r.At(0); got != (RGB{0, 0, 0}) {
		t.Fatalf("At(0) = %+v", got)
	}
	if got := r.At(1); got != (RGB{100, 100, 100}) {
		t.Fatalf("At(1) = %+v", got)
	}
	if got := r.At(0.5); got != (RGB{50, 50, 50}) {
		t.Fatalf("At(0.5) = %+v", got)
	}
	// Clamping and NaN.
	if got := r.At(-3); got != (RGB{0, 0, 0}) {
		t.Fatalf("At(-3) = %+v", got)
	}
	if got := r.At(9); got != (RGB{100, 100, 100}) {
		t.Fatalf("At(9) = %+v", got)
	}
	if got := r.At(math.NaN()); got != (RGB{160, 160, 160}) {
		t.Fatalf("At(NaN) = %+v", got)
	}
	if (Ramp{}).At(0.5) != (RGB{128, 128, 128}) {
		t.Fatal("empty ramp fallback wrong")
	}
}

func TestRampMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		ta := float64(a) / 255
		tb := float64(b) / 255
		if ta > tb {
			ta, tb = tb, ta
		}
		// GrayRamp darkens monotonically.
		ca, cb := GrayRamp.At(ta), GrayRamp.At(tb)
		return ca.R >= cb.R && ca.G >= cb.G && ca.B >= cb.B
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRGBHex(t *testing.T) {
	if got := (RGB{255, 0, 16}).Hex(); got != "#ff0010" {
		t.Fatalf("Hex = %q", got)
	}
}

func TestProjection(t *testing.T) {
	b := geo.Bounds{MinLat: 45, MinLon: 7, MaxLat: 46, MaxLon: 8}
	p, err := NewProjection(b, 400, 400, 20)
	if err != nil {
		t.Fatal(err)
	}
	// North is up: higher latitude means smaller y.
	_, ySouth := p.Pixel(geo.Point{Lat: 45, Lon: 7.5})
	_, yNorth := p.Pixel(geo.Point{Lat: 46, Lon: 7.5})
	if yNorth >= ySouth {
		t.Fatalf("north not up: %v vs %v", yNorth, ySouth)
	}
	xW, _ := p.Pixel(geo.Point{Lat: 45.5, Lon: 7})
	xE, _ := p.Pixel(geo.Point{Lat: 45.5, Lon: 8})
	if xE <= xW {
		t.Fatalf("east not right: %v vs %v", xE, xW)
	}
	// Corners stay inside the margin.
	if xW < 19.99 {
		t.Fatalf("margin violated: %v", xW)
	}
	if _, err := NewProjection(geo.EmptyBounds(), 100, 100, 5); err == nil {
		t.Fatal("want error for empty bounds")
	}
}

func zoneSquare(id string, lo, hi float64) geo.Zone {
	return geo.Zone{
		ID:    id,
		Name:  id,
		Level: geo.LevelDistrict,
		Ring: geo.Polygon{
			{Lat: lo, Lon: lo}, {Lat: lo, Lon: hi}, {Lat: hi, Lon: hi}, {Lat: hi, Lon: lo},
		},
	}
}

func TestChoropleth(t *testing.T) {
	zones := []ZoneValue{
		{Zone: zoneSquare("A", 0, 1), Value: 80, Count: 10},
		{Zone: zoneSquare("B", 1, 2), Value: 200, Count: 4},
		{Zone: zoneSquare("C", 2, 3), Value: math.NaN(), Count: 0},
	}
	svg, err := Choropleth("EPH by district", zones, geo.Bounds{MinLat: 0, MinLon: 0, MaxLat: 3, MaxLon: 3}, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<polygon") != 3 {
		t.Fatalf("polygons = %d", strings.Count(svg, "<polygon"))
	}
	if !strings.Contains(svg, "EPH by district") {
		t.Fatal("title missing")
	}
	if !strings.Contains(svg, "n=10") {
		t.Fatal("zone count annotation missing")
	}
}

func TestScatterMap(t *testing.T) {
	pts := []PointValue{
		{Point: geo.Point{Lat: 0.2, Lon: 0.3}, Value: 50},
		{Point: geo.Point{Lat: 0.8, Lon: 0.9}, Value: 300},
	}
	svg, err := ScatterMap("units", pts, geo.Bounds{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}, 400, 400)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<circle") < 2 {
		t.Fatal("points missing")
	}
}

func TestClusterMarkerMap(t *testing.T) {
	markers := []Marker{
		{Center: geo.Point{Lat: 0.25, Lon: 0.25}, Count: 120, Value: 90, Label: "D1"},
		{Center: geo.Point{Lat: 0.75, Lon: 0.75}, Count: 12, Value: 210, Label: "D2"},
	}
	svg, err := ClusterMarkerMap("clusters", markers, geo.Bounds{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}, 400, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Cardinality labels inside the markers.
	if !strings.Contains(svg, ">120<") || !strings.Contains(svg, ">12<") {
		t.Fatal("cardinality labels missing")
	}
	if !strings.Contains(svg, ">D1<") {
		t.Fatal("zone label missing")
	}
	// The larger cluster must have the larger radius.
	big := extractRadius(t, svg, ">120<")
	small := extractRadius(t, svg, ">12<")
	if big <= small {
		t.Fatalf("marker sizes: big=%v small=%v", big, small)
	}
}

// extractRadius finds the circle radius preceding the given label text.
func extractRadius(t *testing.T, svg, label string) float64 {
	t.Helper()
	idx := strings.Index(svg, label)
	if idx < 0 {
		t.Fatalf("label %q not found", label)
	}
	head := svg[:idx]
	ci := strings.LastIndex(head, "<circle")
	if ci < 0 {
		t.Fatalf("no circle before %q", label)
	}
	seg := head[ci:]
	ri := strings.Index(seg, ` r="`)
	if ri < 0 {
		t.Fatal("no radius attr")
	}
	rest := seg[ri+4:]
	end := strings.IndexByte(rest, '"')
	if end < 0 {
		t.Fatal("unterminated radius attr")
	}
	r, err := strconv.ParseFloat(rest[:end], 64)
	if err != nil {
		t.Fatalf("parse radius: %v", err)
	}
	return r
}

func TestHistogramChart(t *testing.T) {
	h, err := stats.NewHistogram([]float64{1, 2, 2, 3, 3, 3, 4, 4, 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := HistogramChart("EPH distribution", h, 420, 260)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<rect") < 6 { // 5 bars + background
		t.Fatalf("bars = %d", strings.Count(svg, "<rect"))
	}
	if _, err := HistogramChart("x", nil, 100, 100); err == nil {
		t.Fatal("want error for nil histogram")
	}
}

func TestBarChart(t *testing.T) {
	svg, err := BarChart("clusters", []string{"C0", "C1", "C2"}, []float64{120, 80, 44}, 420, 260)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"C0", "C1", "C2"} {
		if !strings.Contains(svg, want) {
			t.Errorf("label %q missing", want)
		}
	}
	if _, err := BarChart("x", []string{"a"}, []float64{1, 2}, 100, 100); err == nil {
		t.Fatal("want error for mismatched inputs")
	}
}

func TestCorrelationMatrixPlot(t *testing.T) {
	m, err := stats.NewCorrelationMatrix(
		[]string{"sv", "uo", "uw"},
		[][]float64{{1, 2, 3, 4}, {2, 1, 4, 3}, {0.5, 2.5, 1.5, 3.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := CorrelationMatrixPlot("Figure 3", m, 480)
	if err != nil {
		t.Fatal(err)
	}
	// 9 cells + background.
	if strings.Count(svg, "<rect") < 10 {
		t.Fatalf("cells = %d", strings.Count(svg, "<rect"))
	}
	if !strings.Contains(svg, "1.00") {
		t.Fatal("diagonal annotation missing")
	}
	for _, n := range m.Names {
		if !strings.Contains(svg, n) {
			t.Errorf("label %q missing", n)
		}
	}
	if _, err := CorrelationMatrixPlot("x", nil, 100); err == nil {
		t.Fatal("want error for nil matrix")
	}
}

func TestSSECurveChart(t *testing.T) {
	svg, err := SSECurveChart("elbow", []int{2, 3, 4, 5}, []float64{100, 60, 30, 25}, 4, 420, 260)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "#d92b1c") {
		t.Fatal("chosen K not highlighted")
	}
	if _, err := SSECurveChart("x", []int{1}, []float64{1, 2}, 1, 100, 100); err == nil {
		t.Fatal("want error for mismatched inputs")
	}
}

func TestPageAssembly(t *testing.T) {
	p := NewPage("INDICE dashboard <test>")
	p.AddHeading("Maps & stats")
	p.AddParagraph("District-level view.")
	p.AddSVG("<svg xmlns=\"http://www.w3.org/2000/svg\"></svg>")
	p.AddSVGRow("<svg a=\"1\"></svg>", "<svg b=\"2\"></svg>")
	if err := p.AddTable([]string{"attr", "mean"}, [][]string{{"eph", "132.4"}}); err != nil {
		t.Fatal(err)
	}
	p.AddPre("A -> B (lift=2)")
	out := p.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "INDICE dashboard &lt;test&gt;", "<h2>Maps &amp; stats</h2>",
		"<table>", "<pre>", "class=\"row\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("page missing %q", want)
		}
	}
	if err := p.AddTable(nil, nil); err == nil {
		t.Fatal("want error for empty headers")
	}
	if err := p.AddTable([]string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
}

func BenchmarkScatterMap25k(b *testing.B) {
	pts := make([]PointValue, 25000)
	for i := range pts {
		pts[i] = PointValue{
			Point: geo.Point{Lat: float64(i%500) / 500, Lon: float64(i%499) / 499},
			Value: float64(i % 300),
		}
	}
	bounds := geo.Bounds{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScatterMap("bench", pts, bounds, 800, 600); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDendrogramChart(t *testing.T) {
	pts := [][]float64{{0, 0}, {0, 1}, {10, 10}, {10, 11}, {20, 0}}
	dg, err := cluster.Hierarchical(pts, cluster.AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := DendrogramChart("dendrogram", dg, 480, 320)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") {
		t.Fatal("no svg output")
	}
	// Each of the n-1 merges draws three segments, plus the axis.
	if got := strings.Count(svg, "<line"); got < 3*(len(pts)-1)+1 {
		t.Fatalf("lines = %d", got)
	}
	// Leaf ticks rendered for small dendrograms.
	for i := 0; i < len(pts); i++ {
		if !strings.Contains(svg, ">"+strconv.Itoa(i)+"<") {
			t.Fatalf("leaf tick %d missing", i)
		}
	}
	if _, err := DendrogramChart("x", nil, 100, 100); err == nil {
		t.Fatal("want error for nil dendrogram")
	}
}

func TestDendrogramChartTooLarge(t *testing.T) {
	pts := make([][]float64, 600)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	dg, err := cluster.Hierarchical(pts, cluster.SingleLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DendrogramChart("x", dg, 400, 300); err == nil {
		t.Fatal("want error for oversized dendrogram")
	}
}
