package render

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting the file
// when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/render -update` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden copy.\nIf the change is intentional, regenerate with `go test ./internal/render -update`.\ngot %d bytes, want %d bytes", name, len(got), len(want))
	}
}

// TestPageGolden pins the assembled HTML of a representative dashboard
// page, so refactors of the HTML scaffolding can't silently change the
// paper artifacts.
func TestPageGolden(t *testing.T) {
	p := NewPage("INDICE — golden dashboard")
	p.AddHeading("Energy maps")
	p.AddParagraph("Average EPH per district at city zoom.")
	if err := p.AddSVG(func(dst []byte) ([]byte, error) {
		return BarChart(dst, "cluster cardinalities", []string{"C0", "C1", "C2"}, []float64{120, 45, 80}, 320, 200)
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTable(
		[]string{"cluster", "size", "mean EPH"},
		[][]string{
			{"C0", "120", "84.2"},
			{"C1", "45", "190.7"},
			{"C2", "80", "132.0"},
		},
	); err != nil {
		t.Fatal(err)
	}
	p.AddPre("shape check: clusters separate on EPH")
	checkGolden(t, "page.golden.html", string(p.End()))
}

// TestChartGoldens pins the SVG output of the chart primitives the paper
// figures are built from.
func TestChartGoldens(t *testing.T) {
	bar, err := asString(BarChart(nil, "mean EPH per cluster", []string{"C0", "C1"}, []float64{84.25, 190.75}, 480, 300))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "barchart.golden.svg", bar)

	sse, err := asString(SSECurveChart(nil, "SSE elbow", []int{2, 3, 4, 5, 6}, []float64{900, 420, 260, 210, 190}, 4, 480, 300))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ssecurve.golden.svg", sse)
}
