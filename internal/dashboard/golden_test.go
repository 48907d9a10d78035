package dashboard

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"indice/internal/epc"
	"indice/internal/geo"
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
		t.Fatalf("missing golden file (run `go test ./internal/dashboard -update` to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden copy.\nIf the change is intentional, regenerate with `go test ./internal/dashboard -update`.\ngot %d bytes, want %d bytes", name, len(got), len(want))
	}
}

// TestRenderMapGoldens pins the exact markup of every Figure-2 map kind
// over the deterministic fixture, one golden file per zoom level, so
// dashboard refactors can't silently change the paper figures.
func TestRenderMapGoldens(t *testing.T) {
	tab, h := testWorld(t)
	for _, level := range []geo.Level{geo.LevelUnit, geo.LevelNeighbourhood, geo.LevelDistrict, geo.LevelCity} {
		svg, kind, err := RenderMap(tab, h, MapSpec{
			Title: fmt.Sprintf("golden — %s", level),
			Level: level,
			Attr:  epc.AttrEPH,
		})
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		name := fmt.Sprintf("map_%s_%s.golden.svg", strings.ReplaceAll(level.String(), " ", "_"), kind)
		checkGolden(t, name, string(svg))
	}
}

// TestDistributionPanelGolden pins the histogram panel markup.
func TestDistributionPanelGolden(t *testing.T) {
	tab, _ := testWorld(t)
	p, err := NewDistributionPanel(tab, epc.AttrEPH, 4, 320, 200)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := p.Draw(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "distribution_panel.golden.svg", string(svg))
	checkGolden(t, "distribution_stats.golden.txt", strings.Join(p.StatsRow(), "|")+"\n")
}
