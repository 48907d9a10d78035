// The paper's §3 case study, end to end: the public administration tailors
// the analysis to the city's E.1.1 permanent residences, cleans the dirty
// open-data dump against the municipal street registry, checks that the
// thermo-physical attribute subset is weakly correlated (Figure 3),
// clusters buildings with K-means and the SSE elbow, mines association
// rules over CART-discretized attributes (Figure 4), and explores the
// energy maps at every zoom level (Figure 2).
//
//	go run ./examples/public-administration
package main

import (
	"fmt"
	"log"
	"os"

	"indice/internal/assoc"
	"indice/internal/core"
	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/geocode"
	"indice/internal/query"
	"indice/internal/synth"
)

func main() {
	// The dirty open-data dump: ~12% of addresses carry typos, ZIP codes
	// and coordinates are missing or wrong, gross outliers lurk in the
	// thermo-physical attributes.
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := synth.DefaultConfig()
	cfg.Certificates = 8000
	ds, err := synth.Generate(cfg, city)
	if err != nil {
		log.Fatal(err)
	}
	dirty, truth, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("open-data dump: %d certificates; %d planted address typos\n",
		dirty.NumRows(), len(truth.TypoRows))

	sm, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(dirty, city.Hierarchy, core.Options{
		StreetMap: sm,
		Geocoder:  geocode.NewMockGeocoder(sm, 2000), // free-request budget
	})
	if err != nil {
		log.Fatal(err)
	}

	// Case-study selection: housing units of type E.1.1.
	n, err := eng.Select(query.Residential())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d E.1.1 residences\n", n)

	// Pre-processing with the paper's defaults (phi=0.8, MAD 3.5).
	rep, err := eng.Preprocess(core.DefaultPreprocessConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cleaning: %d via street map, %d geocoded, %d unresolved; %d outlier rows removed\n",
		rep.Cleaning.StreetMap, rep.Cleaning.Geocoded, rep.Cleaning.Unresolved, len(rep.OutlierRows))

	// Analytics over {S/V, Uo, Uw, Sr, ETAH} with response EPH.
	an, err := eng.Analyze(core.DefaultAnalysisConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("correlation check (Figure 3): max |r| = %.3f -> weakly correlated = %v\n",
		an.Correlations.MaxAbsOffDiagonal(), an.WeaklyCorrelated)
	fmt.Printf("K-means (Figure 4): elbow K = %d, cluster sizes %v\n",
		an.ChosenK, an.Clustering.Sizes)
	for c, m := range an.ClusterResponseMeans {
		fmt.Printf("  cluster %d: mean EPH %.1f kWh/m2y\n", c, m)
	}

	// The footnote-4 style discretizations and the rule table.
	for _, attr := range []string{epc.AttrUWindows, epc.AttrUOpaque, epc.AttrETAH} {
		fmt.Println(" ", an.Binnings[attr])
	}
	top := assoc.TopK(an.Rules, assoc.ByLift, 8)
	fmt.Println("top rules by lift:")
	fmt.Print(assoc.FormatTable(top))

	// Figure 2: the drill-down — one map per zoom level.
	for _, level := range []geo.Level{geo.LevelCity, geo.LevelDistrict, geo.LevelNeighbourhood, geo.LevelUnit} {
		svg, kind, err := dashboard.RenderMap(eng.Table(), eng.Hierarchy(), dashboard.MapSpec{
			Title: fmt.Sprintf("EPH at %s zoom", level),
			Level: level,
			Attr:  epc.AttrEPH,
		})
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("pa_map_%s.svg", level)
		if err := os.WriteFile(name, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%s map)\n", name, kind)
	}

	// And the full interactive dashboard document.
	html, err := eng.Dashboard(query.PublicAdministration, an)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("pa_dashboard.html", []byte(html), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote pa_dashboard.html (%d bytes)\n", len(html))
}
