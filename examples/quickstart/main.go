// Quickstart: generate a synthetic EPC collection, run the full INDICE
// pipeline with defaults, and write a public-administration dashboard.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"indice/internal/core"
	"indice/internal/geocode"
	"indice/internal/query"
	"indice/internal/synth"
)

func main() {
	// 1. A synthetic city and EPC collection (stand-ins for the Piedmont
	// open data).
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := synth.DefaultConfig()
	cfg.Certificates = 5000
	ds, err := synth.Generate(cfg, city)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d certificates x %d attributes\n",
		ds.Table.NumRows(), ds.Table.NumCols())

	// 2. Wire the engine with the referenced street map and the remote
	// geocoder fallback.
	sm, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Table, city.Hierarchy, core.Options{
		StreetMap: sm,
		Geocoder:  geocode.NewMockGeocoder(sm, 500),
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Pre-process: geospatial cleaning + MAD outlier removal.
	rep, err := eng.Preprocess(core.DefaultPreprocessConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pre-processing: %d -> %d rows (%d outliers removed)\n",
		rep.RowsBefore, rep.RowsAfter, len(rep.OutlierRows))

	// 4. Analytics: correlations, elbow-K K-means, CART bins, rules.
	acfg := core.DefaultAnalysisConfig()
	acfg.KMax = 8
	an, err := eng.Analyze(acfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analytics: K=%d, %d rules, weakly correlated predictors: %v\n",
		an.ChosenK, len(an.Rules), an.WeaklyCorrelated)

	// 5. The informative dashboard.
	html, err := eng.Dashboard(query.PublicAdministration, an)
	if err != nil {
		log.Fatal(err)
	}
	const out = "quickstart_dashboard.html"
	if err := os.WriteFile(out, []byte(html), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", out, len(html))
}
