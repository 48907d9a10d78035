// The citizen scenario of §2.2.1: a prospective buyer wants to "discover
// areas of the city with more performing buildings, to buy a flat that
// performs well in terms of energy efficiency". The example queries the
// collection district by district, ranks areas by average heating demand,
// inspects the energy-class mix of the best district, and renders the
// neighbourhood choropleth the citizen dashboard proposes.
//
//	go run ./examples/citizen
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"indice/internal/core"
	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/query"
	"indice/internal/stats"
	"indice/internal/synth"
)

func main() {
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := synth.DefaultConfig()
	cfg.Certificates = 6000
	ds, err := synth.Generate(cfg, city)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Table, city.Hierarchy, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Select(query.Residential()); err != nil {
		log.Fatal(err)
	}
	// The data is clean in this scenario; only screen outliers.
	pcfg := core.DefaultPreprocessConfig()
	pcfg.SkipCleaning = true
	if _, err := eng.Preprocess(pcfg); err != nil {
		log.Fatal(err)
	}

	// Rank districts by mean normalized heating demand.
	// The coordinates and the response, decoded once for the ranking and
	// the map.
	tab := eng.Table(epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH)
	zs, err := dashboard.AggregateByZone(tab, eng.Hierarchy(), geo.LevelDistrict, epc.AttrEPH)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(zs, func(i, j int) bool { return zs[i].Mean < zs[j].Mean })
	fmt.Println("districts ranked by average EPH (lower = more efficient):")
	for rank, z := range zs {
		fmt.Printf("  %d. %-12s mean EPH %6.1f kWh/m2y over %d certificates\n",
			rank+1, z.Zone.Name, z.Mean, z.Count)
	}
	best := zs[0]

	// Drill into the best district: energy class mix.
	sub, err := query.Select(eng.Table(epc.AttrDistrict, epc.AttrEnergyClass), query.InDistrict(best.Zone.ID))
	if err != nil {
		log.Fatal(err)
	}
	classes, err := sub.Strings(epc.AttrEnergyClass)
	if err != nil {
		log.Fatal(err)
	}
	d := stats.DescribeCategorical(classes, 4)
	fmt.Printf("\nbest district %q: %d residences, modal class %s (%d units)\n",
		best.Zone.Name, d.Count, d.Mode, d.ModeFreq)
	for _, c := range d.TopK {
		fmt.Printf("  class %-3s %5d units (%.1f%%)\n",
			c.Value, c.Count, 100*float64(c.Count)/float64(d.Count))
	}

	// The neighbourhood choropleth the citizen dashboard proposes.
	svg, kind, err := dashboard.RenderMap(tab, eng.Hierarchy(), dashboard.MapSpec{
		Title: "Average EPH by neighbourhood",
		Level: geo.LevelNeighbourhood,
		Attr:  epc.AttrEPH,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("citizen_choropleth.svg", svg, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote citizen_choropleth.svg (%s map)\n", kind)

	// The complete citizen dashboard needs no analytics tier.
	html, err := eng.DashboardBytes(query.Citizen, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("citizen_dashboard.html", html, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote citizen_dashboard.html (%d bytes)\n", len(html))
}
