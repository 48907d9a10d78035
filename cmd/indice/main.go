// Command indice runs the full INDICE pipeline over an EPC collection:
// load → select → pre-process (geospatial cleaning + outlier removal) →
// analyze (correlations, K-means with elbow K, CART discretization,
// association rules) → render the informative dashboard.
//
//	indice -epcs epcs.csv -streets streets.csv -stakeholder pa -out dashboard.html
//
// The -query flag narrows the collection with the same predicate DSL the
// server's /api/query speaks (see internal/query.Parse):
//
//	indice -epcs epcs.csv -query 'eph in [50, 150] and energy_class in {C, D}'
//
// Input files come from epcgen (or any source honouring the typed-CSV
// schema of internal/table and the street-map CSV layout of epcgen).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/geocode"
	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/table"
)

// options carries the parsed command line; run executes the pipeline so
// tests can drive the batch path without exec'ing the binary.
type options struct {
	epcsPath    string
	streetsPath string
	stakeholder string
	out         string
	phi         float64
	quota       int
	use         string
	queryDSL    string
	kMax        int
	skipAnalyze bool
	reportPath  string
	parallelism int
}

func main() {
	var o options
	flag.StringVar(&o.epcsPath, "epcs", "", "EPC table (typed CSV from epcgen); required")
	flag.StringVar(&o.streetsPath, "streets", "", "referenced street map CSV; enables geospatial cleaning")
	flag.StringVar(&o.stakeholder, "stakeholder", "public-administration", "citizen | public-administration | energy-scientist")
	flag.StringVar(&o.out, "out", "dashboard.html", "dashboard output path")
	flag.Float64Var(&o.phi, "phi", 0.8, "Levenshtein similarity threshold for address reconciliation")
	flag.IntVar(&o.quota, "geocoder-quota", 1000, "free remote geocoding requests (simulated)")
	flag.StringVar(&o.use, "use", epc.UseResidential, "intended-use selection ('' disables)")
	flag.StringVar(&o.queryDSL, "query", "", `predicate DSL selection, e.g. 'eph in [50, 150] and energy_class in {C, D}'; ANDs with -use`)
	flag.IntVar(&o.kMax, "kmax", 10, "upper bound of the K-means sweep")
	flag.BoolVar(&o.skipAnalyze, "skip-analysis", false, "skip the analytics tier (maps only)")
	flag.StringVar(&o.reportPath, "report", "", "optional markdown run-report output path")
	flag.IntVar(&o.parallelism, "parallelism", 0, "analytics worker goroutines (0 = all CPUs, 1 = sequential); results are identical at any setting")
	flag.Parse()
	if err := run(o, os.Stderr); err != nil {
		fatal(err)
	}
}

func run(o options, logw io.Writer) error {
	if o.epcsPath == "" {
		return fmt.Errorf("-epcs is required")
	}
	workers := o.parallelism
	if workers == 0 {
		workers = parallel.Auto
	}
	var sel query.Predicate
	if o.queryDSL != "" {
		var err error
		if sel, err = query.Parse(o.queryDSL); err != nil {
			return err
		}
	}

	tab, err := loadTable(o.epcsPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "loaded %d certificates x %d attributes\n", tab.NumRows(), tab.NumCols())

	hier, err := hierarchyFromData(tab)
	if err != nil {
		return err
	}

	opts := core.Options{}
	if o.streetsPath != "" {
		sm, err := loadStreetMap(o.streetsPath)
		if err != nil {
			return err
		}
		opts.StreetMap = sm
		opts.Geocoder = geocode.NewMockGeocoder(sm, o.quota)
	}
	eng, err := core.NewEngine(tab, hier, opts)
	if err != nil {
		return err
	}

	if o.use != "" {
		n, err := eng.Select(query.In{Attr: epc.AttrIntendedUse, Values: []string{o.use}})
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "selected %d certificates with intended use %s\n", n, o.use)
	}
	if sel != nil {
		n, err := eng.Select(sel)
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "selected %d certificates matching %s\n", n, sel)
	}

	pcfg := core.DefaultPreprocessConfig()
	pcfg.Clean.Phi = o.phi
	pcfg.Parallelism = workers
	rep, err := eng.Preprocess(pcfg)
	if err != nil {
		return err
	}
	if rep.Cleaning != nil {
		fmt.Fprintf(logw,
			"cleaning: %d untouched, %d via street map, %d geocoded, %d unresolved (%d remote requests)\n",
			rep.Cleaning.Untouched, rep.Cleaning.StreetMap, rep.Cleaning.Geocoded,
			rep.Cleaning.Unresolved, rep.Cleaning.GeocoderRequests)
	}
	fmt.Fprintf(logw, "outliers (%s): removed %d rows, %d remain\n",
		rep.UnivariateMethod, len(rep.OutlierRows), rep.RowsAfter)

	var an *core.Analysis
	if !o.skipAnalyze {
		acfg := core.DefaultAnalysisConfig()
		acfg.KMax = o.kMax
		acfg.Parallelism = workers
		an, err = eng.Analyze(acfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "analytics: K=%d clusters, %d association rules, weakly correlated=%v\n",
			an.ChosenK, len(an.Rules), an.WeaklyCorrelated)
	}

	s, err := query.ParseStakeholder(o.stakeholder)
	if err != nil {
		return err
	}
	html, err := eng.DashboardBytes(s, an)
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, html, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(logw, "wrote %s dashboard to %s (%d bytes)\n", s, o.out, len(html))

	if o.reportPath != "" {
		if err := os.WriteFile(o.reportPath, []byte(eng.Report(rep, an)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(logw, "wrote run report to %s\n", o.reportPath)
	}
	return nil
}

func loadTable(path string) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return table.ReadCSV(f)
}

// loadStreetMap parses the epcgen street CSV layout:
// street,house_number,zip,lat,lon with a header row.
func loadStreetMap(path string) (*geocode.StreetMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	if _, err := r.Read(); err != nil { // header
		return nil, fmt.Errorf("reading street map header: %w", err)
	}
	var entries []geocode.ReferenceEntry
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading street map: %w", err)
		}
		if len(rec) != 5 {
			return nil, fmt.Errorf("street map row has %d fields, want 5", len(rec))
		}
		lat, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("street map latitude: %w", err)
		}
		lon, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("street map longitude: %w", err)
		}
		entries = append(entries, geocode.ReferenceEntry{
			Street:      rec[0],
			HouseNumber: rec[1],
			ZIP:         rec[2],
			Point:       geo.Point{Lat: lat, Lon: lon},
		})
	}
	return geocode.NewStreetMap(entries)
}

// hierarchyFromData builds the 2x4-district grid hierarchy over the
// observed coordinate bounds — the CLI fallback when no official zone
// polygons ship with the data.
func hierarchyFromData(t *table.Table) (*geo.Hierarchy, error) {
	lat, err := t.Floats(epc.AttrLatitude)
	if err != nil {
		return nil, err
	}
	lon, err := t.Floats(epc.AttrLongitude)
	if err != nil {
		return nil, err
	}
	b := geo.EmptyBounds()
	for i := range lat {
		p := geo.Point{Lat: lat[i], Lon: lon[i]}
		if p.Valid() && (p.Lat != 0 || p.Lon != 0) {
			b = b.Extend(p)
		}
	}
	if b.IsEmpty() {
		return nil, fmt.Errorf("no valid coordinates in the dataset")
	}
	// Grow slightly so boundary points stay strictly inside.
	const pad = 1e-4
	b.MinLat -= pad
	b.MinLon -= pad
	b.MaxLat += pad
	b.MaxLon += pad
	city := "dataset"
	if cities, err := t.Strings(epc.AttrCity); err == nil && len(cities) > 0 {
		city = cities[0]
	}
	return geo.GridHierarchy(city, b, 2, 4, 2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indice:", err)
	os.Exit(1)
}
