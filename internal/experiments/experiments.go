// Package experiments regenerates every evaluation artifact of the paper
// (see docs/benchmarks.md's per-experiment index): the dataset statistics of §3
// (E1), the geospatial cleaning behaviour of §2.1.1 (E2), the outlier
// detectors of §2.1.2 (E3), the Figure 3 correlation matrix (E4), the
// Figure 4 analytics panels (E5, E6), the Figure 2 map drill-down (E7) and
// the per-stakeholder dashboards (E8). Each experiment returns a textual
// report with the measured quantities to compare against the paper
// and writes SVG/HTML artifacts when given an output directory.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/geocode"
	"indice/internal/outlier"
	"indice/internal/synth"
	"indice/internal/table"
)

// Scale parameterizes how large the synthetic universe is; the defaults
// reproduce the paper's ~25 000 certificates.
type Scale struct {
	Certificates int
	Streets      int
	Civics       int
	Seed         int64
}

// PaperScale mirrors §3 of the paper.
func PaperScale() Scale {
	return Scale{Certificates: 25000, Streets: 240, Civics: 50, Seed: 1}
}

// TestScale is a fast variant for unit tests and CI.
func TestScale() Scale {
	return Scale{Certificates: 2000, Streets: 60, Civics: 12, Seed: 1}
}

// World bundles the synthetic universe shared by the experiments.
type World struct {
	Scale Scale
	City  *synth.City
	// Clean is the pristine generated table; Dirty the corrupted copy.
	Clean *table.Table
	Dirty *table.Table
	Truth *synth.Truth
	// StreetMap indexes the city registry for reconciliation.
	StreetMap *geocode.StreetMap
}

// NewWorld generates the shared universe.
func NewWorld(s Scale) (*World, error) {
	ccfg := synth.DefaultCityConfig()
	ccfg.Seed = s.Seed
	ccfg.Streets = s.Streets
	ccfg.CivicsPerStreet = s.Civics
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		return nil, err
	}
	gcfg := synth.DefaultConfig()
	gcfg.Seed = s.Seed
	gcfg.Certificates = s.Certificates
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		return nil, err
	}
	dirty, truth, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		return nil, err
	}
	sm, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		return nil, err
	}
	return &World{
		Scale:     s,
		City:      city,
		Clean:     ds.Table,
		Dirty:     dirty,
		Truth:     truth,
		StreetMap: sm,
	}, nil
}

// engine builds a core.Engine over a clone of the given table.
func (w *World) engine(t *table.Table, quota int) (*core.Engine, error) {
	return core.NewEngine(t.Clone(), w.City.Hierarchy, core.Options{
		StreetMap: w.StreetMap,
		Geocoder:  geocode.NewMockGeocoder(w.StreetMap, quota),
	})
}

// Result is one experiment's report.
type Result struct {
	ID      string
	Title   string
	Report  string
	Figures []string // file paths written, if any
}

// Runner executes experiments against one World, writing figures under
// OutDir when non-empty.
type Runner struct {
	World  *World
	OutDir string
	// Parallelism threads into the analytics and pre-processing tiers of
	// every experiment (0 or 1 sequential, negative = all CPUs). Reports
	// are identical at any setting.
	Parallelism int
}

// writeFigure persists an artifact and returns its path (empty without an
// output directory).
func (r *Runner) writeFigure(name string, content []byte) (string, error) {
	if r.OutDir == "" {
		return "", nil
	}
	if err := os.MkdirAll(r.OutDir, 0o755); err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	path := filepath.Join(r.OutDir, name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	return path, nil
}

// Run dispatches an experiment by ID (E1..E8).
func (r *Runner) Run(id string) (*Result, error) {
	switch strings.ToUpper(id) {
	case "E1":
		return r.E1()
	case "E2":
		return r.E2()
	case "E3":
		return r.E3()
	case "E4":
		return r.E4()
	case "E5":
		return r.E5()
	case "E6":
		return r.E6()
	case "E7":
		return r.E7()
	case "E8":
		return r.E8()
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"}
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := r.Run(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// E1 reproduces the §3 dataset statistics.
func (r *Runner) E1() (*Result, error) {
	w := r.World
	var b strings.Builder
	numeric := len(w.Clean.NumericColumns())
	categorical := len(w.Clean.CategoricalColumns())
	fmt.Fprintf(&b, "certificates: %d (paper: ~25000)\n", w.Clean.NumRows())
	fmt.Fprintf(&b, "attributes:   %d (paper: 132)\n", w.Clean.NumCols())
	fmt.Fprintf(&b, "  categorical: %d (paper: 89)\n", categorical)
	fmt.Fprintf(&b, "  numeric:     %d (paper: 43)\n", numeric)
	issues := epc.ValidateTable(w.Clean)
	fmt.Fprintf(&b, "schema validation issues: %d\n", len(issues))

	uses, err := w.Clean.Strings(epc.AttrIntendedUse)
	if err != nil {
		return nil, err
	}
	res := 0
	for _, u := range uses {
		if u == epc.UseResidential {
			res++
		}
	}
	fmt.Fprintf(&b, "E.1.1 residential units: %d (%.1f%%) — the case-study selection\n",
		res, 100*float64(res)/float64(len(uses)))
	fmt.Fprintf(&b, "issue years 2016-2018: as generated (paper: 2016-2018)\n")
	return &Result{ID: "E1", Title: "Dataset statistics (§3)", Report: b.String()}, nil
}

// E2 reproduces the geospatial cleaning of §2.1.1 with a ϕ sweep.
func (r *Runner) E2() (*Result, error) {
	w := r.World
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %10s %10s %10s %10s %12s %10s\n",
		"phi", "untouched", "streetmap", "geocoded", "unresolved", "geocoderReq", "recovery")
	for _, phi := range []float64{0.70, 0.75, 0.80, 0.85, 0.90, 0.95} {
		work := w.Dirty.Clone()
		cl, err := geocode.NewCleaner(w.StreetMap,
			geocode.NewMockGeocoder(w.StreetMap, w.Scale.Certificates), // generous quota
			geocode.CleanConfig{Phi: phi})
		if err != nil {
			return nil, err
		}
		rep, err := cl.Clean(work)
		if err != nil {
			return nil, err
		}
		addr, _ := work.Strings(epc.AttrAddress)
		recovered := 0
		for _, row := range w.Truth.TypoRows {
			if addr[row] == w.Truth.Address[row] {
				recovered++
			}
		}
		rate := 0.0
		if len(w.Truth.TypoRows) > 0 {
			rate = float64(recovered) / float64(len(w.Truth.TypoRows))
		}
		fmt.Fprintf(&b, "%6.2f %10d %10d %10d %10d %12d %9.1f%%\n",
			phi, rep.Untouched, rep.StreetMap, rep.Geocoded, rep.Unresolved,
			rep.GeocoderRequests, 100*rate)
	}
	b.WriteString("shape check: geocoder used only when street-map similarity < phi;\n")
	b.WriteString("higher phi shifts resolution from the street map to the remote fallback.\n")
	return &Result{ID: "E2", Title: "Geospatial cleaning, ϕ sweep (§2.1.1)", Report: b.String()}, nil
}

// E3 compares the outlier detectors of §2.1.2 on the planted outliers.
func (r *Runner) E3() (*Result, error) {
	w := r.World
	planted := make(map[int]bool)
	for _, rows := range w.Truth.OutlierRows {
		for _, row := range rows {
			planted[row] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "planted gross outliers: %d rows\n", len(planted))
	fmt.Fprintf(&b, "%-18s %9s %9s %9s %9s\n", "method", "flagged", "hits", "precision", "recall")

	score := func(name string, rows []int) {
		hits := 0
		for _, row := range rows {
			if planted[row] {
				hits++
			}
		}
		prec, rec := 0.0, 0.0
		if len(rows) > 0 {
			prec = float64(hits) / float64(len(rows))
		}
		if len(planted) > 0 {
			rec = float64(hits) / float64(len(planted))
		}
		fmt.Fprintf(&b, "%-18s %9d %9d %8.1f%% %8.1f%%\n", name, len(rows), hits, 100*prec, 100*rec)
	}

	eng, err := w.engine(w.Dirty, 0)
	if err != nil {
		return nil, err
	}
	attrs := epc.CaseStudyAttributes
	for _, m := range []outlier.Method{outlier.MethodBoxplot, outlier.MethodGESD, outlier.MethodMAD} {
		cfg := core.DefaultPreprocessConfig()
		cfg.SkipCleaning = true
		cfg.DropOutliers = false
		cfg.OutlierAttrs = attrs
		cfg.Univariate = outlier.DefaultConfig(m)
		cfg.Parallelism = r.Parallelism
		rep, err := eng.Preprocess(cfg)
		if err != nil {
			return nil, err
		}
		score(string(m), rep.OutlierRows)
	}
	// Multivariate DBSCAN with auto parameters.
	cfg := core.DefaultPreprocessConfig()
	cfg.SkipCleaning = true
	cfg.DropOutliers = false
	cfg.OutlierAttrs = attrs
	cfg.Univariate = outlier.DefaultConfig(outlier.MethodMAD)
	cfg.Multivariate = true
	cfg.Parallelism = r.Parallelism
	rep, err := eng.Preprocess(cfg)
	if err != nil {
		return nil, err
	}
	if rep.Multivariate != nil {
		score("dbscan(auto)", rep.Multivariate.Rows)
		fmt.Fprintf(&b, "dbscan auto params: eps=%.4f minPts=%d clusters=%d\n",
			rep.Multivariate.Eps, rep.Multivariate.MinPts, rep.Multivariate.Clusters)
	}
	b.WriteString("shape check: every method recalls the gross planted outliers;\n")
	b.WriteString("boxplot flags the most points (tail-heavy attributes), gESD the fewest.\n")
	return &Result{ID: "E3", Title: "Outlier detection and removal (§2.1.2)", Report: b.String()}, nil
}
