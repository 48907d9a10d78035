// Package core exposes INDICE's public pipeline: an Engine that wires the
// three tiers of the framework together — data pre-processing (geospatial
// cleaning and outlier removal), data selection and analytics (querying,
// K-means with automatic K, CART discretization, association rules), and
// data & knowledge visualization (the informative dashboards).
//
// Typical use:
//
//	eng, _ := core.NewEngine(tab, hierarchy, core.Options{StreetMap: sm, Geocoder: gc})
//	pre, _ := eng.Preprocess(core.DefaultPreprocessConfig())
//	an, _  := eng.Analyze(core.DefaultAnalysisConfig())
//	html, _ := eng.Dashboard(query.PublicAdministration, an)
package core

import (
	"errors"
	"fmt"
	"slices"

	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/geocode"
	"indice/internal/outlier"
	"indice/internal/query"
	"indice/internal/table"
)

// Options configures an Engine.
type Options struct {
	// StreetMap is the referenced street registry for geospatial
	// cleaning; nil disables the cleaning step.
	StreetMap *geocode.StreetMap
	// Geocoder is the remote fallback; nil disables the fallback.
	Geocoder geocode.Geocoder
	// Suggestions records expert outlier configurations; nil creates an
	// empty store.
	Suggestions *outlier.SuggestionStore
}

// Engine orchestrates the INDICE pipeline over one EPC collection. It
// holds its table encoded (table.Encoded, the store segments' form); a
// reader decodes the columns it names (Table) for as long as it reads
// them.
type Engine struct {
	enc         *table.Encoded
	hier        *geo.Hierarchy
	streetMap   *geocode.StreetMap
	geocoder    geocode.Geocoder
	suggestions *outlier.SuggestionStore
}

// NewEngine wraps an EPC table and its administrative hierarchy. The
// engine keeps t encoded, so t is not retained and may be reused:
// Preprocess and Select replace the encoding with their result.
func NewEngine(t *table.Table, h *geo.Hierarchy, opts Options) (*Engine, error) {
	if t == nil || t.NumRows() == 0 {
		return nil, errors.New("core: engine needs a non-empty table")
	}
	return newEngine(table.Encode(t), h, opts)
}

// newEngine is NewEngine over a table already encoded: how a refresh
// publishes the serving rows it encoded a column at a time.
func newEngine(enc *table.Encoded, h *geo.Hierarchy, opts Options) (*Engine, error) {
	if enc.NumRows() == 0 {
		return nil, errors.New("core: engine needs a non-empty table")
	}
	if h == nil {
		return nil, errors.New("core: engine needs an administrative hierarchy")
	}
	for _, required := range []string{
		epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH,
	} {
		if enc.Column(required) == nil {
			return nil, fmt.Errorf("core: table lacks required attribute %q", required)
		}
	}
	sug := opts.Suggestions
	if sug == nil {
		sug = outlier.NewSuggestionStore()
	}
	return &Engine{
		enc:         enc,
		hier:        h,
		streetMap:   opts.StreetMap,
		geocoder:    opts.Geocoder,
		suggestions: sug,
	}, nil
}

// Table decodes the named columns of the engine's table (cleaned after
// Preprocess), in the order given, into a table the caller owns. A name
// the engine's table lacks is skipped, so the reader finds the column
// missing where it looks for it. A live loop's engine holds only the
// columns its readers name (see LiveConfig.servingColumns), not every
// column of the store. Called without names it is Decode: the benchmark
// suite's map visit still reads the table that way.
func (e *Engine) Table(cols ...string) *table.Table {
	if len(cols) == 0 {
		return e.Decode()
	}
	fields := make([]table.Field, 0, len(cols))
	for _, n := range cols {
		c := e.enc.Column(n)
		if c != nil && !slices.ContainsFunc(fields, func(f table.Field) bool { return f.Name == n }) {
			fields = append(fields, table.Field{Name: n, Type: c.Type()})
		}
	}
	// Neither can fail: the fields are distinct columns of the encoding.
	t, _ := table.NewWithSchema(fields)
	_ = e.enc.AppendTo(t)
	return t
}

// Decode decodes every column of the engine's table into a table the
// caller owns: for batch callers and tests that read the whole table.
// A reader that needs a few columns names them to Table instead.
func (e *Engine) Decode() *table.Table { return e.enc.Decode() }

// NumRows returns the row count of the engine's table.
func (e *Engine) NumRows() int { return e.enc.NumRows() }

// TypeOf returns the type of the named column of the engine's table.
func (e *Engine) TypeOf(name string) (table.Type, error) {
	c := e.enc.Column(name)
	if c == nil {
		return 0, fmt.Errorf("%w: %q", table.ErrNoColumn, name)
	}
	return c.Type(), nil
}

// SizeBytes estimates the resident footprint of the engine's encoded
// table (table.Encoded.SizeBytes).
func (e *Engine) SizeBytes() int { return e.enc.SizeBytes() }

// Hierarchy returns the administrative hierarchy.
func (e *Engine) Hierarchy() *geo.Hierarchy { return e.hier }

// Select replaces the engine's table with the subset matching p and
// returns the new row count. This is the querying-engine entry point.
func (e *Engine) Select(p query.Predicate) (int, error) {
	sub, err := query.Select(e.Decode(), p)
	if err != nil {
		return 0, err
	}
	if sub.NumRows() == 0 {
		return 0, errors.New("core: selection matched no certificate")
	}
	e.enc = table.Encode(sub)
	return sub.NumRows(), nil
}

// PreprocessConfig parameterizes the pre-processing tier.
type PreprocessConfig struct {
	// Clean is the geospatial cleaning configuration.
	Clean geocode.CleanConfig
	// SkipCleaning disables the geospatial step even when a street map is
	// available.
	SkipCleaning bool
	// OutlierAttrs are the attributes screened univariately; defaults to
	// the paper's relevant thermo-physical set.
	OutlierAttrs []string
	// Univariate is the detection configuration; when Method is empty the
	// expert suggestion store picks one (the non-expert path).
	Univariate outlier.Config
	// Expert marks this run's configuration as expert-provided; it is
	// then recorded in the suggestion store for future non-expert users.
	Expert bool
	// Multivariate enables the DBSCAN screen over OutlierAttrs, with eps
	// and minPts estimated on a sample.
	Multivariate bool
	// DropOutliers removes flagged rows from the working table.
	DropOutliers bool
	// Parallelism bounds the worker goroutines of the pre-processing tier
	// (address matching, per-attribute detection fan-out, DBSCAN region
	// queries). 0 or 1 run sequentially; results are identical at any
	// setting. It is only applied to the Clean and Univariate
	// sub-configurations when those leave their own Parallelism unset.
	Parallelism int
}

// cleans reports whether Preprocess will run the geospatial step.
func (cfg PreprocessConfig) cleans(m *geocode.StreetMap) bool {
	return !cfg.SkipCleaning && m != nil
}

// outlierAttrs are the screened attributes with the default applied.
func (cfg PreprocessConfig) outlierAttrs() []string {
	if len(cfg.OutlierAttrs) == 0 {
		return epc.CaseStudyAttributes
	}
	return cfg.OutlierAttrs
}

// cleanConfig is the cleaning configuration with the tier's worker count
// applied, unless Clean sets its own.
func (cfg PreprocessConfig) cleanConfig() geocode.CleanConfig {
	c := cfg.Clean
	if c.Parallelism == 0 {
		c.Parallelism = cfg.Parallelism
	}
	return c
}

// DefaultPreprocessConfig mirrors the paper's pre-processing: clean
// geo-coordinates with ϕ=0.8, screen the five thermo-physical attributes
// plus the subsystem efficiencies with MAD (3.5 cutoff), drop flagged rows.
func DefaultPreprocessConfig() PreprocessConfig {
	return PreprocessConfig{
		Clean: geocode.DefaultCleanConfig(),
		OutlierAttrs: append(append([]string(nil), epc.CaseStudyAttributes...),
			"distribution_efficiency", "generation_efficiency"),
		Univariate:   outlier.DefaultConfig(outlier.MethodMAD),
		Expert:       true,
		DropOutliers: true,
	}
}

// PreprocessReport summarizes the pre-processing tier.
type PreprocessReport struct {
	// Cleaning is nil when the geospatial step was skipped.
	Cleaning *geocode.Report
	// Univariate holds the per-attribute detection results.
	Univariate []*outlier.Result
	// UnivariateMethod records which method ran (relevant on the
	// suggestion path).
	UnivariateMethod outlier.Method
	// Suggested is true when the method came from the expert store.
	Suggested bool
	// Multivariate is nil unless the DBSCAN screen ran.
	Multivariate *outlier.MultivariateResult
	// OutlierRows is the union of flagged rows (indices into the table
	// before dropping).
	OutlierRows []int
	// RowsBefore/RowsAfter document the removal.
	RowsBefore, RowsAfter int
}

// Preprocess runs the pre-processing tier and, when configured, replaces
// the engine's table with the cleaned one.
func (e *Engine) Preprocess(cfg PreprocessConfig) (*PreprocessReport, error) {
	// The pre-processing tier works on a decoded copy (cleaning rewrites
	// cells) and encodes what it keeps.
	tab := e.Decode()
	rep := &PreprocessReport{RowsBefore: tab.NumRows()}

	if cfg.cleans(e.streetMap) {
		crep, err := cleanTable(tab, e.hier, e.streetMap, e.geocoder, cfg.cleanConfig())
		if err != nil {
			return nil, err
		}
		rep.Cleaning = crep
	}

	attrs := cfg.outlierAttrs()
	ucfg := cfg.Univariate
	if ucfg.Method == "" {
		// Non-expert path: consult the expert suggestion store.
		suggested, ok := e.suggestions.Suggest(attrs[0])
		ucfg = suggested
		rep.Suggested = ok
	} else if cfg.Expert {
		for _, a := range attrs {
			e.suggestions.Record(outlier.UsageRecord{Attr: a, Config: ucfg, Expert: true})
		}
	}
	union, err := univariateScreen(tab, cfg, ucfg, rep)
	if err != nil {
		return nil, err
	}
	flagged := map[int]struct{}{}
	for _, r := range union {
		flagged[r] = struct{}{}
	}

	if cfg.Multivariate {
		mres, err := outlier.DetectMultivariate(tab, attrs, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("core: preprocess: %w", err)
		}
		rep.Multivariate = mres
		for _, r := range mres.Rows {
			flagged[r] = struct{}{}
		}
	}

	rep.OutlierRows = make([]int, 0, len(flagged))
	for r := range flagged {
		rep.OutlierRows = append(rep.OutlierRows, r)
	}
	slices.Sort(rep.OutlierRows)

	if cfg.DropOutliers && len(rep.OutlierRows) > 0 {
		if tab, err = outlier.RemoveRows(tab, rep.OutlierRows); err != nil {
			return nil, fmt.Errorf("core: preprocess: %w", err)
		}
	}
	e.enc = table.Encode(tab)
	rep.RowsAfter = tab.NumRows()
	return rep, nil
}

// cleanTable is the geospatial cleaning step, applied to tab in place:
// per-row address reconciliation against the street map, then the
// administrative labels recomputed from the reconciled coordinates when
// the columns exist. Preprocess cleans its decoded table with it, a live
// refresh the rows it materialized (every row on a full refresh, the delta
// on an incremental one).
func cleanTable(tab *table.Table, hier *geo.Hierarchy, sm *geocode.StreetMap, gc geocode.Geocoder, cfg geocode.CleanConfig) (*geocode.Report, error) {
	cl, err := geocode.NewCleaner(sm, gc, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: preprocess: %w", err)
	}
	crep, err := cl.Clean(tab)
	if err != nil {
		return nil, fmt.Errorf("core: preprocess: %w", err)
	}
	if tab.HasColumn(epc.AttrDistrict) && tab.HasColumn(epc.AttrNeighbourhood) {
		if err := reassignZones(tab, hier); err != nil {
			return nil, err
		}
	}
	// The table is kept (as a serving table's source, as lineage): without
	// the value indexes rewriting its cells built.
	tab.DropIndex()
	return crep, nil
}

// univariateScreen runs the univariate outlier screen over tab, records
// the per-attribute results in rep and returns the sorted union of
// flagged rows.
func univariateScreen(tab *table.Table, cfg PreprocessConfig, ucfg outlier.Config, rep *PreprocessReport) ([]int, error) {
	rep.UnivariateMethod = ucfg.Method
	if ucfg.Parallelism == 0 {
		ucfg.Parallelism = cfg.Parallelism
	}
	results, union, err := outlier.DetectColumns(tab, cfg.outlierAttrs(), ucfg)
	if err != nil {
		return nil, fmt.Errorf("core: preprocess: %w", err)
	}
	rep.Univariate = results
	return union, nil
}

// reassignZones recomputes the administrative labels of tab from its
// coordinates.
func reassignZones(tab *table.Table, hier *geo.Hierarchy) error {
	lat, err := tab.Floats(epc.AttrLatitude)
	if err != nil {
		return err
	}
	lon, _ := tab.Floats(epc.AttrLongitude)
	pts := make([]geo.Point, len(lat))
	for i := range lat {
		pts[i] = geo.Point{Lat: lat[i], Lon: lon[i]}
	}
	dist := hier.Assign(pts, geo.LevelDistrict)
	neigh := hier.Assign(pts, geo.LevelNeighbourhood)
	for i := range pts {
		if dist[i] != "" {
			if err := tab.SetString(epc.AttrDistrict, i, dist[i]); err != nil {
				return err
			}
		}
		if neigh[i] != "" {
			if err := tab.SetString(epc.AttrNeighbourhood, i, neigh[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
