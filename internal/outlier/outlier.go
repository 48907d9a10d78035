// Package outlier implements the INDICE outlier detection and removal
// stage (§2.1.2): the three univariate methods (graphic boxplot,
// generalized ESD, non-parametric MAD), the expert-driven configuration
// store that suggests a default method to non-expert users, and the
// multivariate DBSCAN detector with automatic parameter estimation from
// k-distance plots.
package outlier

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"indice/internal/cluster"
	"indice/internal/parallel"
	"indice/internal/stats"
	"indice/internal/table"
)

// Method identifies a univariate detection technique.
type Method string

const (
	// MethodBoxplot flags values outside the Tukey whiskers.
	MethodBoxplot Method = "boxplot"
	// MethodGESD runs the generalized extreme Studentized deviate test.
	MethodGESD Method = "gesd"
	// MethodMAD flags modified z-scores above the Iglewicz-Hoaglin cutoff.
	MethodMAD Method = "mad"
)

// Config parameterizes a univariate detection run.
type Config struct {
	Method Method
	// BoxplotK is the whisker factor (default 1.5).
	BoxplotK float64
	// GESDMaxOutliers is the upper bound k on the number of outliers the
	// gESD test considers (default max(1, n/50)).
	GESDMaxOutliers int
	// GESDAlpha is the significance level (default 0.05).
	GESDAlpha float64
	// MADCutoff is the modified z-score threshold (default 3.5, the value
	// the paper adopts from Iglewicz & Hoaglin).
	MADCutoff float64
	// Parallelism bounds the worker goroutines of DetectColumns, which
	// fans out across attributes. 0 or 1 run sequentially; per-attribute
	// detections are independent, so results are identical at any setting.
	Parallelism int
}

// DefaultConfig returns the defaults for the given method.
func DefaultConfig(m Method) Config {
	return Config{
		Method:          m,
		BoxplotK:        1.5,
		GESDAlpha:       0.05,
		MADCutoff:       3.5,
		GESDMaxOutliers: 0, // derived from n at run time
	}
}

// Result reports a detection run on one attribute.
type Result struct {
	Attr    string
	Method  Method
	Rows    []int // flagged row indices, ascending
	Checked int   // number of valid cells examined
}

// DetectColumn runs the configured univariate method on the named numeric
// column of t and returns the flagged rows.
func DetectColumn(t *table.Table, attr string, cfg Config) (*Result, error) {
	vals, err := t.Floats(attr)
	if err != nil {
		return nil, fmt.Errorf("outlier: %w", err)
	}
	mask, _ := t.ValidMask(attr)
	if cfg.Method == MethodMAD {
		return detectMAD(attr, vals, mask, cfg.MADCutoff)
	}
	// Collect valid values with their row indices.
	rows := make([]int, 0, len(vals))
	xs := make([]float64, 0, len(vals))
	for i, v := range vals {
		if mask[i] {
			rows = append(rows, i)
			xs = append(xs, v)
		}
	}
	res := &Result{Attr: attr, Method: cfg.Method, Checked: len(xs)}
	if len(xs) == 0 {
		return res, nil
	}
	local, err := detectValues(attr, xs, cfg)
	if err != nil {
		return nil, err
	}
	for _, i := range local {
		res.Rows = append(res.Rows, rows[i])
	}
	return res, nil
}

// detectValues runs the configured univariate method over a dense value
// slice and returns the flagged local indices, ascending.
func detectValues(attr string, xs []float64, cfg Config) ([]int, error) {
	var out []int
	switch cfg.Method {
	case MethodBoxplot:
		k := cfg.BoxplotK
		if k <= 0 {
			k = 1.5
		}
		f, err := stats.Fences(xs, k)
		if err != nil {
			return nil, fmt.Errorf("outlier: boxplot on %q: %w", attr, err)
		}
		for i, v := range xs {
			if v < f.Lower || v > f.Upper {
				out = append(out, i)
			}
		}
	case MethodGESD:
		if len(xs) < 3 {
			return nil, nil
		}
		max := cfg.GESDMaxOutliers
		if max <= 0 {
			max = len(xs) / 50
			if max < 1 {
				max = 1
			}
		}
		alpha := cfg.GESDAlpha
		if alpha <= 0 || alpha >= 1 {
			alpha = 0.05
		}
		_, idx, err := stats.GESD(xs, max, alpha)
		if err != nil {
			return nil, fmt.Errorf("outlier: gESD on %q: %w", attr, err)
		}
		out = append(out, idx...)
		slices.Sort(out)
	default:
		return nil, fmt.Errorf("outlier: unknown method %q", cfg.Method)
	}
	return out, nil
}

// detectMAD is the non-parametric screen of one column: it flags the
// valid, finite cells whose modified z-score exceeds cut in magnitude. It
// runs at every refresh of a live node over every pre-drop row, so it
// copies the finite cells once, selects the median and the MAD on that
// scratch (stats.MedianMAD) and scores the cells where they lie: no other
// copy, no sort, no score array.
func detectMAD(attr string, vals []float64, valid []bool, cut float64) (*Result, error) {
	if cut <= 0 {
		cut = 3.5
	}
	res := &Result{Attr: attr, Method: MethodMAD}
	finite := make([]float64, 0, len(vals))
	for i, v := range vals {
		if !valid[i] {
			continue
		}
		res.Checked++
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite = append(finite, v)
		}
	}
	if res.Checked == 0 {
		return res, nil
	}
	med, mad, err := stats.MedianMAD(finite)
	if err != nil {
		return nil, fmt.Errorf("outlier: MAD on %q: %w", attr, err)
	}
	for i, v := range vals {
		if !valid[i] || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if math.Abs(stats.ModifiedZ(v, med, mad)) > cut {
			res.Rows = append(res.Rows, i)
		}
	}
	return res, nil
}

// DetectColumns runs the same configuration over several attributes and
// returns the union of flagged rows together with the per-attribute
// results. Values labelled as outliers on any attribute are excluded from
// subsequent analysis steps, as the paper specifies. Attributes are
// screened concurrently on cfg.Parallelism workers; each screen is
// independent and the union is rebuilt sequentially, so the output is
// identical at any parallelism.
func DetectColumns(t *table.Table, attrs []string, cfg Config) ([]*Result, []int, error) {
	if len(attrs) == 0 {
		return nil, nil, errors.New("outlier: no attributes given")
	}
	all, err := parallel.MapErr(len(attrs), cfg.Parallelism, func(i int) (*Result, error) {
		return DetectColumn(t, attrs[i], cfg)
	})
	if err != nil {
		return nil, nil, err
	}
	union := make(map[int]struct{})
	for _, r := range all {
		for _, row := range r.Rows {
			union[row] = struct{}{}
		}
	}
	flat := make([]int, 0, len(union))
	for r := range union {
		flat = append(flat, r)
	}
	slices.Sort(flat)
	return all, flat, nil
}

// RemoveRows returns a copy of t without the given rows — the "values
// labelled as outliers are not considered in the subsequent steps"
// behaviour.
func RemoveRows(t *table.Table, rows []int) (*table.Table, error) {
	return t.DropRows(rows)
}

// MultivariateResult reports a DBSCAN detection run.
type MultivariateResult struct {
	Attrs    []string
	Eps      float64
	MinPts   int
	Clusters int
	// Rows are the table rows labelled as noise (= multivariate outliers).
	Rows []int
	// Checked is the number of complete rows examined.
	Checked int
}

// multivariateSample bounds the quadratic parameter-estimation pass of
// DetectMultivariate.
const multivariateSample = 500

// DetectMultivariate runs DBSCAN over the min-max normalized attribute
// matrix and flags noise points as outliers. Eps and minPts are estimated
// from k-distance plots on a sample of at most 500 rows, as the paper
// prescribes. Rows with a missing value in any of the attributes are
// skipped (the univariate stage deals with those). The k-distance pass and
// the region queries run on up to workers goroutines; 0 or 1 run
// sequentially, and results are identical at any setting.
func DetectMultivariate(t *table.Table, attrs []string, workers int) (*MultivariateResult, error) {
	if len(attrs) == 0 {
		return nil, errors.New("outlier: no attributes given")
	}
	// The complete-row attribute matrix is built once, flat, normalized
	// in place and then shared read-only by the parameter-estimation
	// sample (a zero-copy strided view) and the clustering pass.
	mat, rowIdx, err := t.DenseMatrix(attrs...)
	if err != nil {
		return nil, fmt.Errorf("outlier: multivariate: %w", err)
	}
	if mat.Rows() == 0 {
		return &MultivariateResult{Attrs: attrs}, nil
	}
	// Min-max normalize each attribute so eps is comparable across
	// heterogeneous units.
	mat.Normalize()

	sample := mat
	if mat.Rows() > multivariateSample {
		// Deterministic stride sample, viewed without copying.
		sample, err = mat.StrideView(mat.Rows()/multivariateSample, multivariateSample)
		if err != nil {
			return nil, fmt.Errorf("outlier: parameter estimation: %w", err)
		}
	}
	eps, minPts, err := cluster.EstimateDBSCANParamsMatrix(sample, nil, workers)
	if err != nil {
		return nil, fmt.Errorf("outlier: parameter estimation: %w", err)
	}

	res, err := cluster.DBSCANMatrixParallel(mat, eps, minPts, workers)
	if err != nil {
		return nil, fmt.Errorf("outlier: dbscan: %w", err)
	}
	out := &MultivariateResult{
		Attrs:    attrs,
		Eps:      eps,
		MinPts:   minPts,
		Clusters: res.Clusters,
		Checked:  mat.Rows(),
	}
	for i, l := range res.Labels {
		if l == cluster.Noise {
			out.Rows = append(out.Rows, rowIdx[i])
		}
	}
	return out, nil
}
