package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"indice/internal/assoc"
	"indice/internal/cart"
	"indice/internal/cluster"
	"indice/internal/epc"
	"indice/internal/matrix"
	"indice/internal/parallel"
	"indice/internal/stats"
	"indice/internal/table"
)

// AnalysisConfig parameterizes the analytics tier.
type AnalysisConfig struct {
	// Attributes is the clustering subset (default: the paper's five
	// thermo-physical attributes).
	Attributes []string
	// Response is the independent response variable (default EPH).
	Response string
	// CorrelationThreshold is the |ρ| above which the attribute subset is
	// reported as correlated (default 0.8; the subset is still analyzed).
	CorrelationThreshold float64
	// KMin, KMax bound the SSE-curve sweep (default 2..10).
	KMin, KMax int
	// Restarts per K (default 3).
	Restarts int
	// Seed drives K-means initialization.
	Seed int64
	// MinSupport / MinConfidence / MinLift gate the association rules
	// (defaults 0.05 / 0.6 / 1.1).
	MinSupport    float64
	MinConfidence float64
	MinLift       float64
	// ExtraRuleAttrs are categorical attributes mined alongside the
	// discretized numeric ones (default: energy class and construction
	// era).
	ExtraRuleAttrs []string
	// CART bounds the discretization trees.
	CART cart.Config
	// Parallelism is the worker degree of the analytics tier. The
	// independent analyses — correlation screening, the K-means elbow
	// sweep, and CART discretization + rule mining — run as a concurrent
	// stage graph, and the same degree threads into each algorithm's own
	// hot loop. Because the stages overlap, the tier
	// may briefly run up to (stages × Parallelism) goroutines rather than
	// treating the value as a global cap; the Go scheduler multiplexes
	// them onto GOMAXPROCS threads either way. 0 or 1 run the tier fully
	// sequentially; parallel.Auto uses every CPU. The Analysis is
	// bitwise-identical at any setting.
	Parallelism int
}

// DefaultAnalysisConfig mirrors the paper's case study.
func DefaultAnalysisConfig() AnalysisConfig {
	return AnalysisConfig{
		Attributes:           append([]string(nil), epc.CaseStudyAttributes...),
		Response:             epc.AttrEPH,
		CorrelationThreshold: 0.8,
		KMin:                 2,
		KMax:                 10,
		Restarts:             3,
		Seed:                 1,
		MinSupport:           0.05,
		MinConfidence:        0.6,
		MinLift:              1.1,
		ExtraRuleAttrs:       []string{epc.AttrEnergyClass, epc.AttrConstructionEra},
		// Depth-2 trees yield at most 4 classes per attribute, matching
		// the footnote-4 discretizations (Uw 4 classes, Uo 3, ETAH 3).
		CART: cart.Config{MaxDepth: 2, MinLeaf: 30, MinImprove: 1e-3},
	}
}

// Analysis is the analytics-tier output the dashboards visualize.
type Analysis struct {
	Attributes []string
	Response   string
	// Correlations is the pairwise Pearson matrix over attributes plus
	// the response.
	Correlations *stats.CorrelationMatrix
	// WeaklyCorrelated reports whether the clustering subset passed the
	// eligibility check.
	WeaklyCorrelated bool
	// SSECurve and ChosenK document the elbow selection.
	SSECurve []cluster.SSECurvePoint
	ChosenK  int
	// Clustering is the final K-means run at ChosenK.
	Clustering *cluster.KMeansResult
	// NormMins and NormMaxs are the per-attribute min-max normalization
	// bounds of the clustering matrix. Centroids live in this normalized
	// space; the incremental refresh maps them back to raw attribute
	// space with these bounds to warm-start the next epoch.
	NormMins, NormMaxs []float64
	// RowLabels maps every table row to its cluster (-1 for rows with
	// missing values that were excluded from clustering).
	RowLabels []int
	// ClusterResponseMeans is the mean response per cluster.
	ClusterResponseMeans []float64
	// Binnings are the CART discretizations, one per attribute plus the
	// response.
	Binnings map[string]*cart.Binning
	// Rules are the mined association rules, sorted by lift.
	Rules []assoc.Rule
	// Dendrogram is always nil: no analysis builds the hierarchical view
	// (examples/energy-scientist draws its own with cluster.Hierarchical).
	// TestGoldenDigests digests this struct field by field, names
	// included, so the field goes when those digests are next re-recorded.
	Dendrogram *cluster.Dendrogram
}

// withDefaults fills every zero field but Parallelism from
// DefaultAnalysisConfig, so a partial configuration changes only what it
// sets: Analyze(AnalysisConfig{}) is the paper's analysis. A KMax below
// KMin becomes KMin+8.
func (cfg AnalysisConfig) withDefaults() AnalysisConfig {
	d := DefaultAnalysisConfig()
	if len(cfg.Attributes) == 0 {
		cfg.Attributes = d.Attributes
	}
	if cfg.Response == "" {
		cfg.Response = d.Response
	}
	if cfg.CorrelationThreshold <= 0 {
		cfg.CorrelationThreshold = d.CorrelationThreshold
	}
	if cfg.KMin < 2 {
		cfg.KMin = d.KMin
	}
	if cfg.KMax < cfg.KMin {
		cfg.KMax = cfg.KMin + 8
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = d.Restarts
	}
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = d.MinSupport
	}
	if cfg.MinConfidence <= 0 {
		cfg.MinConfidence = d.MinConfidence
	}
	if cfg.MinLift <= 0 {
		cfg.MinLift = d.MinLift
	}
	if len(cfg.ExtraRuleAttrs) == 0 {
		cfg.ExtraRuleAttrs = d.ExtraRuleAttrs
	}
	if cfg.CART.MaxDepth <= 0 {
		cfg.CART.MaxDepth = d.CART.MaxDepth
	}
	if cfg.CART.MinLeaf <= 0 {
		cfg.CART.MinLeaf = d.CART.MinLeaf
	}
	if cfg.CART.MinImprove <= 0 {
		cfg.CART.MinImprove = d.CART.MinImprove
	}
	return cfg
}

// Analyze runs the analytics tier over the engine's current table.
func (e *Engine) Analyze(cfg AnalysisConfig) (*Analysis, error) {
	cfg = cfg.withDefaults()
	an := &Analysis{
		Attributes: append([]string(nil), cfg.Attributes...),
		Response:   cfg.Response,
		Binnings:   make(map[string]*cart.Binning),
	}

	// Shared inputs, decoded up front (the rule attributes too) so the
	// stages below share them without re-fetching.
	in, err := e.clusterInput(cfg, cfg.ExtraRuleAttrs...)
	if err != nil {
		return nil, err
	}
	an.NormMins, an.NormMaxs = in.mins, in.maxs
	cols, resp := in.cols, in.cols[len(in.cols)-1]

	// The three analyses are independent of each other, so they run as a
	// concurrent stage graph on cfg.Parallelism workers, each stage
	// writing disjoint fields of an. At Parallelism <= 1 the stages run in
	// the original sequential order.
	correlationStage := func() error { return an.correlate(cfg, cols) }

	// K-means with SSE-elbow K on min-max normalized attributes, then the
	// per-cluster response means.
	clusteringStage := func() error {
		kcfg := cluster.KMeansConfig{Seed: cfg.Seed, Parallelism: cfg.Parallelism}
		sweep, err := cluster.ElbowSweep(in.norm, cfg.KMin, cfg.KMax, cfg.Restarts, kcfg)
		if err != nil {
			return fmt.Errorf("core: analyze: %w", err)
		}
		an.SSECurve = sweep.Curve
		k, err := cluster.ElbowK(sweep.Curve)
		if err != nil {
			return err
		}
		an.ChosenK = k
		// The final clustering is the best of cfg.Restarts runs at the
		// chosen K: restart 0 seeded with cfg.Seed itself, the others as
		// the sweep seeds them. Only restart 0 is a run the sweep has not
		// made; the minimum folds in restart order under a strict <, so
		// restart 0 keeps a tie. The sweep keeps SSEs, not runs, so a
		// sweep restart that wins is fitted again, bitwise the sweep's run.
		kcfg.K = k
		best, err := cluster.KMeansMatrix(in.norm, kcfg)
		if err != nil {
			return fmt.Errorf("core: analyze: %w", err)
		}
		win, winSSE := 0, best.SSE
		for r, sse := range sweep.SSEs(k)[1:] {
			if sse < winSSE {
				win, winSSE = r+1, sse
			}
		}
		if win > 0 {
			kcfg.Seed = cluster.RestartSeed(cfg.Seed, win, k)
			if best, err = cluster.KMeansMatrix(in.norm, kcfg); err != nil {
				return fmt.Errorf("core: analyze: %w", err)
			}
		}
		an.Clustering = best
		an.labelRows(in.rowIdx, resp, in.respValid)
		return nil
	}

	// CART discretization of every attribute (and the response) against
	// the response, then association-rule mining over the discretized
	// rows.
	rulesStage := func() error {
		binnings, err := parallel.MapErr(len(cfg.Attributes), cfg.Parallelism, func(i int) (*cart.Binning, error) {
			b, err := cart.Discretize(cfg.Attributes[i], cols[i], resp, cfg.CART)
			if err != nil {
				return nil, fmt.Errorf("core: analyze: %w", err)
			}
			return b, nil
		})
		if err != nil {
			return err
		}
		for i, attr := range cfg.Attributes {
			an.Binnings[attr] = binnings[i]
		}
		rb, err := cart.Discretize(cfg.Response, resp, resp, cfg.CART)
		if err != nil {
			return fmt.Errorf("core: analyze: %w", err)
		}
		an.Binnings[cfg.Response] = rb

		miner, err := ruleMiner(in.tab, an, cfg.ExtraRuleAttrs)
		if err != nil {
			return err
		}
		mineCfg := assoc.MiningConfig{MinSupport: cfg.MinSupport, MaxLen: 3, Parallelism: cfg.Parallelism}
		frequent, err := miner.FrequentItemsets(mineCfg)
		if err != nil {
			return fmt.Errorf("core: analyze: %w", err)
		}
		rules, err := miner.Rules(frequent, assoc.RuleConfig{
			MinConfidence:    cfg.MinConfidence,
			MinLift:          cfg.MinLift,
			MaxConsequentLen: 1,
		})
		if err != nil {
			return fmt.Errorf("core: analyze: %w", err)
		}
		an.Rules = rules
		return nil
	}

	if err := parallel.Tasks(cfg.Parallelism, correlationStage, clusteringStage, rulesStage); err != nil {
		return nil, err
	}
	return an, nil
}

// columns names the clustering attributes followed by the response.
func (cfg AnalysisConfig) columns() []string {
	return append(append([]string(nil), cfg.Attributes...), cfg.Response)
}

// clusterInput is what an analysis reads off the engine's table: the
// columns of cfg.columns() decoded (tab, with whatever extra columns were
// asked for), for the correlation screen and the CART stage as cols, the
// complete rows over the clustering attributes as one flat matrix
// normalized once, its normalization bounds, the table row of every
// matrix row, and where the response holds a value. A full and an
// incremental refresh cluster the same input.
type clusterInput struct {
	tab        *table.Table
	cols       [][]float64
	norm       *matrix.Matrix
	mins, maxs []float64
	rowIdx     []int
	respValid  []bool
}

// clusterInput loads the input of an analysis under cfg, which needs at
// least cfg.KMax complete rows, decoding the extra columns with it.
func (e *Engine) clusterInput(cfg AnalysisConfig, extra ...string) (*clusterInput, error) {
	in := &clusterInput{
		tab:  e.Table(append(cfg.columns(), extra...)...),
		cols: make([][]float64, 0, len(cfg.Attributes)+1),
	}
	for _, n := range cfg.columns() {
		v, err := in.tab.Floats(n)
		if err != nil {
			return nil, fmt.Errorf("core: analyze: %w", err)
		}
		in.cols = append(in.cols, v)
	}
	var err error
	if in.norm, in.rowIdx, err = in.tab.DenseMatrix(cfg.Attributes...); err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	if in.norm.Rows() < cfg.KMax {
		return nil, fmt.Errorf("core: analyze: %d complete rows, need at least %d", in.norm.Rows(), cfg.KMax)
	}
	in.mins, in.maxs = in.norm.Normalize()
	in.respValid, _ = in.tab.ValidMask(cfg.Response)
	return in, nil
}

// correlate is the correlation screen over cols (cfg.columns() order):
// the pairwise matrix over attributes plus response, and the eligibility
// check over the clustering attributes only (the response may — should —
// correlate with them).
func (an *Analysis) correlate(cfg AnalysisConfig, cols [][]float64) error {
	corr, err := stats.NewCorrelationMatrix(cfg.columns(), cols)
	if err != nil {
		return fmt.Errorf("core: analyze: %w", err)
	}
	an.Correlations = corr
	sub, err := stats.NewCorrelationMatrix(cfg.Attributes, cols[:len(cfg.Attributes)])
	if err != nil {
		return err
	}
	an.WeaklyCorrelated = sub.WeaklyCorrelated(cfg.CorrelationThreshold)
	return nil
}

// labelRows spreads an.Clustering's labels over the table rows — rowIdx
// maps a clustered row to its table row, rows left out of the clustering
// get -1 — and computes the mean response per cluster.
func (an *Analysis) labelRows(rowIdx []int, resp []float64, respValid []bool) {
	an.RowLabels = make([]int, len(resp))
	for i := range an.RowLabels {
		an.RowLabels[i] = -1
	}
	for mi, row := range rowIdx {
		an.RowLabels[row] = an.Clustering.Labels[mi]
	}
	k := an.Clustering.K
	sums := make([]float64, k)
	counts := make([]int, k)
	for row, l := range an.RowLabels {
		if l < 0 || !respValid[row] {
			continue
		}
		sums[l] += resp[row]
		counts[l]++
	}
	an.ClusterResponseMeans = make([]float64, k)
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			an.ClusterResponseMeans[c] = sums[c] / float64(counts[c])
		} else {
			an.ClusterResponseMeans[c] = math.NaN()
		}
	}
}

// rawCentroids maps the clustering's centroids from the min-max
// normalized space back to raw attribute space, flat K×dim: what the next
// incremental refresh warm-starts from.
func (an *Analysis) rawCentroids() []float64 {
	out := make([]float64, 0, an.Clustering.K*len(an.NormMins))
	for _, c := range an.Clustering.Centroids {
		for d, v := range c {
			out = append(out, v*(an.NormMaxs[d]-an.NormMins[d])+an.NormMins[d])
		}
	}
	return out
}

// RuleMiner builds the rule miner over the engine's current table as
// Analyze builds it: the CART-discretized numeric attributes of an plus
// cfg.ExtraRuleAttrs. Exposed so external harnesses (the E6 benchmarks)
// mine exactly the workload Analyze mines.
func (e *Engine) RuleMiner(cfg AnalysisConfig, an *Analysis) (*assoc.Miner, error) {
	cols := append(append(slices.Clone(an.Attributes), an.Response), cfg.ExtraRuleAttrs...)
	return ruleMiner(e.Table(cols...), an, cfg.ExtraRuleAttrs)
}

// ruleMiner builds the rule miner over tab's rows, one transaction per
// row: an's discretized attributes and response, then the extra
// categorical attributes tab holds. Each row's items go straight from the
// columns into the miner's tidsets; no list of transactions is built.
func ruleMiner(tab *table.Table, an *Analysis, extra []string) (*assoc.Miner, error) {
	// item is row i's item of one attribute, if it has one.
	var items []func(i int) (assoc.Item, bool)
	for _, attr := range append(slices.Clone(an.Attributes), an.Response) {
		binning, ok := an.Binnings[attr]
		if !ok {
			continue
		}
		xs, err := tab.Floats(attr)
		if err != nil {
			return nil, err
		}
		valid, _ := tab.ValidMask(attr)
		items = append(items, func(i int) (assoc.Item, bool) {
			if !valid[i] {
				return assoc.Item{}, false
			}
			cls := binning.Assign(xs[i])
			return assoc.Item{Attr: attr, Value: cls}, cls != ""
		})
	}
	for _, attr := range extra {
		if !tab.HasColumn(attr) {
			continue
		}
		codes, dict, err := tab.StringCodes(attr)
		if err != nil {
			return nil, fmt.Errorf("core: rule attribute %q: %w", attr, err)
		}
		valid, _ := tab.ValidMask(attr)
		items = append(items, func(i int) (assoc.Item, bool) {
			v := dict[codes[i]]
			return assoc.Item{Attr: attr, Value: v}, valid[i] && v != ""
		})
	}
	miner, err := assoc.NewMinerRows(tab.NumRows(), func(t int, add func(assoc.Item)) {
		for _, item := range items {
			if it, ok := item(t); ok {
				add(it)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	return miner, nil
}

// ErrNoAnalysis is returned by Dashboard when the analysis is nil but the
// stakeholder's proposal requires analytic panels.
var ErrNoAnalysis = errors.New("core: stakeholder proposal requires an Analysis")
