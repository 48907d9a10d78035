package experiments

import (
	"fmt"
	"math"
	"strings"

	"indice/internal/assoc"
	"indice/internal/core"
	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/query"
	"indice/internal/render"
	"indice/internal/stats"
)

// preparedEngine returns an engine over the corrupted table after the
// paper's case-study selection and pre-processing (clean Turin E.1.1
// residences, drop outliers).
func (r *Runner) preparedEngine() (*core.Engine, error) {
	eng, err := r.World.engine(r.World.Dirty, r.World.Scale.Certificates)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Select(query.Residential()); err != nil {
		return nil, err
	}
	pcfg := core.DefaultPreprocessConfig()
	pcfg.Parallelism = r.Parallelism
	if _, err := eng.Preprocess(pcfg); err != nil {
		return nil, err
	}
	return eng, nil
}

// analysisConfig scales the analytic sweep to the world size.
func (r *Runner) analysisConfig() core.AnalysisConfig {
	cfg := core.DefaultAnalysisConfig()
	if r.World.Scale.Certificates < 5000 {
		cfg.KMax = 8
	}
	cfg.Parallelism = r.Parallelism
	return cfg
}

// E4 reproduces Figure 3: the Pearson correlation matrix over S/V, Uo,
// Uw, Sr, ETAH (plus the response EPH), rendered in grayscale.
func (r *Runner) E4() (*Result, error) {
	eng, err := r.preparedEngine()
	if err != nil {
		return nil, err
	}
	names := append(append([]string(nil), epc.CaseStudyAttributes...), epc.AttrEPH)
	tab := eng.Table(names...)
	cols := make([][]float64, len(names))
	for i, n := range names {
		v, err := tab.Floats(n)
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	m, err := stats.NewCorrelationMatrix(names, cols)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "")
	for _, n := range names {
		fmt.Fprintf(&b, "%14s", n)
	}
	b.WriteByte('\n')
	for i, n := range names {
		fmt.Fprintf(&b, "%-14s", n)
		for j := range names {
			fmt.Fprintf(&b, "%14.3f", m.Coef[i][j])
		}
		b.WriteByte('\n')
	}
	sub, err := stats.NewCorrelationMatrix(epc.CaseStudyAttributes, cols[:len(epc.CaseStudyAttributes)])
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "max |r| among the five clustering attributes: %.3f\n", sub.MaxAbsOffDiagonal())
	fmt.Fprintf(&b, "paper shape: \"all the variables considered in the analysis are weakly correlated\" -> %v\n",
		sub.WeaklyCorrelated(0.8))

	svg, err := render.CorrelationMatrixPlot(nil, "Figure 3 — correlation matrix", m, 620)
	if err != nil {
		return nil, err
	}
	fig, err := r.writeFigure("fig3_correlation.svg", svg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E4", Title: "Figure 3 — correlation matrix", Report: b.String()}
	if fig != "" {
		res.Figures = append(res.Figures, fig)
	}
	return res, nil
}

// E5 reproduces the analytics of Figure 4: K-means on the five
// thermo-physical attributes, K chosen by the SSE elbow, per-cluster EPH
// distributions.
func (r *Runner) E5() (*Result, error) {
	eng, err := r.preparedEngine()
	if err != nil {
		return nil, err
	}
	an, err := eng.Analyze(r.analysisConfig())
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SSE curve:\n")
	for _, p := range an.SSECurve {
		marker := " "
		if p.K == an.ChosenK {
			marker = "*"
		}
		fmt.Fprintf(&b, "  K=%2d  SSE=%12.2f %s\n", p.K, p.SSE, marker)
	}
	fmt.Fprintf(&b, "elbow-chosen K: %d\n", an.ChosenK)
	fmt.Fprintf(&b, "%-9s %9s %14s\n", "cluster", "size", "mean EPH")
	for c := 0; c < an.ChosenK; c++ {
		fmt.Fprintf(&b, "C%-8d %9d %14.1f\n", c, an.Clustering.Sizes[c], an.ClusterResponseMeans[c])
	}
	spread := clusterSpread(an.ClusterResponseMeans)
	fmt.Fprintf(&b, "cluster separation on the response: max-min mean EPH = %.1f kWh/m2y\n", spread)
	b.WriteString("shape check: a visible SSE elbow exists and clusters separate on EPH\n")
	b.WriteString("(the dashboard colors cluster-markers by these means).\n")

	res := &Result{ID: "E5", Title: "Figure 4 — cluster analysis", Report: b.String()}
	ks := make([]int, len(an.SSECurve))
	sses := make([]float64, len(an.SSECurve))
	for i, p := range an.SSECurve {
		ks[i] = p.K
		sses[i] = p.SSE
	}
	if svg, err := render.SSECurveChart(nil, "Figure 4 — SSE elbow", ks, sses, an.ChosenK, 480, 300); err == nil {
		if fig, err := r.writeFigure("fig4_sse_elbow.svg", svg); err == nil && fig != "" {
			res.Figures = append(res.Figures, fig)
		}
	}
	labels := make([]string, an.ChosenK)
	sizes := make([]float64, an.ChosenK)
	means := make([]float64, an.ChosenK)
	for c := 0; c < an.ChosenK; c++ {
		labels[c] = fmt.Sprintf("C%d", c)
		sizes[c] = float64(an.Clustering.Sizes[c])
		if !math.IsNaN(an.ClusterResponseMeans[c]) {
			means[c] = an.ClusterResponseMeans[c]
		}
	}
	if svg, err := render.BarChart(nil, "Figure 4 — cluster cardinalities", labels, sizes, 480, 300); err == nil {
		if fig, _ := r.writeFigure("fig4_cluster_sizes.svg", svg); fig != "" {
			res.Figures = append(res.Figures, fig)
		}
	}
	if svg, err := render.BarChart(nil, "Figure 4 — mean EPH per cluster", labels, means, 480, 300); err == nil {
		if fig, _ := r.writeFigure("fig4_cluster_eph.svg", svg); fig != "" {
			res.Figures = append(res.Figures, fig)
		}
	}
	return res, nil
}

func clusterSpread(means []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range means {
		if math.IsNaN(m) {
			continue
		}
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return hi - lo
}

// E6 reproduces the rule panel of Figure 4: CART discretization in the
// footnote-4 style and the top association rules.
func (r *Runner) E6() (*Result, error) {
	eng, err := r.preparedEngine()
	if err != nil {
		return nil, err
	}
	an, err := eng.Analyze(r.analysisConfig())
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("CART discretizations (paper footnote 4 reports 4 classes for Uw,\n")
	b.WriteString("3 for Uo, 3 for ETAH with monotone edges):\n")
	for _, attr := range []string{epc.AttrUWindows, epc.AttrUOpaque, epc.AttrETAH, epc.AttrEPH} {
		if bn, ok := an.Binnings[attr]; ok {
			fmt.Fprintf(&b, "  %s\n", bn)
		}
	}
	top := assoc.TopK(an.Rules, assoc.ByLift, 15)
	fmt.Fprintf(&b, "\nrules mined: %d (minsup=0.05, minconf=0.6, minlift=1.1); top 15 by lift:\n", len(an.Rules))
	b.WriteString(assoc.FormatTable(top))
	// Template check: rules characterizing the response.
	tpl := assoc.Template{ConsequentAttrs: []string{epc.AttrEPH, epc.AttrEnergyClass}}
	onResp := tpl.Filter(an.Rules)
	fmt.Fprintf(&b, "rules with the response in the consequent: %d\n", len(onResp))
	b.WriteString("shape check: high-U / low-efficiency antecedents imply high EPH classes.\n")

	res := &Result{ID: "E6", Title: "Figure 4 — association rules", Report: b.String()}
	if fig, err := r.writeFigure("fig4_rules.txt", []byte(assoc.FormatTable(top))); err == nil && fig != "" {
		res.Figures = append(res.Figures, fig)
	}
	return res, nil
}

// E7 reproduces Figure 2: the map drill-down — choropleth and scatter at
// fine zoom, cluster-marker maps at district and city zoom.
func (r *Runner) E7() (*Result, error) {
	eng, err := r.preparedEngine()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	files := map[geo.Level]string{
		geo.LevelUnit:          "fig2_scatter_unit.svg",
		geo.LevelNeighbourhood: "fig2_choropleth_neighbourhood.svg",
		geo.LevelDistrict:      "fig2_clustermarker_district.svg",
		geo.LevelCity:          "fig2_clustermarker_city.svg",
	}
	res := &Result{ID: "E7", Title: "Figure 2 — energy maps per zoom level"}
	tab := eng.Table(epc.AttrLatitude, epc.AttrLongitude, epc.AttrUOpaque)
	for _, level := range []geo.Level{geo.LevelUnit, geo.LevelNeighbourhood, geo.LevelDistrict, geo.LevelCity} {
		svg, kind, err := dashboard.RenderMap(tab, eng.Hierarchy(), dashboard.MapSpec{
			Title: fmt.Sprintf("Average %s — %s zoom", epc.AttrUOpaque, level),
			Level: level,
			Attr:  epc.AttrUOpaque,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%-15s -> %-15s (%d bytes of SVG)\n", level, kind, len(svg))
		if fig, err := r.writeFigure(files[level], svg); err == nil && fig != "" {
			res.Figures = append(res.Figures, fig)
		}
	}
	b.WriteString("shape check: zoom switches representation exactly as Figure 2 —\n")
	b.WriteString("scatter at unit zoom, choropleth at neighbourhood zoom,\n")
	b.WriteString("cluster-markers with cardinality labels at district and city zoom.\n")
	res.Report = b.String()
	return res, nil
}

// E8 builds the per-stakeholder dashboards of §2.2.1/§2.3.
func (r *Runner) E8() (*Result, error) {
	eng, err := r.preparedEngine()
	if err != nil {
		return nil, err
	}
	an, err := eng.Analyze(r.analysisConfig())
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	res := &Result{ID: "E8", Title: "Per-stakeholder dashboards (§2.2.1)"}
	for _, s := range []query.Stakeholder{query.Citizen, query.PublicAdministration, query.EnergyScientist} {
		prop, err := query.ProposalFor(s)
		if err != nil {
			return nil, err
		}
		html, err := eng.DashboardBytes(s, an)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%-22s level=%-13s reports=%d attrs=%v (%d bytes of HTML)\n",
			s, prop.Level, len(prop.Reports), prop.Attributes, len(html))
		name := fmt.Sprintf("dashboard_%s.html", strings.ReplaceAll(string(s), "-", "_"))
		if fig, err := r.writeFigure(name, html); err == nil && fig != "" {
			res.Figures = append(res.Figures, fig)
		}
	}
	b.WriteString("shape check: each stakeholder receives a distinct proposal — citizens\n")
	b.WriteString("get fine-grained maps, the PA gets district analytics, scientists the full stack.\n")
	res.Report = b.String()
	return res, nil
}
