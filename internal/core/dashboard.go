package core

import (
	"fmt"
	"math"

	"indice/internal/assoc"
	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/query"
	"indice/internal/render"
)

// Dashboard assembles the informative dashboard HTML for a stakeholder,
// following the automatically proposed report set. The analysis argument
// may be nil only for stakeholders whose proposal contains no analytic
// panel; PA and energy-scientist dashboards require one.
func (e *Engine) Dashboard(s query.Stakeholder, an *Analysis) (string, error) {
	page, err := e.DashboardBytes(s, an)
	return string(page), err
}

// DashboardBytes is Dashboard's page as the bytes it was written into:
// every chart is drawn straight into the page's buffer.
func (e *Engine) DashboardBytes(s query.Stakeholder, an *Analysis) ([]byte, error) {
	prop, err := query.ProposalFor(s)
	if err != nil {
		return nil, err
	}
	fail := func(err error) ([]byte, error) {
		return nil, fmt.Errorf("core: dashboard: %w", err)
	}
	mapPanel := func(title string, level geo.Level) render.Panel {
		return func(dst []byte) ([]byte, error) {
			b, _, err := dashboard.AppendMap(dst, e.tab, e.hier, dashboard.MapSpec{Title: title, Level: level, Attr: prop.Response})
			return b, err
		}
	}
	page := render.NewPage(fmt.Sprintf("INDICE — %s dashboard", s))
	page.AddParagraph(fmt.Sprintf(
		"%d certificates at %s granularity. Proposed attribute subset: %v (response: %s).",
		e.tab.NumRows(), prop.Level, prop.Attributes, prop.Response))

	for _, kind := range prop.Reports {
		switch kind {
		case query.ReportChoropleth:
			page.AddHeading("Choropleth energy map")
			if err := page.AddSVG(mapPanel("Average "+prop.Response+" by neighbourhood", geo.LevelNeighbourhood)); err != nil {
				return fail(err)
			}
		case query.ReportScatterMap:
			page.AddHeading("Scatter energy map")
			if err := page.AddSVG(mapPanel(prop.Response+" per housing unit", geo.LevelUnit)); err != nil {
				return fail(err)
			}
		case query.ReportClusterMarker:
			page.AddHeading("Cluster-marker maps")
			districts := mapPanel("Certificates per district (avg "+prop.Response+")", geo.LevelDistrict)
			if an == nil || an.Clustering == nil {
				if err := page.AddSVG(districts); err != nil {
					return fail(err)
				}
				break
			}
			ms, err := dashboard.ClusterMarkers(e.tab, an.RowLabels, prop.Response)
			if err != nil {
				return fail(err)
			}
			if err := page.AddSVGRow(districts, func(dst []byte) ([]byte, error) {
				return render.ClusterMarkerMap(dst,
					fmt.Sprintf("K-means clusters (K=%d, avg %s)", an.ChosenK, prop.Response),
					ms, e.hier.City().Ring.Bounds(), 560, 460)
			}); err != nil {
				return fail(err)
			}
		case query.ReportDistribution:
			page.AddHeading("Frequency distributions")
			rows := make([][]string, 0, len(prop.Attributes))
			panels := make([]render.Panel, 0, len(prop.Attributes))
			for _, attr := range prop.Attributes {
				p, err := dashboard.NewDistributionPanel(e.tab, attr, 20, 380, 240)
				if err != nil {
					return fail(err)
				}
				panels = append(panels, p.Draw)
				rows = append(rows, p.StatsRow())
			}
			if err := page.AddSVGRow(panels...); err != nil {
				return fail(err)
			}
			if err := page.AddTable(dashboard.StatsHeader(), rows); err != nil {
				return fail(err)
			}
			if an != nil && an.Clustering != nil {
				labels := make([]string, an.ChosenK)
				sizes := make([]float64, an.ChosenK)
				for c := 0; c < an.ChosenK; c++ {
					labels[c] = fmt.Sprintf("C%d", c)
					sizes[c] = float64(an.Clustering.Sizes[c])
				}
				means := make([]float64, an.ChosenK)
				for c, m := range an.ClusterResponseMeans {
					if !math.IsNaN(m) {
						means[c] = m
					}
				}
				if err := page.AddSVGRow(func(dst []byte) ([]byte, error) {
					return render.BarChart(dst, "Cluster cardinalities", labels, sizes, 380, 240)
				}, func(dst []byte) ([]byte, error) {
					return render.BarChart(dst, "Mean "+prop.Response+" per cluster", labels, means, 380, 240)
				}); err != nil {
					return fail(err)
				}
			}
		case query.ReportCorrelation:
			if an == nil {
				return nil, ErrNoAnalysis
			}
			page.AddHeading("Correlation matrix")
			if an.WeaklyCorrelated {
				page.AddParagraph("All attribute pairs are weakly correlated: the subset is eligible for the analytic task.")
			} else {
				page.AddParagraph("Warning: strongly correlated attribute pairs detected; consider removing redundant attributes.")
			}
			if err := page.AddSVG(func(dst []byte) ([]byte, error) {
				return render.CorrelationMatrixPlot(dst,
					"Pearson correlation (grayscale: dark = strong)", an.Correlations, 560)
			}); err != nil {
				return fail(err)
			}
		case query.ReportClusterering:
			if an == nil {
				return nil, ErrNoAnalysis
			}
			ks := make([]int, len(an.SSECurve))
			sses := make([]float64, len(an.SSECurve))
			for i, p := range an.SSECurve {
				ks[i] = p.K
				sses[i] = p.SSE
			}
			page.AddHeading(fmt.Sprintf("Cluster analysis (K = %d by the elbow method)", an.ChosenK))
			if err := page.AddSVG(func(dst []byte) ([]byte, error) {
				return render.SSECurveChart(dst, "SSE curve (elbow)", ks, sses, an.ChosenK, 420, 260)
			}); err != nil {
				return fail(err)
			}
		case query.ReportRules:
			if an == nil {
				return nil, ErrNoAnalysis
			}
			page.AddHeading("Association rules")
			for _, attr := range an.Attributes {
				if b, ok := an.Binnings[attr]; ok {
					page.AddParagraph(b.String())
				}
			}
			top := assoc.TopK(an.Rules, assoc.ByLift, 20)
			page.AddPre(assoc.FormatTable(top))
		}
	}

	// Energy class breakdown closes every dashboard when available.
	if e.tab.HasColumn(epc.AttrEnergyClass) {
		if panel, _, err := dashboard.CategoricalPanel(e.tab, epc.AttrEnergyClass, 10, 420, 240); err == nil {
			page.AddHeading("Energy class breakdown")
			if err := page.AddSVG(panel); err != nil {
				return fail(err)
			}
		}
	}
	return page.End(), nil
}
