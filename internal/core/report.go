package core

import (
	"fmt"
	"math"
	"strings"

	"indice/internal/assoc"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/table"
)

// Report renders a plain-markdown summary of a pipeline run — the textual
// companion of the HTML dashboard, suitable for logs, tickets and
// commit-able experiment records. Both arguments may be nil; the
// corresponding sections are then omitted.
func (e *Engine) Report(pre *PreprocessReport, an *Analysis) string {
	var b strings.Builder
	b.WriteString("# INDICE run report\n\n")
	fmt.Fprintf(&b, "Certificates in scope: %d\n\n", e.NumRows())

	if pre != nil {
		b.WriteString("## Pre-processing\n\n")
		if pre.Cleaning != nil {
			c := pre.Cleaning
			fmt.Fprintf(&b,
				"- geospatial cleaning: %d untouched, %d reconciled via street map, %d geocoded, %d unresolved (%d remote requests)\n",
				c.Untouched, c.StreetMap, c.Geocoded, c.Unresolved, c.GeocoderRequests)
		} else {
			b.WriteString("- geospatial cleaning: skipped\n")
		}
		src := "expert configuration"
		if pre.Suggested {
			src = "suggestion store (non-expert path)"
		}
		fmt.Fprintf(&b, "- univariate outlier screen: %s via %s\n", pre.UnivariateMethod, src)
		for _, r := range pre.Univariate {
			fmt.Fprintf(&b, "  - %s: %d of %d values flagged\n", r.Attr, len(r.Rows), r.Checked)
		}
		if pre.Multivariate != nil {
			m := pre.Multivariate
			fmt.Fprintf(&b, "- multivariate DBSCAN screen: eps=%.4f minPts=%d, %d clusters, %d noise rows\n",
				m.Eps, m.MinPts, m.Clusters, len(m.Rows))
		}
		fmt.Fprintf(&b, "- rows: %d -> %d (%d outlier rows removed)\n\n",
			pre.RowsBefore, pre.RowsAfter, len(pre.OutlierRows))
	}

	if an != nil {
		b.WriteString("## Analytics\n\n")
		fmt.Fprintf(&b, "- attribute subset: %s (response %s)\n",
			strings.Join(an.Attributes, ", "), an.Response)
		fmt.Fprintf(&b, "- correlation eligibility: max |r| = %.3f -> weakly correlated = %v\n",
			maxPredictorCorr(an), an.WeaklyCorrelated)
		fmt.Fprintf(&b, "- K-means: elbow K = %d over the SSE sweep", an.ChosenK)
		if len(an.SSECurve) > 0 {
			fmt.Fprintf(&b, " [%d..%d]", an.SSECurve[0].K, an.SSECurve[len(an.SSECurve)-1].K)
		}
		b.WriteString("\n")
		if an.Clustering != nil {
			for c := 0; c < an.ChosenK; c++ {
				mean := an.ClusterResponseMeans[c]
				if math.IsNaN(mean) {
					fmt.Fprintf(&b, "  - cluster %d: %d certificates, no valid response\n",
						c, an.Clustering.Sizes[c])
				} else {
					fmt.Fprintf(&b, "  - cluster %d: %d certificates, mean %s %.1f\n",
						c, an.Clustering.Sizes[c], an.Response, mean)
				}
			}
		}
		b.WriteString("- discretizations:\n")
		for _, attr := range an.Attributes {
			if bin, ok := an.Binnings[attr]; ok {
				fmt.Fprintf(&b, "  - %s\n", bin)
			}
		}
		fmt.Fprintf(&b, "- association rules: %d mined; top 5 by lift:\n\n", len(an.Rules))
		b.WriteString("```\n")
		b.WriteString(assoc.FormatTable(assoc.TopK(an.Rules, assoc.ByLift, 5)))
		b.WriteString("```\n\n")
	}

	// Spatial summary over the current table.
	if tab := e.Table(epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH); tab.HasColumn(epc.AttrEPH) {
		if zs, err := e.zoneSummary(tab); err == nil && zs != "" {
			b.WriteString("## Energy demand by district\n\n")
			b.WriteString(zs)
		}
	}
	return b.String()
}

// zoneSummary renders the per-district mean response of tab, the
// engine's coordinates and response, as a markdown list.
func (e *Engine) zoneSummary(tab *table.Table) (string, error) {
	lat, err := tab.Floats(epc.AttrLatitude)
	if err != nil {
		return "", err
	}
	lon, _ := tab.Floats(epc.AttrLongitude)
	eph, _ := tab.Floats(epc.AttrEPH)
	ephValid, _ := tab.ValidMask(epc.AttrEPH)
	pts := make([]geo.Point, len(lat))
	for i := range lat {
		pts[i] = geo.Point{Lat: lat[i], Lon: lon[i]}
	}
	ids := e.hier.Assign(pts, geo.LevelDistrict)
	sums := map[string]float64{}
	counts := map[string]int{}
	for i, id := range ids {
		if id == "" || !ephValid[i] {
			continue
		}
		sums[id] += eph[i]
		counts[id]++
	}
	var b strings.Builder
	for _, z := range e.hier.Districts() {
		n := counts[z.ID]
		if n == 0 {
			continue
		}
		mean := sums[z.ID] / float64(n)
		fmt.Fprintf(&b, "- %s: mean EPH %.1f kWh/m2y over %d certificates\n", z.Name, mean, n)
	}
	return b.String(), nil
}

func maxPredictorCorr(an *Analysis) float64 {
	if an.Correlations == nil {
		return 0
	}
	// The matrix carries attributes + response; restrict to attributes.
	k := len(an.Attributes)
	var best float64
	for i := 0; i < k && i < len(an.Correlations.Coef); i++ {
		for j := 0; j < k && j < len(an.Correlations.Coef[i]); j++ {
			if i == j {
				continue
			}
			if a := math.Abs(an.Correlations.Coef[i][j]); a > best {
				best = a
			}
		}
	}
	return best
}
