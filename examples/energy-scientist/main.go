// The energy-scientist scenario of §2.2.1: benchmarking analysis over
// groups of buildings with similar properties. The scientist compares the
// three univariate outlier detectors on the same dirty attribute, records
// the chosen configuration so INDICE can suggest it to non-expert users,
// validates the clustering with the silhouette index, and inspects rules
// templated on the energy class.
//
//	go run ./examples/energy-scientist
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"indice/internal/assoc"
	"indice/internal/cluster"
	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/outlier"
	"indice/internal/query"
	"indice/internal/render"
	"indice/internal/stats"
	"indice/internal/supervised"
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
	dirty, truth, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		log.Fatal(err)
	}
	planted := 0
	for _, rows := range truth.OutlierRows {
		planted += len(rows)
	}
	fmt.Printf("collection: %d certificates, %d planted gross outliers\n",
		dirty.NumRows(), planted)

	// 1. Compare the univariate detectors on the case-study attributes.
	fmt.Println("\nunivariate detector comparison over the thermo-physical subset:")
	for _, m := range []outlier.Method{outlier.MethodBoxplot, outlier.MethodGESD, outlier.MethodMAD} {
		_, union, err := outlier.DetectColumns(dirty, epc.CaseStudyAttributes, outlier.DefaultConfig(m))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s flagged %4d rows\n", m, len(union))
	}

	// 2. Record the expert's choice: gESD for the U-values, MAD elsewhere.
	store := outlier.NewSuggestionStore()
	gesd := outlier.DefaultConfig(outlier.MethodGESD)
	for _, a := range []string{epc.AttrUOpaque, epc.AttrUWindows} {
		store.Record(outlier.UsageRecord{Attr: a, Config: gesd, Expert: true})
	}
	mad := outlier.DefaultConfig(outlier.MethodMAD)
	for _, a := range []string{epc.AttrAspectRatio, epc.AttrHeatSurface, epc.AttrETAH} {
		store.Record(outlier.UsageRecord{Attr: a, Config: mad, Expert: true})
	}
	suggested, _ := store.Suggest(epc.AttrUOpaque)
	fmt.Printf("\nsuggestion store: non-experts analysing %s now get %s by default\n",
		epc.AttrUOpaque, suggested.Method)
	f, err := os.Create("expert_configs.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("persisted expert configurations to expert_configs.json")

	// 3. Full pipeline with the expert store wired in.
	eng, err := core.NewEngine(dirty, city.Hierarchy, core.Options{Suggestions: store})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Select(query.Residential()); err != nil {
		log.Fatal(err)
	}
	pcfg := core.DefaultPreprocessConfig()
	pcfg.SkipCleaning = true
	pcfg.Multivariate = true // scientists also run the DBSCAN screen
	rep, err := eng.Preprocess(pcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npre-processing removed %d rows (univariate %s + DBSCAN eps=%.3f minPts=%d)\n",
		len(rep.OutlierRows), rep.UnivariateMethod, rep.Multivariate.Eps, rep.Multivariate.MinPts)

	an, err := eng.Analyze(core.DefaultAnalysisConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("K-means: elbow K = %d, sizes %v\n", an.ChosenK, an.Clustering.Sizes)

	// 4. Validate the clustering with the silhouette on a sample.
	tab := eng.Table(append([]string{epc.AttrEPH}, epc.CaseStudyAttributes...)...)
	mat, _, err := tab.Matrix(epc.CaseStudyAttributes...)
	if err != nil {
		log.Fatal(err)
	}
	sampleN := 800
	if len(mat) < sampleN {
		sampleN = len(mat)
	}
	sample := make([][]float64, sampleN)
	labels := make([]int, sampleN)
	stride := len(mat) / sampleN
	if stride < 1 {
		stride = 1
	}
	kept := 0
	for i := 0; i < len(mat) && kept < sampleN; i += stride {
		sample[kept] = mat[i]
		labels[kept] = an.Clustering.Labels[i]
		kept++
	}
	sil, err := cluster.Silhouette(sample[:kept], labels[:kept])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("silhouette (n=%d sample): %.3f\n", kept, sil)

	// 5. Future-work extensions: hierarchical clustering on a sample with
	// its dendrogram, Spearman rank correlations, and a supervised kNN
	// benchmark predicting EPH from the thermo-physical attributes.
	sampleH := sample[:80]
	dg, err := cluster.Hierarchical(sampleH, cluster.AverageLinkage)
	if err != nil {
		log.Fatal(err)
	}
	hLabels, err := dg.Cut(an.ChosenK)
	if err != nil {
		log.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, l := range hLabels {
		distinct[l] = true
	}
	fmt.Printf("\nhierarchical clustering (average linkage, n=80 sample): cut at K=%d -> %d clusters\n",
		an.ChosenK, len(distinct))
	dsvg, err := render.DendrogramChart(nil, "Agglomerative dendrogram (sample)", dg, 720, 380)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("scientist_dendrogram.svg", dsvg, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote scientist_dendrogram.svg")

	ephVals, _ := tab.Floats(epc.AttrEPH)
	uoVals, _ := tab.Floats(epc.AttrUOpaque)
	rho, err := stats.Spearman(ephVals, uoVals)
	if err != nil {
		log.Fatal(err)
	}
	pear, _ := stats.Pearson(ephVals, uoVals)
	fmt.Printf("EPH vs Uo: Spearman rho=%.3f, Pearson r=%.3f\n", rho, pear)

	// Keep only rows whose response survived corruption (EPH may be one
	// of the randomly blanked numeric cells).
	_, rowsIdx, _ := tab.Matrix(epc.CaseStudyAttributes...)
	var matRows [][]float64
	var respAll []float64
	for i, r := range rowsIdx {
		if v := ephVals[r]; !math.IsNaN(v) {
			matRows = append(matRows, mat[i])
			respAll = append(respAll, v)
		}
	}
	train, test, err := supervised.SplitIndices(len(matRows), 0.25, 11)
	if err != nil {
		log.Fatal(err)
	}
	trX := make([][]float64, len(train))
	trY := make([]float64, len(train))
	for i, r := range train {
		trX[i], trY[i] = matRows[r], respAll[r]
	}
	knn, _ := supervised.NewKNN(8)
	if err := knn.FitRegression(trX, trY); err != nil {
		log.Fatal(err)
	}
	pred := make([]float64, len(test))
	truthY := make([]float64, len(test))
	for i, r := range test {
		p, err := knn.PredictValue(matRows[r])
		if err != nil {
			log.Fatal(err)
		}
		pred[i], truthY[i] = p, respAll[r]
	}
	r2, _ := supervised.R2(truthY, pred)
	mae, _ := supervised.MAE(truthY, pred)
	fmt.Printf("kNN benchmark (EPH from 5 attrs): R2=%.3f MAE=%.1f kWh/m2y on %d held-out units\n",
		r2, mae, len(test))

	// 6. Rules templated on the energy class, the benchmarking view.
	tpl := assoc.Template{ConsequentAttrs: []string{epc.AttrEnergyClass, epc.AttrEPH}}
	templated := tpl.Filter(an.Rules)
	fmt.Printf("\nrules with class/EPH consequents: %d; top 6 by conviction:\n", len(templated))
	fmt.Print(assoc.FormatTable(assoc.TopK(templated, assoc.ByConviction, 6)))

	html, err := eng.DashboardBytes(query.EnergyScientist, an)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("scientist_dashboard.html", html, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote scientist_dashboard.html (%d bytes)\n", len(html))
}
