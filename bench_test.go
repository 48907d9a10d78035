package indice

// One benchmark per evaluation artifact of the paper (see the index in
// docs/benchmarks.md, E1..E8) plus the ablation benches that index marks
// "+ablation". Run with:
//
//	go test -bench=. -benchmem .

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"indice/internal/assoc"
	"indice/internal/cluster"
	"indice/internal/core"
	"indice/internal/dashboard"
	"indice/internal/epc"
	"indice/internal/experiments"
	"indice/internal/geo"
	"indice/internal/geocode"
	"indice/internal/matrix"
	"indice/internal/obs"
	"indice/internal/outlier"
	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/server"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// Obs A/B: INDICE_BENCH_OBS_OFF=1 disables the default registry's
// histograms and spans (counters and gauges stay live — a single atomic
// add is the floor), so the same bench invocation run twice measures
// the observability layer's real overhead on identical hardware.
func init() {
	if os.Getenv("INDICE_BENCH_OBS_OFF") == "1" {
		obs.Default.SetEnabled(false)
	}
}

var (
	worldOnce sync.Once
	world     *experiments.World
	worldErr  error
)

// benchWorld lazily builds one shared synthetic universe (2000
// certificates; the experiments binary runs the 25000-certificate paper
// scale).
func benchWorld(b *testing.B) *experiments.World {
	b.Helper()
	worldOnce.Do(func() {
		world, worldErr = experiments.NewWorld(experiments.TestScale())
	})
	if worldErr != nil {
		b.Fatal(worldErr)
	}
	return world
}

func benchRunner(b *testing.B) *experiments.Runner {
	return &experiments.Runner{World: benchWorld(b)}
}

// BenchmarkE1DatasetGeneration regenerates the §3 dataset (25000×132 at
// paper scale; 2000×132 here) from scratch.
func BenchmarkE1DatasetGeneration(b *testing.B) {
	w := benchWorld(b)
	cfg := synth.DefaultConfig()
	cfg.Certificates = w.Scale.Certificates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg, w.City); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2GeoCleaning runs the §2.1.1 reconciliation pass (ϕ=0.8,
// blocking index + geocoder fallback) over the corrupted collection.
func BenchmarkE2GeoCleaning(b *testing.B) {
	w := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := w.Dirty.Clone()
		cl, err := geocode.NewCleaner(w.StreetMap,
			geocode.NewMockGeocoder(w.StreetMap, w.Scale.Certificates),
			geocode.DefaultCleanConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := cl.Clean(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2AblationExhaustiveMatch is the docs/benchmarks.md ablation: best-match
// address lookup via the n-gram blocking index versus the exhaustive scan
// of the whole street registry.
func BenchmarkE2AblationExhaustiveMatch(b *testing.B) {
	w := benchWorld(b)
	addr, err := w.Dirty.Strings(epc.AttrAddress)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("blocking", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.StreetMap.MatchStreet(addr[i%len(addr)], 32)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.StreetMap.MatchStreetExhaustive(addr[i%len(addr)])
		}
	})
}

// BenchmarkE3Outliers compares the §2.1.2 detectors on the case-study
// attributes of the corrupted collection.
func BenchmarkE3Outliers(b *testing.B) {
	w := benchWorld(b)
	for _, m := range []outlier.Method{outlier.MethodBoxplot, outlier.MethodGESD, outlier.MethodMAD} {
		b.Run(string(m), func(b *testing.B) {
			cfg := outlier.DefaultConfig(m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := outlier.DetectColumns(w.Dirty, epc.CaseStudyAttributes, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("dbscan-auto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := outlier.DetectMultivariate(w.Dirty, epc.CaseStudyAttributes, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE3OutliersParallel is the parallel variant of E3: the same
// univariate and multivariate screens at Parallelism 1 versus one worker
// per CPU. Flagged rows are identical; only the wall clock may differ.
func BenchmarkE3OutliersParallel(b *testing.B) {
	w := benchWorld(b)
	uni := func(parallelism int) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := outlier.DefaultConfig(outlier.MethodMAD)
			cfg.Parallelism = parallelism
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := outlier.DetectColumns(w.Dirty, epc.CaseStudyAttributes, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	multi := func(parallelism int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := outlier.DetectMultivariate(w.Dirty, epc.CaseStudyAttributes, parallelism); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("mad-sequential", uni(1))
	b.Run("mad-parallel", uni(runtime.GOMAXPROCS(0)))
	b.Run("dbscan-sequential", multi(1))
	b.Run("dbscan-parallel", multi(runtime.GOMAXPROCS(0)))
}

// BenchmarkE4CorrelationMatrix regenerates the Figure 3 matrix.
func BenchmarkE4CorrelationMatrix(b *testing.B) {
	r := benchRunner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.E4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5KMeansElbow regenerates the Figure 4 cluster analysis (SSE
// sweep + elbow + final clustering).
func BenchmarkE5KMeansElbow(b *testing.B) {
	r := benchRunner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.E5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5KMeansElbowParallel isolates the Figure 4 elbow sweep — the
// analytics hot path — and compares Parallelism 1 against one worker per
// CPU. The sweep fans the (K, restart) K-means jobs across the pool; the
// curve is bitwise-identical, so the ratio of these two numbers is the
// engine's parallel speedup (≈1.0 on a single-CPU host).
func BenchmarkE5KMeansElbowParallel(b *testing.B) {
	w := benchWorld(b)
	mat, _, err := w.Clean.Matrix(epc.CaseStudyAttributes...)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(parallelism int) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := cluster.KMeansConfig{Seed: 1, Parallelism: parallelism}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				curve, err := cluster.SSECurve(mat, 2, 8, 3, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cluster.ElbowK(curve); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", sweep(1))
	b.Run("parallel", sweep(runtime.GOMAXPROCS(0)))
}

// BenchmarkE6AssociationRules regenerates the Figure 4 rule panel (CART
// discretization + Apriori + rule generation).
func BenchmarkE6AssociationRules(b *testing.B) {
	r := benchRunner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.E6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6AssociationRulesParallel isolates the Apriori support
// counting of the rule panel and compares Parallelism 1 against one
// worker per CPU on the same discretized transactions. Counts are
// integers, so the mined rules are identical.
func BenchmarkE6AssociationRulesParallel(b *testing.B) {
	w := benchWorld(b)
	eng, err := core.NewEngine(w.Clean.Clone(), w.City.Hierarchy, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	acfg := core.DefaultAnalysisConfig()
	acfg.KMax = 8
	an, err := eng.Analyze(acfg)
	if err != nil {
		b.Fatal(err)
	}
	miner, err := eng.RuleMiner(acfg, an)
	if err != nil {
		b.Fatal(err)
	}
	mine := func(parallelism int) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := assoc.MiningConfig{MinSupport: 0.05, MaxLen: 3, Parallelism: parallelism}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frequent, err := miner.FrequentItemsets(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := miner.Rules(frequent, assoc.RuleConfig{
					MinConfidence: 0.6, MinLift: 1.1, MaxConsequentLen: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", mine(1))
	b.Run("parallel", mine(runtime.GOMAXPROCS(0)))
}

// BenchmarkE7Maps regenerates the Figure 2 drill-down, one sub-bench per
// zoom level, from the three columns a map reads, decoded once untimed.
func BenchmarkE7Maps(b *testing.B) {
	w := benchWorld(b)
	eng, err := core.NewEngine(w.Clean.Clone(), w.City.Hierarchy, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tab := eng.Table(epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH)
	for _, level := range []geo.Level{geo.LevelUnit, geo.LevelNeighbourhood, geo.LevelDistrict, geo.LevelCity} {
		b.Run(level.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := dashboard.RenderMap(tab, eng.Hierarchy(), dashboard.MapSpec{
					Title: "bench",
					Level: level,
					Attr:  epc.AttrEPH,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7AblationAggregation is the docs/benchmarks.md ablation: at coarse
// zoom, rendering aggregated cluster-markers versus every point, from
// the three columns a map reads, decoded once untimed.
func BenchmarkE7AblationAggregation(b *testing.B) {
	w := benchWorld(b)
	eng, err := core.NewEngine(w.Clean.Clone(), w.City.Hierarchy, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tab := eng.Table(epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH)
	b.Run("aggregated-markers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dashboard.RenderMap(tab, eng.Hierarchy(), dashboard.MapSpec{
				Title: "bench", Level: geo.LevelDistrict, Attr: epc.AttrEPH,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-point", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dashboard.RenderMap(tab, eng.Hierarchy(), dashboard.MapSpec{
				Title: "bench", Level: geo.LevelUnit, Attr: epc.AttrEPH,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8Dashboards regenerates the three stakeholder dashboards.
func BenchmarkE8Dashboards(b *testing.B) {
	w := benchWorld(b)
	eng, err := core.NewEngine(w.Clean.Clone(), w.City.Hierarchy, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	acfg := core.DefaultAnalysisConfig()
	acfg.KMax = 8
	an, err := eng.Analyze(acfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []query.Stakeholder{query.Citizen, query.PublicAdministration, query.EnergyScientist} {
		b.Run(string(s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Dashboard(s, an); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Ingest measures streaming-store ingestion throughput
// (records/s) at 1, 4 and 8 shards: the world's 2000-certificate table is
// appended batch-by-batch into a fresh store, then snapshotted once. On a
// single-CPU host the shard counts tie; on multi-core hosts the sharded
// variants overlap index/stat maintenance across batches (batches fan in
// from concurrent clients in production).
func BenchmarkE9Ingest(b *testing.B) {
	w := benchWorld(b)
	const batchRows = 500
	var batches []*table.Table
	for off := 0; off < w.Clean.NumRows(); off += batchRows {
		end := off + batchRows
		if end > w.Clean.NumRows() {
			end = w.Clean.NumRows()
		}
		part, err := w.Clean.Slice(off, end)
		if err != nil {
			b.Fatal(err)
		}
		batches = append(batches, part)
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				cfg := store.DefaultConfig()
				cfg.Shards = shards
				st, err := store.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for _, batch := range batches {
					wg.Add(1)
					go func(batch *table.Table) {
						defer wg.Done()
						if _, err := st.AppendTable(batch); err != nil {
							b.Error(err)
						}
					}(batch)
				}
				wg.Wait()
				snap := st.Snapshot()
				if snap.NumRows() != w.Clean.NumRows() {
					b.Fatalf("snapshot rows = %d", snap.NumRows())
				}
				rows += snap.NumRows()
			}
			b.StopTimer()
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// benchKernelPoints generates n deterministic synthetic points: `centers`
// Gaussian blobs of the given spread in [0,1]^dim, the shape of INDICE's
// normalized thermo-physical attribute matrices.
func benchKernelPoints(n, dim, centers int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	mus := make([][]float64, centers)
	for c := range mus {
		mus[c] = make([]float64, dim)
		for d := range mus[c] {
			mus[c][d] = rng.Float64()
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		mu := mus[i%centers]
		p := make([]float64, dim)
		for d := range p {
			v := mu[d] + rng.NormFloat64()*spread
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			p[d] = v
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkE11Kernels measures the flat-matrix compute core:
//
//   - kmeans-elbow: the K=2..8 SSE sweep over 100k×5 points — Hamerly
//     bounds + expanded-distance screening (target ≥2× over plain
//     Lloyd's on [][]float64 rows);
//   - dbscan-100k: DBSCAN over 100k×3 points — packed-int64 cell keys
//     with reusable scratch (target ≥1.5× over the string-keyed grid);
//   - kdistances-4k: the eps-estimation k-distance plot — per-point
//     quickselect instead of fully sorting every distance slice.
//
// The pre-refactor implementations these are measured against are test
// code of package cluster (internal/cluster/reference_test.go): their
// arms and the bitwise gates run there, over the same points, as
// BenchmarkE11KernelsReference. Captured numbers and methodology in
// docs/benchmarks.md.
func BenchmarkE11Kernels(b *testing.B) {
	const (
		kmN, kmDim, kMin, kMax = 100_000, 5, 2, 8
		dbN, dbDim             = 100_000, 3
		dbEps                  = 0.02
		dbMinPts               = 8
		kdN, kdK               = 4000, 4
	)
	kmMat, err := matrix.FromRows(benchKernelPoints(kmN, kmDim, 8, 0.06, 42))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kmeans-elbow/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.SSECurveMatrix(kmMat, kMin, kMax, 1, cluster.KMeansConfig{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})

	dbMat, err := matrix.FromRows(benchKernelPoints(dbN, dbDim, 40, 0.05, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dbscan-100k/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.DBSCANMatrix(dbMat, dbEps, dbMinPts); err != nil {
				b.Fatal(err)
			}
		}
	})

	kdMat, err := matrix.FromRows(benchKernelPoints(kdN, 3, 8, 0.08, 9))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kdistances-4k/quickselect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KDistancesMatrix(kdMat, kdK, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// e12Attrs are the five clustering attributes of the E12 refresh world.
var e12Attrs = []string{"ua", "ub", "uc", "ud", "ue"}

// e12Schema is the reduced EPC schema of the refresh benchmark: identity,
// zone, coordinates, the five thermo-physical attributes and the response.
func e12Schema() []table.Field {
	fields := []table.Field{
		{Name: epc.AttrCertificateID, Type: table.String},
		{Name: epc.AttrDistrict, Type: table.String},
		{Name: epc.AttrLatitude, Type: table.Float64},
		{Name: epc.AttrLongitude, Type: table.Float64},
	}
	for _, a := range e12Attrs {
		fields = append(fields, table.Field{Name: a, Type: table.Float64})
	}
	return append(fields, table.Field{Name: epc.AttrEPH, Type: table.Float64})
}

// e12Batch bulk-builds rows [lo, hi): four well-separated Gaussian blobs
// over the five attributes (σ=0.02 around per-blob corner centers), a
// blob-dependent response, and an unambiguous MAD outlier every 97th row.
func e12Batch(b *testing.B, lo, hi int, seed int64) *table.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := hi - lo
	ids := make([]string, n)
	districts := make([]string, n)
	lat := make([]float64, n)
	lon := make([]float64, n)
	attrs := make([][]float64, len(e12Attrs))
	for d := range attrs {
		attrs[d] = make([]float64, n)
	}
	eph := make([]float64, n)
	for i := 0; i < n; i++ {
		row := lo + i
		blob := row % 4
		ids[i] = fmt.Sprintf("cert-%07d", row)
		districts[i] = fmt.Sprintf("D%d", blob)
		lat[i] = rng.Float64()
		lon[i] = rng.Float64()
		for d := range attrs {
			center := 0.2
			if (blob>>uint(d%2))&1 == 1 {
				center = 0.8
			}
			if d == 2 && blob < 2 {
				center = 1 - center
			}
			attrs[d][i] = center + rng.NormFloat64()*0.02
		}
		if row%97 == 0 {
			attrs[0][i] = 50 + rng.Float64()
		}
		eph[i] = 100 + 50*float64(blob) + rng.NormFloat64()*3
	}
	tab := table.New()
	if err := tab.AddStrings(epc.AttrCertificateID, ids); err != nil {
		b.Fatal(err)
	}
	if err := tab.AddStrings(epc.AttrDistrict, districts); err != nil {
		b.Fatal(err)
	}
	if err := tab.AddFloats(epc.AttrLatitude, lat); err != nil {
		b.Fatal(err)
	}
	if err := tab.AddFloats(epc.AttrLongitude, lon); err != nil {
		b.Fatal(err)
	}
	for d, a := range e12Attrs {
		if err := tab.AddFloats(a, attrs[d]); err != nil {
			b.Fatal(err)
		}
	}
	if err := tab.AddFloats(epc.AttrEPH, eph); err != nil {
		b.Fatal(err)
	}
	return tab
}

// e12Live builds a fresh store + live pair for one E12 variant.
func e12Live(b *testing.B, incremental bool) (*store.Store, *core.Live) {
	b.Helper()
	st, err := store.New(store.Config{
		Shards:     4,
		Schema:     e12Schema(),
		KeyAttr:    epc.AttrCertificateID,
		IndexAttrs: []string{epc.AttrDistrict},
	})
	if err != nil {
		b.Fatal(err)
	}
	hier, err := geo.GridHierarchy("e12", geo.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}, 2, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	acfg := core.DefaultAnalysisConfig()
	acfg.Attributes = append([]string(nil), e12Attrs...)
	acfg.KMin, acfg.KMax = 2, 8
	acfg.Restarts = 2
	pcfg := core.DefaultPreprocessConfig()
	pcfg.OutlierAttrs = append([]string(nil), e12Attrs...)
	live, err := core.NewLive(st, hier, core.LiveConfig{
		Preprocess: pcfg,
		Analysis:   acfg,
		MinRows:    50,
		// The incremental variant measures the pure fast-path latency:
		// FullEvery is pushed out of reach (the production default
		// re-sweeps every 8th refresh), the drift threshold stays at its
		// default.
		Incremental: core.IncrementalConfig{Disable: !incremental, FullEvery: 1 << 30},
	})
	if err != nil {
		b.Fatal(err)
	}
	return st, live
}

// BenchmarkE12Refresh measures full-versus-incremental refresh latency on
// a 100k-row live store at 1%, 10% and 50% ingest deltas: each iteration
// ingests one delta batch (untimed) and times exactly one Refresh. The
// full variants run the data step over the whole snapshot and the elbow
// sweep; the incremental variants materialize only the delta
// (zero-copy base reuse via Snapshot.DeltaSince) and warm-start one
// K-means run at the previous K. Equivalence of the
// two paths is pinned by the randomized suite in
// internal/core/incremental_test.go. Captured numbers and methodology
// in docs/benchmarks.md.
func BenchmarkE12Refresh(b *testing.B) {
	const baseRows = 100_000
	for _, mode := range []string{"full", "incremental"} {
		incremental := mode == "incremental"
		for _, pct := range []int{1, 10, 50} {
			b.Run(fmt.Sprintf("%s/delta=%d%%", mode, pct), func(b *testing.B) {
				st, live := e12Live(b, incremental)
				if _, err := st.AppendTable(e12Batch(b, 0, baseRows, 42)); err != nil {
					b.Fatal(err)
				}
				if _, err := live.Refresh(); err != nil { // baseline publish, untimed
					b.Fatal(err)
				}
				deltaRows := baseRows * pct / 100
				next := baseRows
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					batch := e12Batch(b, next, next+deltaRows, int64(1000+i))
					if _, err := st.AppendTable(batch); err != nil {
						b.Fatal(err)
					}
					next += deltaRows
					b.StartTimer()
					pub, err := live.Refresh()
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if pub.Incremental != incremental {
						b.Fatalf("refresh incremental = %v, variant wants %v", pub.Incremental, incremental)
					}
					if pub.Rows != next {
						b.Fatalf("published %d rows, want %d", pub.Rows, next)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkE10Query compares the snapshot query planner's secondary-index
// pushdown against the naive full scan on a 100k-row sharded store: a
// zone equality conjoined with a numeric range (the paper's
// attribute-by-attribute stakeholder selection) touches ~1/20 of the rows
// via the per-shard district index, while the full scan masks every row.
func BenchmarkE10Query(b *testing.B) {
	const rows = 100_000
	cfg := store.Config{
		Shards: 4,
		Schema: []table.Field{
			{Name: epc.AttrCertificateID, Type: table.String},
			{Name: epc.AttrDistrict, Type: table.String},
			{Name: epc.AttrEnergyClass, Type: table.String},
			{Name: epc.AttrEPH, Type: table.Float64},
		},
		KeyAttr:    epc.AttrCertificateID,
		IndexAttrs: []string{epc.AttrDistrict, epc.AttrEnergyClass},
	}
	st, err := store.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := table.NewWithSchema(cfg.Schema)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, rows)
	districts := make([]string, rows)
	classes := make([]string, rows)
	eph := make([]float64, rows)
	for i := 0; i < rows; i++ {
		ids[i] = fmt.Sprintf("cert-%07d", i)
		districts[i] = fmt.Sprintf("D%02d", (i*7919)%20)
		classes[i] = epc.EnergyClasses[(i*104729)%len(epc.EnergyClasses)]
		eph[i] = float64((i * 31) % 500)
	}
	seed := table.New()
	if err := seed.AddStrings(epc.AttrCertificateID, ids); err != nil {
		b.Fatal(err)
	}
	if err := seed.AddStrings(epc.AttrDistrict, districts); err != nil {
		b.Fatal(err)
	}
	if err := seed.AddStrings(epc.AttrEnergyClass, classes); err != nil {
		b.Fatal(err)
	}
	if err := seed.AddFloats(epc.AttrEPH, eph); err != nil {
		b.Fatal(err)
	}
	if err := tab.AppendTable(seed); err != nil {
		b.Fatal(err)
	}
	if _, err := st.AppendTable(tab); err != nil {
		b.Fatal(err)
	}
	snap := st.Snapshot()
	flat, err := snap.Table() // materialize once, outside timing
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse(epc.AttrDistrict + " = D07 and " + epc.AttrEPH + " in [0, 400]")

	want, err := query.Select(flat, q)
	if err != nil {
		b.Fatal(err)
	}
	got, _, err := snap.Query(q, 1)
	if err != nil {
		b.Fatal(err)
	}
	if got.NumRows() != want.NumRows() || got.NumRows() == 0 {
		b.Fatalf("indexed path matched %d rows, full scan %d", got.NumRows(), want.NumRows())
	}

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.Query(q, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.Query(q, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := query.Select(flat, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// e13Open builds one store for an E13 durability variant: in-memory
// (the pre-durability baseline), WAL without explicit fsync (page-cache
// durability: survives kill -9, not power loss) and WAL with fsync per
// ack (full durability). Auto-checkpointing is disabled so the ingest
// numbers isolate the pure log-ahead cost.
func e13Open(b *testing.B, mode string) *store.Store {
	b.Helper()
	cfg := store.Config{
		Shards:     4,
		Schema:     e12Schema(),
		KeyAttr:    epc.AttrCertificateID,
		IndexAttrs: []string{epc.AttrDistrict},
	}
	if mode == "memory" {
		st, err := store.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	fsync := store.FsyncOff
	if mode == "wal-fsync" {
		fsync = store.FsyncAlways
	}
	st, err := store.Open(cfg, store.Durability{
		Dir: b.TempDir(), Fsync: fsync, MaxWALBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkE13Durability prices the persistence layer added with the
// durable-segment-store PR. The ingest variants time one acked 2000-row
// batch through the three durability modes — the memory/wal-nofsync gap
// is the framing+write cost, the wal-nofsync/wal-fsync gap is the disk
// flush the ack waits on. The recover variants time a full boot
// (manifest + segment adoption + WAL replay) over a 40k-row directory:
// wal-only replays everything from the log; checkpoint+wal adopts half
// from checkpoint segments and replays the other half. The wal-bytes
// variants price the log itself per row at four batch sizes (E26).
// Captured numbers and methodology in docs/benchmarks.md.
func BenchmarkE13Durability(b *testing.B) {
	const batchRows = 2000
	for _, mode := range []string{"memory", "wal-nofsync", "wal-fsync"} {
		b.Run("ingest/"+mode, func(b *testing.B) {
			st := e13Open(b, mode)
			defer st.Close()
			batch := e12Batch(b, 0, batchRows, 7)
			b.ReportAllocs()
			b.SetBytes(int64(batchRows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.AppendTable(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	const bootRows = 40_000
	for _, mode := range []string{"wal-only", "checkpoint+wal"} {
		b.Run("recover/"+mode, func(b *testing.B) {
			dir := b.TempDir()
			cfg := store.Config{
				Shards:     4,
				Schema:     e12Schema(),
				KeyAttr:    epc.AttrCertificateID,
				IndexAttrs: []string{epc.AttrDistrict},
			}
			dur := store.Durability{Dir: dir, Fsync: store.FsyncOff, MaxWALBytes: -1}
			st, err := store.Open(cfg, dur)
			if err != nil {
				b.Fatal(err)
			}
			half := bootRows / 2
			if _, err := st.AppendTable(e12Batch(b, 0, half, 11)); err != nil {
				b.Fatal(err)
			}
			if mode == "checkpoint+wal" {
				if _, err := st.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.AppendTable(e12Batch(b, half, bootRows, 12)); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(bootRows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := store.Open(cfg, dur)
				if err != nil {
					b.Fatal(err)
				}
				if st.Rows() != bootRows {
					b.Fatalf("recovered %d rows, want %d", st.Rows(), bootRows)
				}
				b.StopTimer()
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}

	// wal-bytes: the synth corpus (132 columns, keyed, 4 shards) logged in
	// batches of each size, each batch parsed from its own typed-CSV body
	// as the ingest endpoint does (so its dictionaries hold its own values,
	// not the corpus's). wal-B/row is what the WAL costs a row on disk;
	// the gate reopens the store and compares its rows, by encoded binary
	// bytes, with an in-memory twin fed the same batches.
	const walRows = 4000
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = walRows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 20, 250, 2000} {
		b.Run(fmt.Sprintf("wal-bytes/batch=%d", batch), func(b *testing.B) {
			cfg := store.DefaultConfig()
			var batches []*table.Table
			for lo := 0; lo < walRows; lo += batch {
				part, err := ds.Table.View(lo, min(lo+batch, walRows))
				if err != nil {
					b.Fatal(err)
				}
				var body bytes.Buffer
				if err := part.WriteCSV(&body); err != nil {
					b.Fatal(err)
				}
				parsed, err := table.ReadCSV(&body)
				if err != nil {
					b.Fatal(err)
				}
				batches = append(batches, parsed)
			}
			ingest := func(st *store.Store) {
				for _, t := range batches {
					if _, err := st.AppendTable(t); err != nil {
						b.Fatal(err)
					}
				}
			}
			var dir string
			var walBytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir = b.TempDir()
				st, err := store.Open(cfg, store.Durability{Dir: dir, Fsync: store.FsyncOff, MaxWALBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				ingest(st)
				walBytes = st.DurabilityStatus().WALBytes
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			twin, err := store.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ingest(twin)
			got, err := store.Open(cfg, store.Durability{Dir: dir, MaxWALBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer got.Close()
			gt, err := got.Snapshot().Table()
			if err != nil {
				b.Fatal(err)
			}
			wt, err := twin.Snapshot().Table()
			if err != nil {
				b.Fatal(err)
			}
			var gb, wb bytes.Buffer
			if err := table.Encode(gt).WriteBinary(&gb); err != nil {
				b.Fatal(err)
			}
			if err := table.Encode(wt).WriteBinary(&wb); err != nil {
				b.Fatal(err)
			}
			if wt.NumRows() == 0 || !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				b.Fatalf("reopened store (%d rows) differs from its input (%d rows)", gt.NumRows(), wt.NumRows())
			}
			b.ReportMetric(float64(walBytes)/float64(wt.NumRows()), "wal-B/row")
		})
	}
}

// BenchmarkE14ObsOverhead prices the observability primitives on their
// hot paths: one counter/gauge/histogram update, and a full span
// start+end — with the registry enabled versus disabled. The disabled
// span is the cost every instrumented code path pays when observability
// is switched off (one atomic load + two nil checks); the enabled
// histogram observe is what each WAL append, query, and HTTP request
// adds per event. Methodology in docs/benchmarks.md.
func BenchmarkE14ObsOverhead(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_counter_total", "bench")
	gauge := reg.Gauge("bench_gauge", "bench")
	hist := reg.Histogram("bench_seconds", "bench")

	b.Run("counter_inc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	})
	b.Run("gauge_set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gauge.Set(float64(i))
		}
	})
	b.Run("histogram_observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hist.Observe(uint64(i)*1009 + 17)
		}
	})
	b.Run("histogram_observe_disabled", func(b *testing.B) {
		reg.SetEnabled(false)
		defer reg.SetEnabled(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hist.Observe(uint64(i))
		}
	})
	b.Run("span_enabled", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := reg.StartSpan(ctx, "bench.stage")
			sp.End()
		}
	})
	b.Run("span_disabled", func(b *testing.B) {
		reg.SetEnabled(false)
		defer reg.SetEnabled(true)
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, sp := reg.StartSpan(ctx, "bench.stage")
			sp.End()
		}
	})
}

// e15Table builds the E15 dataset: 100k EPC-shaped rows whose columns are
// quantized the way real certificate registries are — a handful of zone
// and class levels, integer-valued years/degree-days/floors — so the
// sealed-segment encoder can dictionary-code the categoricals and
// bit-pack the numerics. EPH carries ephDecimals fraction digits (0 in
// the integral shape, 2 in the decimal one, as the registry's eph does),
// each value the one its text would parse to. The unique certificate id
// stays raw by design (cardinality cap), pinning the honest case where
// one column resists compression.
func e15Table(b *testing.B, rows, ephDecimals int) *table.Table {
	b.Helper()
	ids := make([]string, rows)
	districts := make([]string, rows)
	classes := make([]string, rows)
	heating := make([]string, rows)
	year := make([]float64, rows)
	degreeDays := make([]float64, rows)
	floors := make([]float64, rows)
	eph := make([]float64, rows)
	heatKinds := []string{"district-heating", "natural-gas", "heat-pump", "oil"}
	ephDiv := math.Pow10(ephDecimals)
	for i := 0; i < rows; i++ {
		ids[i] = fmt.Sprintf("cert-%07d", i)
		districts[i] = fmt.Sprintf("D%02d", (i*7919)%20)
		classes[i] = epc.EnergyClasses[(i*104729)%len(epc.EnergyClasses)]
		heating[i] = heatKinds[(i*31)%len(heatKinds)]
		year[i] = float64(1950 + (i*13)%70)
		degreeDays[i] = float64(2200 + (i*17)%900)
		floors[i] = float64(1 + (i*7)%10)
		eph[i] = float64((i*31)%(500*int(ephDiv))) / ephDiv
	}
	tab := table.New()
	for _, c := range []struct {
		name string
		strs []string
		nums []float64
	}{
		{epc.AttrCertificateID, ids, nil},
		{epc.AttrDistrict, districts, nil},
		{epc.AttrEnergyClass, classes, nil},
		{"heating_type", heating, nil},
		{"year_built", nil, year},
		{"degree_days", nil, degreeDays},
		{"floors", nil, floors},
		{epc.AttrEPH, nil, eph},
	} {
		var err error
		if c.strs != nil {
			err = tab.AddStrings(c.name, c.strs)
		} else {
			err = tab.AddFloats(c.name, c.nums)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// BenchmarkE15Encoding prices the compressed-segment layer on the E10
// workload size (100k rows, 4 shards), with a selective analytics
// predicate (one district, EPH ≤ 120 kWh/m²·yr — ~1.2% of the corpus).
//
//   - encoded-scan is the planner's indexed path over sealed encoded
//     segments: bitmap postings narrow each shard to candidates, the
//     predicate re-checks them sparsely over dictionary codes and
//     bit-packed integers, and only survivors are decoded. This is the
//     number the ≥5×-vs-fullscan acceptance bar applies to.
//   - masked-scan forces the fallback (the In set contains "", which the
//     secondary index cannot serve) so Evaluator.MaskEncodedBits sweeps
//     every row of every sealed segment word-at-a-time.
//   - fullscan is the naive Predicate.Mask over the materialized
//     snapshot — the reference both paths must match row-for-row.
//
// encode times sealing one segment-sized chunk and reports the measured
// resident-memory compression of the whole table as x-reduction.
// decimal/ runs every arm again over the decimal shape, EPH at two
// fraction digits, which sealed segments pack as scaled codes.
// Captured numbers and methodology in docs/benchmarks.md.
func BenchmarkE15Encoding(b *testing.B) {
	const rows = 100_000
	e15Encoding(b, e15Table(b, rows, 0))
	b.Run("decimal", func(b *testing.B) { e15Encoding(b, e15Table(b, rows, 2)) })
}

func e15Encoding(b *testing.B, seed *table.Table) {
	cfg := store.Config{
		Shards:     4,
		Schema:     seed.Schema(),
		KeyAttr:    epc.AttrCertificateID,
		IndexAttrs: []string{epc.AttrDistrict, epc.AttrEnergyClass},
	}
	st, err := store.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.AppendTable(seed); err != nil {
		b.Fatal(err)
	}
	snap := st.Snapshot()
	flat, err := snap.Table() // materialize once, outside timing
	if err != nil {
		b.Fatal(err)
	}
	rng := query.NumRange{Attr: epc.AttrEPH, Min: 0, Max: 120}
	pred := query.And{query.In{Attr: epc.AttrDistrict, Values: []string{"D07"}}, rng}
	// Same rows, but "" in the In set is unservable by the index, forcing
	// the word-wise masked sweep of every sealed segment.
	predScan := query.And{query.In{Attr: epc.AttrDistrict, Values: []string{"D07", ""}}, rng}

	want, err := query.Select(flat, pred)
	if err != nil {
		b.Fatal(err)
	}
	got, ps, err := snap.Query(pred, 1)
	if err != nil {
		b.Fatal(err)
	}
	if got.NumRows() != want.NumRows() || got.NumRows() == 0 {
		b.Fatalf("indexed scan matched %d rows, full scan %d", got.NumRows(), want.NumRows())
	}
	if ps.IndexedShards == 0 || ps.ScannedRows != 0 {
		b.Fatalf("predicate did not take the indexed path: %+v", ps)
	}
	gotScan, ps, err := snap.Query(predScan, 1)
	if err != nil {
		b.Fatal(err)
	}
	if gotScan.NumRows() != want.NumRows() {
		b.Fatalf("masked scan matched %d rows, full scan %d", gotScan.NumRows(), want.NumRows())
	}
	if ps.ScannedRows == 0 {
		b.Fatalf("predicate did not take the masked-scan path: %+v", ps)
	}

	b.Run("encoded-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.Query(pred, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoded-scan-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.Query(pred, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("masked-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.Query(predScan, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := query.Select(flat, pred); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		chunk, err := seed.Take(seqInts(8192))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var enc *table.Encoded
		for i := 0; i < b.N; i++ {
			enc = table.Encode(chunk)
		}
		if dec := enc.Decode(); dec.NumRows() != chunk.NumRows() {
			b.Fatalf("round trip lost rows: %d vs %d", dec.NumRows(), chunk.NumRows())
		}
		full := table.Encode(seed)
		b.ReportMetric(float64(seed.SizeBytes())/float64(full.SizeBytes()), "x-reduction")
	})
}

// seqInts returns [0, 1, ..., n-1].
func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkE17AggPushdown prices the aggregation pushdown against the
// materialize-then-regroup path it replaces. Every variant answers the
// same dashboard question — per-energy-class count, mean and quartiles
// of eph — over the E15 100k-row corpus. "materialize" is the before:
// run the indexed query into a row table, then per-group passes of the
// same accumulators over the copied columns (rowWiseFold). "pushdown"
// computes identical groups directly
// over the encoded segments without building a table. "pushdown-cached"
// is the no-predicate dashboard shape served from the per-segment
// partial-aggregate cache — near-O(groups) per request. Captured
// numbers and methodology in docs/benchmarks.md. decimal/ runs every arm
// again over E15's decimal shape, EPH at two fraction digits.
func BenchmarkE17AggPushdown(b *testing.B) {
	const rows = 100_000
	e17AggPushdown(b, e15Table(b, rows, 0))
	b.Run("decimal", func(b *testing.B) { e17AggPushdown(b, e15Table(b, rows, 2)) })
}

func e17AggPushdown(b *testing.B, seed *table.Table) {
	cfg := store.Config{
		Shards:     4,
		Schema:     seed.Schema(),
		KeyAttr:    epc.AttrCertificateID,
		IndexAttrs: []string{epc.AttrDistrict, epc.AttrEnergyClass},
	}
	st, err := store.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.AppendTable(seed); err != nil {
		b.Fatal(err)
	}
	snap := st.Snapshot()
	flat, err := snap.Table() // materialize once, outside timing
	if err != nil {
		b.Fatal(err)
	}
	pred := query.And{
		query.In{Attr: epc.AttrDistrict, Values: []string{"D07"}},
		query.NumRange{Attr: epc.AttrEPH, Min: 0, Max: 400},
	}
	spec := store.AggSpec{By: epc.AttrEnergyClass, Attrs: []string{epc.AttrEPH}}

	// Equivalence gate, outside timing: the pushdown must reproduce the
	// materializing path's groups bitwise — counts, extrema, sums, means,
	// deviations (the sums are exact) and quantiles (sketch bucketing is
	// deterministic).
	tab, _, err := snap.Query(pred, 1)
	if err != nil {
		b.Fatal(err)
	}
	wantTotals, wantGroups, err := rowWiseFold(tab, spec.Attrs, spec.By)
	if err != nil {
		b.Fatal(err)
	}
	res, ps, err := snap.QueryAgg(pred, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	if res.Matched != tab.NumRows() || res.Matched == 0 {
		b.Fatalf("pushdown matched %d rows, materialize %d", res.Matched, tab.NumRows())
	}
	if ps.IndexedShards == 0 || ps.ScannedRows != 0 {
		b.Fatalf("pushdown left the indexed path: %+v", ps)
	}
	if got, want := renderAgg(res), renderAgg(&store.AggResult{Matched: tab.NumRows(), Totals: wantTotals, Groups: wantGroups}); got != want {
		b.Fatalf("pushdown %s, materialize %s", got, want)
	}
	// Warm the per-segment partial cache for the cached variant.
	if _, _, err := snap.QueryAgg(nil, spec, 1); err != nil {
		b.Fatal(err)
	}

	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab, _, err := snap.Query(pred, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := rowWiseFold(tab, spec.Attrs, spec.By); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.QueryAgg(pred, spec, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pushdown-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.QueryAgg(pred, spec, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize-nopred", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rowWiseFold(flat, spec.Attrs, spec.By); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pushdown-cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := snap.QueryAgg(nil, spec, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// rowWiseFold computes a match set's aggregates row-wise over the
// materialized table: one accumulator per attribute over all rows and,
// when by is set, the groups sorted by key with one accumulator per
// attribute each. Invalid cells group under "" like Table.GroupByString;
// invalid and non-finite cells are excluded from every accumulator
// (matching stats.Describe's reading of the corpus, and the pushdown
// kernels' semantics).
//
// It is the materialize arm of E17 and E19, the road aggregates took
// before the pushdown, and their equivalence gates' reference.
func rowWiseFold(tab *table.Table, attrs []string, by string) ([]table.AggAccum, []*table.GroupAccum, error) {
	cols := make([][]float64, len(attrs))
	masks := make([][]bool, len(attrs))
	for k, attr := range attrs {
		vals, err := tab.Floats(attr)
		if err != nil {
			return nil, nil, err
		}
		cols[k] = vals
		masks[k], _ = tab.ValidMask(attr)
	}
	totals := make([]table.AggAccum, len(attrs))
	for k := range attrs {
		for i, v := range cols[k] {
			if masks[k][i] {
				totals[k].Observe(v)
			}
		}
	}
	if by == "" {
		return totals, nil, nil
	}
	groups, err := tab.GroupByString(by)
	if err != nil {
		return nil, nil, err
	}
	gs := make([]*table.GroupAccum, 0, len(groups))
	for val, rows := range groups {
		g := &table.GroupAccum{Key: val, Rows: len(rows), Attrs: make([]table.AggAccum, len(attrs))}
		for k := range attrs {
			for _, i := range rows {
				if masks[k][i] {
					g.Attrs[k].Observe(cols[k][i])
				}
			}
		}
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Key < gs[j].Key })
	return totals, gs, nil
}

// BenchmarkE19RowPage prices one drill-down row page — the statistics of
// a selection plus its first 20 certificates — on the repo benchmark's
// corpus shape (20k certificates × 132 attributes, default store layout)
// for a predicate matching about half of them. "materialize" is the road
// /api/query and the replica rows leg took before the page path: decode
// every match into a row table (Snapshot.Query), regroup it row-wise
// (rowWiseFold), keep 20 rows. "page" is Snapshot.QueryShardsPage: the
// pushdown's accumulators plus the runs of encodings that hold the 20
// rows, which the server renders from without decoding them first.
// Methodology in docs/benchmarks.md.
func BenchmarkE19RowPage(b *testing.B) {
	const (
		rows  = 20_000
		limit = 20
	)
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = rows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.New(store.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.AppendTable(ds.Table); err != nil {
		b.Fatal(err)
	}
	snap := st.Snapshot()
	eph, err := snap.Totals(epc.AttrEPH)
	if err != nil {
		b.Fatal(err)
	}
	pred := query.NumRange{Attr: epc.AttrEPH, Min: 0, Max: eph[0].Mean()}
	spec := store.AggSpec{By: epc.AttrEnergyClass, Attrs: []string{epc.AttrEPH}}
	first := seqInts(limit)

	// Equivalence gate, outside timing: the page is the first rows of the
	// materialized match set, byte for byte, and the accumulators count
	// what the row-wise regrouping counts.
	tab, _, err := snap.Query(pred, 1)
	if err != nil {
		b.Fatal(err)
	}
	if sel := float64(tab.NumRows()) / rows; sel < 0.35 || sel > 0.65 {
		b.Fatalf("predicate matches %.0f%% of the corpus, want about half", sel*100)
	}
	wantPage, err := tab.Take(first)
	if err != nil {
		b.Fatal(err)
	}
	wantTotals, wantGroups, err := rowWiseFold(tab, spec.Attrs, spec.By)
	if err != nil {
		b.Fatal(err)
	}
	res, page, _, err := snap.QueryShardsPage(pred, 0, snap.NumShards(), 1, spec, 0, limit)
	if err != nil {
		b.Fatal(err)
	}
	var wantCSV, gotCSV bytes.Buffer
	if err := wantPage.WriteCSV(&wantCSV); err != nil {
		b.Fatal(err)
	}
	if err := pageTable(b, page).WriteCSV(&gotCSV); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		b.Fatal("page rows differ from the first rows of the materialized match set")
	}
	if got, want := renderAgg(res), renderAgg(&store.AggResult{Matched: tab.NumRows(), Totals: wantTotals, Groups: wantGroups}); got != want {
		b.Fatalf("page aggregate %s, materialize %s", got, want)
	}

	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab, _, err := snap.Query(pred, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := rowWiseFold(tab, spec.Attrs, spec.By); err != nil {
				b.Fatal(err)
			}
			if _, err := tab.Take(first); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := snap.QueryShardsPage(pred, 0, snap.NumShards(), 1, spec, 0, limit); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// e20Answer mirrors the /api/query response shape with the row page as
// the map-per-row value the result cache used to hold.
type e20Answer struct {
	Epoch     json.RawMessage  `json:"epoch"`
	StoreRows json.RawMessage  `json:"store_rows"`
	Matched   json.RawMessage  `json:"matched"`
	Query     json.RawMessage  `json:"query"`
	Cached    json.RawMessage  `json:"cached"`
	Plan      json.RawMessage  `json:"plan,omitempty"`
	Preset    json.RawMessage  `json:"preset,omitempty"`
	Stats     json.RawMessage  `json:"stats,omitempty"`
	Groups    json.RawMessage  `json:"groups,omitempty"`
	Rows      []map[string]any `json:"rows"`
	Limit     json.RawMessage  `json:"limit"`
	Offset    json.RawMessage  `json:"offset"`
}

// e20Sink is a ResponseWriter that keeps nothing but the byte count.
type e20Sink struct {
	h http.Header
	n int
}

func (w *e20Sink) Header() http.Header         { return w.h }
func (w *e20Sink) WriteHeader(int)             {}
func (w *e20Sink) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// e20Live publishes the repo benchmark's corpus shape, 20 000 synthetic
// certificates × 132 attributes, once: with the analysis skipped, the
// serving state E20, E31 and E32 put servers in front of; with it, the
// state E33 renders dashboards from.
func e20Live(b *testing.B, cfg core.LiveConfig) *core.Live {
	b.Helper()
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 20_000
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.New(store.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.AppendTable(ds.Table); err != nil {
		b.Fatal(err)
	}
	live, err := core.NewLive(st, city.Hierarchy, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := live.Refresh(); err != nil {
		b.Fatal(err)
	}
	return live
}

// E20 — hot response: a cache hit on the repo benchmark's 100-row citizen
// page over the 20k × 132 corpus, through Server.ServeHTTP. "bytes" is
// the serving path: the cache holds the encoded body and a hit writes it.
// "reencode" is what a hit cost while the cache held response structs:
// one indented json encode of the 100 rows as map[string]any — the
// handler's share only, without the request parsing "bytes" also pays.
// Methodology in docs/benchmarks.md.
func BenchmarkE20HotResponse(b *testing.B) {
	srv, err := server.NewLive(e20Live(b, core.LiveConfig{Analysis: core.AnalysisConfig{KMax: 3}}))
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/query?preset=citizen&limit=100", nil)
	serve := func() []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	computed, hit := serve(), serve()

	// Equivalence gate, outside timing: the hit is the computed answer
	// but for the cached literal, and re-encoding the decoded answer the
	// old way yields the hit's bytes once the indentation is removed.
	if !bytes.Contains(computed, []byte(`"cached":false`)) || !bytes.Contains(hit, []byte(`"cached":true`)) ||
		!bytes.Equal(bytes.Replace(computed, []byte(`"cached":false`), []byte(`"cached":true`), 1), hit) {
		b.Fatal("computed and cached answers differ beyond the cached literal")
	}
	var old e20Answer
	if err := json.Unmarshal(hit, &old); err != nil {
		b.Fatal(err)
	}
	if len(old.Rows) != 100 || len(old.Rows[0]) != 132 {
		b.Fatalf("page of %d rows x %d cells, want 100 x 132", len(old.Rows), len(old.Rows[0]))
	}
	reencode := func(w io.Writer) {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&old); err != nil {
			b.Fatal(err)
		}
	}
	var indented, compact bytes.Buffer
	reencode(&indented)
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), bytes.TrimSuffix(hit, []byte("\n"))) {
		b.Fatal("the cached body is not json.Compact of the re-encoded answer")
	}

	b.Run("reencode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(indented.Len()))
		for i := 0; i < b.N; i++ {
			reencode(io.Discard)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(hit)))
		w := &e20Sink{h: make(http.Header)}
		for i := 0; i < b.N; i++ {
			clear(w.h)
			w.n = 0
			srv.ServeHTTP(w, req)
			if w.n != len(hit) {
				b.Fatalf("hit wrote %d bytes, want %d", w.n, len(hit))
			}
		}
	})
}

// e31ColdPaths returns n distinct seeded drill-downs, eph ranges asked
// alternately as a 20-row page and as stats only (limit=0, by
// energy_class).
func e31ColdPaths(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for len(paths) < n {
		lo := float64(rng.Intn(30000)) / 100
		q := fmt.Sprintf("q=eph+in+%%5B%.2f%%2C+%.2f%%5D", lo, lo+float64(2000+rng.Intn(20000))/100)
		if seen[q] {
			continue
		}
		seen[q] = true
		if len(paths)%2 == 0 {
			paths = append(paths, "/api/query?"+q+"&limit=20")
		} else {
			paths = append(paths, "/api/query?"+q+"&attrs=eph&by=energy_class&limit=0")
		}
	}
	return paths
}

// e31Server is a fresh server, with an empty result cache, over live.
func e31Server(b *testing.B, live *core.Live) *server.Server {
	b.Helper()
	srv, err := server.NewLive(live)
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// e31Serve answers one GET through ServeHTTP; the body with its cached
// literal set to false, so a hit and a computed answer compare equal.
func e31Serve(b *testing.B, srv *server.Server, path string) []byte {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return bytes.Replace(rec.Body.Bytes(), []byte(`"cached":true`), []byte(`"cached":false`), 1)
}

// e31Resident reports, after a GC, the result cache's resident body bytes
// gained since before (the indice_query_cache_bytes gauge) and HeapAlloc.
func e31Resident(before float64) (cacheBytes, heap float64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return obs.Default.Gauge("indice_query_cache_bytes", "").Value() - before, float64(ms.HeapAlloc)
}

// E31 — cold residency: what the result cache keeps after a stream of
// drill-downs nobody repeats. A fresh server over E20's 20k × 132
// publication answers 1 024 distinct seeded eph ranges through
// ServeHTTP, alternately as a 20-row page and as stats only (limit=0, by
// energy_class); then a GC, and the cache's resident body bytes (the
// indice_query_cache_bytes delta) and HeapAlloc are reported. One op is
// the whole stream. Gate, outside timing: every answer equals the same
// request's on a fresh server, the cached literal aside. Methodology in
// docs/benchmarks.md.
func BenchmarkE31ColdResidency(b *testing.B) {
	live := e20Live(b, core.LiveConfig{Analysis: core.AnalysisConfig{KMax: 3}})
	paths := e31ColdPaths(1024, 31)
	srv := e31Server(b, live)
	for _, p := range paths {
		if got, want := e31Serve(b, srv, p), e31Serve(b, e31Server(b, live), p); !bytes.Equal(got, want) {
			b.Fatalf("%s: the answer differs from a fresh server's", p)
		}
	}

	resident := obs.Default.Gauge("indice_query_cache_bytes", "")
	var cacheBytes, heap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := resident.Value()
		srv := e31Server(b, live)
		b.StartTimer()
		for _, p := range paths {
			e31Serve(b, srv, p)
		}
		b.StopTimer()
		cacheBytes, heap = e31Resident(before)
		runtime.KeepAlive(srv)
		b.StartTimer()
	}
	b.ReportMetric(cacheBytes, "cache-B")
	b.ReportMetric(heap, "heap-B")
}

// E32 — revisits: requests one client comes back to while other clients
// drill down, the traffic a result cache that keeps only what is asked
// twice could lose. A fresh server over E20's publication serves 8 rounds
// of the same 6 revisited requests (the map at three levels, two grouped
// stats, a 20-row page), each followed by gap distinct cold queries of
// E31's kind, so a revisit comes back after 6 × (gap+1) − 1 other
// requests. Reported: hit-ratio, the share of revisits served from the
// cache (at most 7/8: a first ask cannot hit), and after a GC the cache's
// resident body bytes and HeapAlloc. Gate: every revisit's answer equals
// its first, the cached literal aside. One op is the whole trace.
// Methodology in docs/benchmarks.md.
func BenchmarkE32Revisits(b *testing.B) {
	live := e20Live(b, core.LiveConfig{Analysis: core.AnalysisConfig{KMax: 3}})
	hot := []string{
		"/map?level=city&raw=1",
		"/map?level=district&raw=1",
		"/map?level=neighbourhood&raw=1",
		"/api/query?preset=pa&by=district",
		"/api/query?attrs=eph&by=energy_class&q=eph+%3E%3D+60&limit=0",
		"/api/query?preset=citizen&limit=20",
	}
	const rounds = 8
	hits := func() float64 {
		return float64(obs.Default.Counter("indice_query_cache_hits_total", "").Value() +
			obs.Default.Counter("indice_page_cache_hits_total", "").Value())
	}
	for _, gap := range []int{1, 4, 40, 44, 255} {
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			cold := e31ColdPaths(rounds*len(hot)*gap, int64(32+gap))
			var ratio, cacheBytes, heap float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before, hits0 := obs.Default.Gauge("indice_query_cache_bytes", "").Value(), hits()
				srv := e31Server(b, live)
				first := make([][]byte, len(hot))
				b.StartTimer()
				next := 0
				for r := 0; r < rounds; r++ {
					for h, p := range hot {
						if body := e31Serve(b, srv, p); r == 0 {
							first[h] = body
						} else if !bytes.Equal(body, first[h]) {
							b.Fatalf("%s: round %d differs from the first answer", p, r)
						}
						for _, c := range cold[next : next+gap] {
							e31Serve(b, srv, c)
						}
						next += gap
					}
				}
				b.StopTimer()
				ratio = (hits() - hits0) / float64(rounds*len(hot))
				cacheBytes, heap = e31Resident(before)
				runtime.KeepAlive(srv)
				b.StartTimer()
			}
			b.ReportMetric(ratio, "hit-ratio")
			b.ReportMetric(cacheBytes, "cache-B")
			b.ReportMetric(heap, "heap-B")
		})
	}
}

// e21StreetMap builds the default city's street registry the way
// cmd/indice-server does for a synthetic boot.
func e21StreetMap(b *testing.B, city *synth.City) *geocode.StreetMap {
	b.Helper()
	sm, err := geocode.NewStreetMap(city.ReferenceEntries())
	if err != nil {
		b.Fatal(err)
	}
	return sm
}

// e21Live loads tab into a fresh store under cmd/indice-server's buildLive
// configuration (4 shards, street map, mock geocoder with a 2000-request
// quota, default pre-processing and analysis, kmax 10).
func e21Live(b *testing.B, tab *table.Table, city *synth.City, sm *geocode.StreetMap, workers int) (*store.Store, *core.Live) {
	b.Helper()
	scfg := store.DefaultConfig()
	scfg.Shards = 4
	st, err := store.New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.AppendTable(tab); err != nil {
		b.Fatal(err)
	}
	pcfg := core.DefaultPreprocessConfig()
	pcfg.Parallelism = workers
	acfg := core.DefaultAnalysisConfig()
	acfg.KMax = 10
	acfg.Parallelism = workers
	live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{
		Preprocess: pcfg,
		Analysis:   acfg,
		Options:    core.Options{StreetMap: sm, Geocoder: geocode.NewMockGeocoder(sm, 2000)},
	})
	if err != nil {
		b.Fatal(err)
	}
	return st, live
}

// e21Refresh runs one cold Live.Refresh over tab on a fresh e21Live pair
// and returns the publication. Only the Refresh call is timed.
func e21Refresh(b *testing.B, tab *table.Table, city *synth.City, sm *geocode.StreetMap, workers int) *core.Published {
	b.Helper()
	b.StopTimer()
	_, live := e21Live(b, tab, city, sm, workers)
	b.StartTimer()
	pub, err := live.Refresh()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	return pub
}

// E21 — cold refresh: one full Live.Refresh (materialize, clean, screen,
// K-means sweep, CART, rules) on 20k × 132 synthetic certificates as the
// server's buildLive wires it, at parallel.Auto. "registry" is the corpus
// the repo benchmark loads — every address is a registry street, so
// cleaning resolves ~240 distinct strings; "typos" sends the same rows
// through synth.Corrupt (12 % address typos), the side without that
// property. Gate, outside timing: the report and the analysis equal the
// ones a Parallelism 1 run produces. Methodology in docs/benchmarks.md.
func BenchmarkE21ColdRefresh(b *testing.B) {
	const rows = 20_000
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = rows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	dirty, _, err := synth.Corrupt(ds.Table, synth.DefaultCorruptionConfig())
	if err != nil {
		b.Fatal(err)
	}
	sm := e21StreetMap(b, city)
	for _, c := range []struct {
		name string
		tab  *table.Table
	}{{"registry", ds.Table}, {"typos", dirty}} {
		b.Run(c.name, func(b *testing.B) {
			want := e21Refresh(b, c.tab, city, sm, 1)
			b.ReportAllocs()
			b.ResetTimer()
			var got *core.Published
			for i := 0; i < b.N; i++ {
				got = e21Refresh(b, c.tab, city, sm, parallel.Auto)
			}
			b.StopTimer()
			// Field by field: the report also retains the pre-drop table,
			// whose NULL cells are NaN and never DeepEqual themselves.
			gr, wr := got.Report, want.Report
			if !reflect.DeepEqual(gr.Cleaning, wr.Cleaning) || !reflect.DeepEqual(gr.Univariate, wr.Univariate) ||
				!reflect.DeepEqual(gr.OutlierRows, wr.OutlierRows) || gr.RowsAfter != wr.RowsAfter {
				b.Fatal("pre-processing report differs between Parallelism 1 and parallel.Auto")
			}
			if !reflect.DeepEqual(got.Analysis, want.Analysis) {
				b.Fatal("analysis differs between Parallelism 1 and parallel.Auto")
			}
			b.ReportMetric(float64(got.Report.Cleaning.StreetMap+got.Report.Cleaning.Geocoded), "repaired-rows")
		})
	}
}

// E22 — what a snapshot and a refresh cost in bytes on the repo
// benchmark's shape: 20k × 132 certificates over 4 shards, loaded in one
// append, so each shard seals its 5 000 rows into one segment under the
// default SegmentRows. "snapshot" is Store.Snapshot alone — segment and
// tail part lists, so its B/op does not depend on the row count
// (internal/store's TestSnapshotAllocatesIndependentOfRows pins that for
// tails); "refresh-full" is the cold Live.Refresh, one owned
// materialization; "refresh-incremental" a 250-row delta on the fast path.
// Methodology in docs/benchmarks.md.
func BenchmarkE22Snapshot(b *testing.B) {
	const rows, deltaRows = 20_000, 250
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = rows + 40*deltaRows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	base, err := ds.Table.View(0, rows)
	if err != nil {
		b.Fatal(err)
	}
	sm := e21StreetMap(b, city)

	b.Run("snapshot", func(b *testing.B) {
		st, _ := e21Live(b, base, city, sm, parallel.Auto)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if snap := st.Snapshot(); snap.NumRows() != rows {
				b.Fatalf("snapshot holds %d rows", snap.NumRows())
			}
		}
	})
	b.Run("refresh-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pub := e21Refresh(b, base, city, sm, parallel.Auto); pub.Incremental || pub.Rows != rows {
				b.Fatalf("published incremental=%v over %d rows", pub.Incremental, pub.Rows)
			}
		}
	})
	b.Run("refresh-incremental", func(b *testing.B) {
		st, live := e21Live(b, base, city, sm, parallel.Auto)
		if _, err := live.Refresh(); err != nil { // baseline publish, untimed
			b.Fatal(err)
		}
		next := rows
		ingestDelta := func() {
			lo := rows + (next-rows)%(40*deltaRows)
			delta, err := ds.Table.View(lo, lo+deltaRows)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.AppendTable(delta); err != nil {
				b.Fatal(err)
			}
			next += deltaRows
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i > 0 && i%7 == 0 {
				// The 8th refresh since a full sweep re-runs it (the
				// default FullEvery): take that one outside timing.
				ingestDelta()
				if pub, err := live.Refresh(); err != nil || pub.Incremental {
					b.Fatalf("refresh after 7 deltas: err=%v, want a full sweep", err)
				}
			}
			ingestDelta()
			b.StartTimer()
			pub, err := live.Refresh()
			if err != nil {
				b.Fatal(err)
			}
			if !pub.Incremental || pub.DeltaRows != deltaRows || pub.Rows != next {
				b.Fatalf("refresh %d: incremental=%v, %d new of %d rows", i, pub.Incremental, pub.DeltaRows, pub.Rows)
			}
		}
	})
}

// e23Plain is the corpus as tables held string cells before they were
// dictionary coded — a []string and a []bool per column — keyed by
// certificate id, so that whatever a store did to row order every cell of
// every result can be held against it.
type e23Plain struct {
	names []string
	strs  map[string][]string
	valid map[string][]bool
	row   map[string]int // certificate id → source row
}

func e23Oracle(b *testing.B, tab *table.Table) *e23Plain {
	b.Helper()
	o := &e23Plain{names: tab.CategoricalColumns(), strs: map[string][]string{}, valid: map[string][]bool{}, row: map[string]int{}}
	for _, name := range o.names {
		vals, err := tab.Strings(name)
		if err != nil {
			b.Fatal(err)
		}
		mask, _ := tab.ValidMask(name)
		o.strs[name] = append([]string(nil), vals...)
		o.valid[name] = append([]bool(nil), mask...)
	}
	for r, id := range o.strs[epc.AttrCertificateID] {
		o.row[id] = r
	}
	return o
}

// mustHold fails unless every categorical cell of got is the source cell
// of the certificate in its row. csv says got went through the typed CSV,
// which cannot carry a valid empty string.
func (o *e23Plain) mustHold(b *testing.B, label string, got *table.Table, wantRows int, csv bool) {
	b.Helper()
	if got.NumRows() != wantRows {
		b.Fatalf("%s: %d rows, want %d", label, got.NumRows(), wantRows)
	}
	ids, err := got.Strings(epc.AttrCertificateID)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range o.names {
		vals, err := got.Strings(name)
		if err != nil {
			b.Fatal(err)
		}
		mask, _ := got.ValidMask(name)
		src, srcValid := o.strs[name], o.valid[name]
		for r, id := range ids {
			s, ok := o.row[id]
			if !ok {
				b.Fatalf("%s: row %d carries unknown certificate %q", label, r, id)
			}
			want, wantValid := src[s], srcValid[s]
			if csv && want == "" {
				wantValid = false
			}
			if !wantValid {
				want = ""
			}
			if vals[r] != want || mask[r] != wantValid {
				b.Fatalf("%s: certificate %s column %s reads %q (valid %v), source %q (valid %v)", label, id, name, vals[r], mask[r], want, wantValid)
			}
		}
	}
}

// BenchmarkE23DictColumns prices the dictionary-coded string columns on
// the roads a categorical cell travels, at the gated benchmark's shape
// (20k × 132 certificates, 4 shards): parsed from typed CSV, appended to
// shard tails, materialized for a refresh out of unsealed tails and out of
// sealed segments, cut into a 20-row page that spans all four shards,
// grouped and filtered through a tail's parts, and those parts merged
// into one encoding. Every arm's result is held, outside timing, against
// the corpus as plain []string columns.
// Methodology and the parent's numbers in docs/benchmarks.md.
func BenchmarkE23DictColumns(b *testing.B) {
	const rows, batchRows, shards = 20_000, 2000, 4
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = rows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	oracle := e23Oracle(b, ds.Table)
	var bodies [][]byte
	var batches []*table.Table
	for lo := 0; lo < rows; lo += batchRows {
		part, err := ds.Table.View(lo, lo+batchRows)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := part.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
		batch, err := table.ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		oracle.mustHold(b, "parsed batch", batch, batchRows, true)
		batches = append(batches, batch)
	}
	load := func(segmentRows int) *store.Store {
		cfg := store.DefaultConfig()
		cfg.Shards, cfg.SegmentRows = shards, segmentRows
		st, err := store.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if _, err := st.AppendTable(batch); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	raw, sealed := load(8192), load(2048)
	for label, st := range map[string]*store.Store{"unsealed": raw, "sealed": sealed} {
		segments := 0
		for _, sh := range st.Status().Shards {
			segments += sh.Segments
		}
		if (label == "sealed") != (segments >= 2*shards) || (label == "unsealed" && segments != 0) {
			b.Fatalf("the %s store holds %d sealed segments", label, segments)
		}
	}
	rawSnap, sealedSnap := raw.Snapshot(), sealed.Snapshot()

	b.Run("csv-parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := table.ReadCSV(bytes.NewReader(bodies[i%len(bodies)])); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append-batch", func(b *testing.B) {
		b.ReportAllocs()
		var st *store.Store
		for i := 0; i < b.N; i++ {
			if i%len(batches) == 0 {
				b.StopTimer()
				cfg := store.DefaultConfig()
				cfg.Shards = shards
				if st, err = store.New(cfg); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if res, err := st.AppendTable(batches[i%len(batches)]); err != nil || res.Accepted != batchRows {
				b.Fatalf("append: %+v, %v", res, err)
			}
		}
	})
	for _, arm := range []struct {
		name string
		snap *store.Snapshot
	}{{"unsealed", rawSnap}, {"sealed", sealedSnap}} {
		tab, err := arm.snap.Table()
		if err != nil {
			b.Fatal(err)
		}
		oracle.mustHold(b, "materialized "+arm.name, tab, rows, true)
		b.Run("materialize-"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tab, err := arm.snap.Table(); err != nil || tab.NumRows() != rows {
					b.Fatal(err)
				}
			}
		})
	}

	// A numeric range some 24 certificates wide: a page of 20 takes its
	// rows from every shard in turn.
	eph, err := ds.Table.ValidFloats(epc.AttrEPH)
	if err != nil {
		b.Fatal(err)
	}
	sort.Float64s(eph)
	lo := len(eph) / 2
	narrow := query.NumRange{Attr: epc.AttrEPH, Min: eph[lo], Max: eph[lo+23]}
	for _, arm := range []struct {
		name string
		snap *store.Snapshot
	}{{"raw", rawSnap}, {"sealed", sealedSnap}} {
		res, page, _, err := arm.snap.QueryShardsPage(narrow, 0, shards, 1, store.AggSpec{}, 0, 20)
		if err != nil {
			b.Fatal(err)
		}
		if res.Matched < 24 || res.Matched > 60 {
			b.Fatalf("the narrow range matches %d certificates", res.Matched)
		}
		oracle.mustHold(b, "page over "+arm.name, pageTable(b, page), 20, true)
		all, _, err := arm.snap.Query(narrow, 1)
		if err != nil {
			b.Fatal(err)
		}
		first, _ := all.Strings(epc.AttrCertificateID)
		got, _ := pageTable(b, page).Strings(epc.AttrCertificateID)
		if !reflect.DeepEqual(got, first[:20]) {
			b.Fatalf("page over %s is not the first 20 matches", arm.name)
		}
		b.Run("page-"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, page, _, err := arm.snap.QueryShardsPage(narrow, 0, shards, 1, store.AggSpec{}, 0, 20); err != nil || pageLen(page) != 20 {
					b.Fatal(err)
				}
			}
		})
	}

	// Group-by and In over the unsealed store's tails, counted against
	// the plain columns.
	const by, inAttr = "heating_type", epc.AttrIntendedUse
	inValues := []string{"E.1.1", "E.2"}
	spec := store.AggSpec{By: by, Attrs: []string{epc.AttrEPH}}
	wantGroups, wantIn := map[string]int{}, 0
	for r, v := range oracle.strs[by] {
		if !oracle.valid[by][r] {
			v = ""
		}
		wantGroups[v]++
		if u := oracle.strs[inAttr][r]; oracle.valid[inAttr][r] && (u == inValues[0] || u == inValues[1]) {
			wantIn++
		}
	}
	grouped, _, err := rawSnap.QueryAgg(nil, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	if len(grouped.Groups) != len(wantGroups) {
		b.Fatalf("%d groups, the plain column has %d", len(grouped.Groups), len(wantGroups))
	}
	for _, g := range grouped.Groups {
		if g.Rows != wantGroups[g.Key] {
			b.Fatalf("group %q holds %d rows, the plain column %d", g.Key, g.Rows, wantGroups[g.Key])
		}
	}
	in := query.In{Attr: inAttr, Values: inValues}
	if res, ps, err := rawSnap.QueryAgg(in, store.AggSpec{}, 1); err != nil || res.Matched != wantIn || wantIn == 0 || ps.ScannedRows != rows {
		b.Fatalf("In matches %d rows, the plain column %d (plan %+v, %v)", res.Matched, wantIn, ps, err)
	}
	// The "-raw" arms keep their names for the record's sake; they read
	// the unsealed store's tails, each the encoded parts its 2 000-row
	// batches arrived as (folded past 8). "group-by-raw" folds each
	// shard's parts in one run, whose partial the snapshot keeps after
	// the first pass, and "in-raw" masks every part word-at-a-time.
	b.Run("group-by-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rawSnap.QueryAgg(nil, spec, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("in-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rawSnap.QueryAgg(in, store.AggSpec{}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})

	// A snapshot encodes nothing: it reads each tail as the parts its
	// batches arrived as. "encode-tail" times what the store does instead,
	// once per seal and per fold of a tail's parts: shard 0's 5 000 tail
	// rows decoded from their parts onto one table and encoded once.
	encs, err := rawSnap.ShardEncoded(0)
	if err != nil || len(encs) == 0 {
		b.Fatalf("shard 0 holds %d tail parts (%v)", len(encs), err)
	}
	mergeTail := func() *table.Table {
		t, err := table.NewWithSchema(store.DefaultConfig().Schema)
		if err != nil {
			b.Fatal(err)
		}
		for _, enc := range encs {
			if err := enc.AppendTo(t); err != nil {
				b.Fatal(err)
			}
		}
		return t
	}
	oracle.mustHold(b, "decoded tail", mergeTail(), rawSnap.ShardRows(0), true)
	b.Run("encode-tail", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table.Encode(mergeTail())
		}
	})
}

// e24Outcome is what the clustering stage of core.Analyze leaves behind.
type e24Outcome struct {
	Curve []cluster.SSECurvePoint
	Final *cluster.KMeansResult
}

// E24 — the elbow sweep on the shape the repo benchmark's first refresh
// pays for: 20 000 synthetic certificates, the five case-study attributes
// min-max normalized, K 2…10 × 3 restarts, then the final clustering at
// the elbow's K, written as core.Analyze's clustering stage writes it.
// "sequential" is Parallelism 1, "parallel" one worker per CPU; their
// ratio is what the (K, restart) fan-out gets out of the machine. Gate,
// outside timing: each arm's curve and final clustering equal, bit for
// bit, the oracle's — every (K, restart) job run on its own and the final
// clustering by the loop that runs all its restarts afresh. With -v the
// oracle's per-job cost is logged. Methodology in docs/benchmarks.md.
func BenchmarkE24ElbowSweep(b *testing.B) {
	const rows, kMin, kMax, restarts, seed = 20_000, 2, 10, 3, 1
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = rows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	norm, _, err := ds.Table.DenseMatrix(epc.CaseStudyAttributes...)
	if err != nil {
		b.Fatal(err)
	}
	norm.Normalize()
	fit := func(k int, seed int64) *cluster.KMeansResult {
		res, err := cluster.KMeansMatrix(norm, cluster.KMeansConfig{K: k, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}

	var want e24Outcome
	var jobs []string
	for k := kMin; k <= kMax; k++ {
		var best *cluster.KMeansResult
		for r := 0; r < restarts; r++ {
			start := time.Now()
			res := fit(k, seed+int64(r)*7919+int64(k))
			jobs = append(jobs, fmt.Sprintf("K=%-2d restart=%d iterations=%-3d %6.1f ms", k, r, res.Iterations,
				float64(time.Since(start).Microseconds())/1000))
			if best == nil || res.SSE < best.SSE {
				best = res
			}
		}
		want.Curve = append(want.Curve, cluster.SSECurvePoint{K: k, SSE: best.SSE})
	}
	if testing.Verbose() {
		b.Logf("the sweep's jobs, one at a time:\n%s", strings.Join(jobs, "\n"))
	}
	k, err := cluster.ElbowK(want.Curve)
	if err != nil {
		b.Fatal(err)
	}
	want.Final = fit(k, seed)
	for r := 1; r < restarts; r++ {
		if res := fit(k, seed+int64(r)*7919+int64(k)); res.SSE < want.Final.SSE {
			want.Final = res
		}
	}

	stage := func(parallelism int) e24Outcome {
		cfg := cluster.KMeansConfig{Seed: seed, Parallelism: parallelism}
		sweep, err := cluster.ElbowSweep(norm, kMin, kMax, restarts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cfg.K, err = cluster.ElbowK(sweep.Curve); err != nil {
			b.Fatal(err)
		}
		final, err := cluster.KMeansMatrix(norm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		win, winSSE := 0, final.SSE
		for r, sse := range sweep.SSEs(cfg.K)[1:] {
			if sse < winSSE {
				win, winSSE = r+1, sse
			}
		}
		if win > 0 {
			cfg.Seed = cluster.RestartSeed(seed, win, cfg.K)
			if final, err = cluster.KMeansMatrix(norm, cfg); err != nil {
				b.Fatal(err)
			}
		}
		return e24Outcome{sweep.Curve, final}
	}
	for _, arm := range []struct {
		name        string
		parallelism int
	}{{"sequential", 1}, {"parallel", parallel.Auto}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var got e24Outcome
			for i := 0; i < b.N; i++ {
				got = stage(arm.parallelism)
			}
			b.StopTimer()
			if !reflect.DeepEqual(got, want) {
				b.Fatalf("curve or final clustering differ from the job-by-job oracle (K=%d, SSE %v; want K=%d, SSE %v)",
					got.Final.K, got.Final.SSE, want.Final.K, want.Final.SSE)
			}
		})
	}
}

// E33 — cold render: what one first visit after an epoch costs the node,
// at the served size. Over E20's 20k × 132 corpus, published with its
// analysis, each arm renders one page the way its route does on a cache
// miss: the three stakeholder dashboards and the unit-level scatter map
// (≈ 19.4k points). B/op and allocs/op are the transient cost; page-B is
// the page's length, the floor of B/op. Gate, outside timing: every
// iteration's page equals the first's, and the first equals the route's
// answer at that epoch. Methodology in docs/benchmarks.md.
func BenchmarkE33ColdRender(b *testing.B) {
	live := e20Live(b, core.LiveConfig{})
	pub := live.Current()
	srv, err := server.NewLive(live)
	if err != nil {
		b.Fatal(err)
	}
	dash := func(st query.Stakeholder) func() ([]byte, error) {
		return func() ([]byte, error) { return pub.Engine.DashboardBytes(st, pub.Analysis) }
	}
	arms := []struct {
		name, route string
		render      func() ([]byte, error)
	}{
		{"citizen", "/dashboard/citizen", dash(query.Citizen)},
		{"public-administration", "/dashboard/public-administration", dash(query.PublicAdministration)},
		{"energy-scientist", "/dashboard/energy-scientist", dash(query.EnergyScientist)},
		{"map-unit", "/map?level=unit&attr=eph&raw=1", func() ([]byte, error) {
			svg, _, err := dashboard.RenderMap(pub.Engine.Table(epc.AttrLatitude, epc.AttrLongitude, epc.AttrEPH), pub.Engine.Hierarchy(), dashboard.MapSpec{
				Title: fmt.Sprintf("Average %s — %s zoom", epc.AttrEPH, geo.LevelUnit),
				Level: geo.LevelUnit,
				Attr:  epc.AttrEPH,
			})
			return svg, err
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, arm.route, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", arm.route, rec.Code, rec.Body)
			}
			var first []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page, err := arm.render()
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if first == nil {
					first = page
					if !bytes.Equal(first, rec.Body.Bytes()) {
						b.Fatalf("the render differs from %s's answer", arm.route)
					}
				} else if !bytes.Equal(page, first) {
					b.Fatalf("iteration %d renders a different page", i)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(first)), "page-B")
		})
	}
}

// E35 — uncached reads: the two routes without a result cache, which
// read the serving table on every request, over E20's 20k × 132
// publication through Server.ServeHTTP. "stats" is /api/stats on eph (one
// column); "zones" is /api/zones at district zoom (coordinates and eph).
// Gate, outside timing: every answer equals the first. Methodology in
// docs/benchmarks.md.
func BenchmarkE35UncachedReads(b *testing.B) {
	srv, err := server.NewLive(e20Live(b, core.LiveConfig{Analysis: core.AnalysisConfig{KMax: 3}}))
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct{ name, route string }{
		{"stats", "/api/stats?attr=eph"},
		{"zones", "/api/zones?level=district&attr=eph"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, arm.route, nil)
			var first []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				b.StopTimer()
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", arm.route, rec.Code, rec.Body)
				}
				if first == nil {
					first = rec.Body.Bytes()
				} else if !bytes.Equal(rec.Body.Bytes(), first) {
					b.Fatalf("iteration %d answers differently", i)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE34TailParts prices the cap on a tail's parts (the store folds
// a tail's parts into one past 8) at explore_cold's shape: 20 000
// synthetic certificates loaded in 2 000-row batches, so every shard of 4
// is sealed, then 24 batches of 250 rows, which each shard holds as the
// encoded parts they arrived as (about 1 500 rows in at most 8 parts).
// "first-query" runs one explore_cold-shaped predicate — an indexed In
// with a range, a range alone, or a Kleene not/or — with 1 to 3
// attributes, by a zone or class on half of them, through QueryShardsPage
// on a fresh snapshot each iteration (taken untimed), so nothing of the
// snapshot is warm; "steady" runs the same predicates on one snapshot.
// "ingest/batch=N" times an in-memory AppendTable of N rows into a store
// of the same shape: routing, the parts' encode, index and statistics,
// and the folds and seals the batches come to. Gate, outside timing:
// every predicate's match count and 20-row page equal FullScan's.
// Methodology and numbers in docs/benchmarks.md § E34.
func BenchmarkE34TailParts(b *testing.B) {
	const base, batches, batchRows, loadRows, limit = 20_000, 24, 250, 2000, 20
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = base + batches*batchRows
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	rows := func(lo, hi int) *table.Table {
		v, err := ds.Table.View(lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	load := func() *store.Store {
		st, err := store.New(store.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < base; lo += loadRows {
			if _, err := st.AppendTable(rows(lo, lo+loadRows)); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	st := load()
	for k := 0; k < batches; k++ {
		lo := base + k*batchRows
		if _, err := st.AppendTable(rows(lo, lo+batchRows)); err != nil {
			b.Fatal(err)
		}
	}
	for i, sh := range st.Status().Shards {
		if sh.Segments == 0 || sh.TailRows == 0 {
			b.Fatalf("shard %d holds %d sealed segments and %d tail rows; the arms need both", i, sh.Segments, sh.TailRows)
		}
	}

	// The explore_cold shapes, drawn once from a seeded generator over the
	// corpus's own quantiles and levels.
	rng := rand.New(rand.NewSource(34))
	sorted := map[string][]float64{}
	for _, a := range []string{epc.AttrEPH, epc.AttrUWindows, epc.AttrHeatSurface, epc.AttrETAH} {
		v, err := ds.Table.ValidFloats(a)
		if err != nil {
			b.Fatal(err)
		}
		sort.Float64s(v)
		sorted[a] = v
	}
	rangeAttrs := []string{epc.AttrEPH, epc.AttrUWindows, epc.AttrHeatSurface, epc.AttrETAH}
	span := func(width float64) query.Predicate {
		a := rangeAttrs[rng.Intn(len(rangeAttrs))]
		v := sorted[a]
		lo := rng.Float64() * (1 - width)
		return query.NumRange{Attr: a, Min: v[int(lo*float64(len(v)-1))], Max: v[int((lo+width)*float64(len(v)-1))]}
	}
	levels := map[string][]string{}
	for _, a := range []string{epc.AttrDistrict, epc.AttrNeighbourhood, epc.AttrEnergyClass} {
		vals, err := ds.Table.Strings(a)
		if err != nil {
			b.Fatal(err)
		}
		seen := map[string]bool{}
		for _, v := range vals {
			if v != "" && !seen[v] {
				seen[v] = true
				levels[a] = append(levels[a], v)
			}
		}
		sort.Strings(levels[a])
	}
	member := func(a string, k int) query.In {
		lv := levels[a]
		in := query.In{Attr: a}
		for _, p := range rng.Perm(len(lv))[:min(k, len(lv))] {
			in.Values = append(in.Values, lv[p])
		}
		return in
	}
	statAttrs := []string{epc.AttrEPH, epc.AttrUWindows, epc.AttrHeatSurface, epc.AttrUOpaque, epc.AttrETAH}
	type e34Query struct {
		p    query.Predicate
		spec store.AggSpec
	}
	var qs []e34Query
	for len(qs) < 64 {
		var p query.Predicate
		switch u := rng.Float64(); {
		case u < 0.4:
			a := []string{epc.AttrDistrict, epc.AttrNeighbourhood, epc.AttrEnergyClass}[rng.Intn(3)]
			p = query.And{member(a, 2), span(0.4)}
		case u < 0.8:
			p = span(0.2 + 0.4*rng.Float64())
		default:
			p = query.Or{query.Not{P: member(epc.AttrEnergyClass, 2)}, span(0.15)}
		}
		spec := store.AggSpec{}
		for _, k := range rng.Perm(len(statAttrs))[:1+rng.Intn(3)] {
			spec.Attrs = append(spec.Attrs, statAttrs[k])
		}
		if rng.Intn(2) == 0 {
			spec.By = []string{epc.AttrDistrict, epc.AttrEnergyClass}[rng.Intn(2)]
		}
		qs = append(qs, e34Query{p, spec})
	}

	steady := st.Snapshot()
	for _, q := range qs {
		want, err := steady.FullScan(q.p)
		if err != nil {
			b.Fatal(err)
		}
		res, page, _, err := steady.QueryShardsPage(q.p, 0, steady.NumShards(), 1, q.spec, 0, limit)
		if err != nil {
			b.Fatal(err)
		}
		wantPage, err := want.Take(seqInts(min(limit, want.NumRows())))
		if err != nil {
			b.Fatal(err)
		}
		var got, exp bytes.Buffer
		if err := pageTable(b, page).WriteCSV(&got); err != nil {
			b.Fatal(err)
		}
		if err := wantPage.WriteCSV(&exp); err != nil {
			b.Fatal(err)
		}
		if res.Matched != want.NumRows() || !bytes.Equal(got.Bytes(), exp.Bytes()) {
			b.Fatalf("%v: %d matches and a page unlike FullScan's %d", q.p, res.Matched, want.NumRows())
		}
	}
	run := func(snap *store.Snapshot, q e34Query) {
		if _, _, _, err := snap.QueryShardsPage(q.p, 0, snap.NumShards(), 1, q.spec, 0, limit); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first-query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			snap := st.Snapshot()
			b.StartTimer()
			run(snap, qs[i%len(qs)])
		}
	})
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(steady, qs[i%len(qs)])
		}
	})
	for _, n := range []int{1, batchRows} {
		b.Run(fmt.Sprintf("ingest/batch=%d", n), func(b *testing.B) {
			b.StopTimer()
			in := load()
			b.StartTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := base + i*n%(batches*batchRows-n)
				if _, err := in.AppendTable(rows(lo, lo+n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E38 — the cold mix in process: the three predicate shapes of the repo
// benchmark's explore_cold stream — an indexed In ∧ range, a range alone
// (a masked scan), and a not/or that defeats the pushdown — each asked
// stats-shaped (limit=0, two attributes, by=district on every other
// request) and as a 20-row page, over 20k × 132 certificates in 4 shards
// through Server.ServeHTTP. Every request is a predicate the server has
// not seen, so the result cache never answers: iteration i moves the
// bounds. The timed requests write to a sink, so B/op is the server's.
// Gate, outside timing: the first answers' matched equals
// Snapshot.FullScan's row count. Methodology in docs/benchmarks.md.
func BenchmarkE38ColdQueries(b *testing.B) {
	live := e20Live(b, core.LiveConfig{Analysis: core.AnalysisConfig{KMax: 3}})
	srv := e31Server(b, live)
	snap := live.Current().Snapshot
	// Request i's bounds: i%4096 and i/4096 in thousandths (or, on
	// u_windows, hundred-thousandths) apart, so no two requests share one.
	lo, hi := func(i int) float64 { return float64(i % 4096) }, func(i int) float64 { return float64(i / 4096) }
	shapes := []struct {
		name string
		q    func(i int) string
	}{
		{"indexed", func(i int) string {
			return fmt.Sprintf("energy_class in {C, D} and eph in [%.3f, %.3f]", 40+lo(i)/1e3, 160+hi(i)/1e3)
		}},
		{"range", func(i int) string {
			return fmt.Sprintf("u_windows in [%.5f, %.5f]", 1.5+lo(i)/1e5, 3.5+hi(i)/1e5)
		}},
		{"kleene", func(i int) string {
			return fmt.Sprintf("not (energy_class in {A, B}) or eph >= %.3f or eph in [%.3f, 20]", 180+lo(i)/1e3, hi(i)/1e3)
		}},
	}
	for _, sh := range shapes {
		for _, page := range []bool{false, true} {
			path := func(i int) string {
				q := "/api/query?q=" + url.QueryEscape(sh.q(i))
				switch {
				case page:
					return q + "&attrs=eph&limit=20"
				case i%2 == 0:
					return q + "&attrs=eph,u_windows&by=district&limit=0"
				}
				return q + "&attrs=eph,u_windows&limit=0"
			}
			for i := 0; i < 2; i++ {
				var ans struct {
					Matched int `json:"matched"`
				}
				if err := json.Unmarshal(e31Serve(b, srv, path(-1-i)), &ans); err != nil {
					b.Fatal(err)
				}
				p, err := query.Parse(sh.q(-1 - i))
				if err != nil {
					b.Fatal(err)
				}
				want, err := snap.FullScan(p)
				if err != nil {
					b.Fatal(err)
				}
				if ans.Matched != want.NumRows() || ans.Matched == 0 {
					b.Fatalf("%s: matched %d, FullScan %d", path(-1-i), ans.Matched, want.NumRows())
				}
			}
			name := sh.name + "/stats"
			if page {
				name = sh.name + "/page"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				w := &e20Sink{h: make(http.Header)}
				for i := 0; i < b.N; i++ {
					clear(w.h)
					srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path(i), nil))
				}
			})
		}
	}
}
