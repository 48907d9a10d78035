package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"indice/internal/cluster"
	"indice/internal/geocode"
	"indice/internal/matrix"
	"indice/internal/obs"
	"indice/internal/stats"
	"indice/internal/store"
	"indice/internal/table"
)

// IncrementalConfig tunes the incremental refresh path: the steady-state
// fast lane that makes refresh cost proportional to newly ingested data
// instead of the whole corpus.
//
// An incremental refresh materializes only the store delta (the previous
// epoch's rows are reused zero-copy), re-screens outliers over the full
// value set (fences therefore match the cold path's exactly), and
// warm-starts a single K-means run at the previously chosen K from the
// previous epoch's centroids — skipping the elbow sweep, by far the most
// expensive stage. Two correctness fallbacks force the full pipeline
// (sweep included): measured distribution drift beyond DriftThreshold,
// and an unconditional full run every FullEvery-th refresh.
type IncrementalConfig struct {
	// Disable turns the fast path off: every refresh runs the full
	// pipeline, as before this engine existed.
	Disable bool
	// DriftThreshold bounds the tolerated distribution drift since the
	// last full sweep, measured per tracked attribute as the larger of
	// |Δmean|/σ and |ln(σ_new/σ_ref)|. Beyond it the full pipeline
	// re-runs. Default 0.25.
	DriftThreshold float64
	// FullEvery forces a full pipeline at least every FullEvery-th
	// refresh regardless of drift (the elbow sweep re-validates K and the
	// rule panel recomputes). Default 8.
	FullEvery int
}

// errIncremental marks conditions that silently degrade to the cold path
// rather than failing the refresh.
var errIncremental = errors.New("core: incremental refresh unavailable")

// lineage is the incremental path's cross-epoch state, owned by the
// refresh lock. The post-clean, pre-drop rows of every epoch, in arrival
// order, are in three parts: screen (their lineageColumns), served (the
// published serving table) and dropped (whole, at pre-drop positions
// droppedAt). mat holds screen's complete rows over the clustering
// attributes, so each refresh materializes only the delta.
type lineage struct {
	epoch                   uint64
	screen, served, dropped *table.Table
	droppedAt               []int // ascending
	mat                     *matrix.Appendable
	rowIdx                  []int                    // mat row -> pre-drop row
	refStats                map[string]stats.Running // drift baseline, at last full sweep
	centroids               []float64                // flat K×dim, raw attribute space
	chosenK, sinceFull      int
}

// lineageColumns are the columns the incremental path reads of every
// pre-drop row: the screened and the clustering attributes.
func (cfg LiveConfig) lineageColumns() []string {
	cols := append(slices.Clone(cfg.Preprocess.outlierAttrs()), cfg.Analysis.Attributes...)
	slices.Sort(cols)
	return slices.Compact(cols)
}

// advance moves served and dropped to the next epoch in one pass, in
// pre-drop order, over the serving table, the dropped rows and the delta
// (whose rows follow theirs): a row dropped earlier comes back when the
// fences release it, a kept one leaves when they catch it.
func (lin *lineage) advance(delta *table.Table, drop []bool) error {
	out := [2]gather{{rows: make([]int, 0, len(drop))}} // kept, dropped
	var droppedAt []int
	base, next, j := lin.served.NumRows()+lin.dropped.NumRows(), 0, 0
	for p, d := range drop {
		src, r := lin.served, next
		switch {
		case p >= base:
			src, r = delta, p-base
		case j < len(lin.droppedAt) && lin.droppedAt[j] == p:
			src, r = lin.dropped, j
			j++
		default:
			next++
		}
		k := 0
		if d {
			k = 1
			droppedAt = append(droppedAt, p)
		}
		out[k].add(src, r)
	}
	served, err := out[0].table(lin.served.Schema())
	if err == nil {
		lin.dropped, err = out[1].table(lin.served.Schema())
	}
	lin.served, lin.droppedAt = served, droppedAt
	return err
}

// gather collects rows of source tables in runs of one source, then copies
// them into a new table grown once, one AppendTaken per run.
type gather struct {
	srcs []*table.Table
	ends []int // run i is rows[ends[i-1]:ends[i]]
	rows []int
}

func (g *gather) add(src *table.Table, row int) {
	if k := len(g.srcs); k == 0 || g.srcs[k-1] != src {
		g.srcs, g.ends = append(g.srcs, src), append(g.ends, len(g.rows))
	}
	g.rows = append(g.rows, row)
	g.ends[len(g.ends)-1]++
}

func (g *gather) table(schema []table.Field) (*table.Table, error) {
	t, err := table.NewWithSchema(schema)
	if err != nil {
		return nil, err
	}
	t.Grow(len(g.rows))
	lo := 0
	for i, src := range g.srcs {
		if err := t.AppendTaken(src, g.rows[lo:g.ends[i]]); err != nil {
			return nil, err
		}
		lo = g.ends[i]
	}
	return t, nil
}

// driftSince measures how far the store's distribution moved from the
// remembered baseline: the worst per-attribute score over mean shift (in
// baseline standard deviations) and spread change (absolute log ratio of
// standard deviations). The second return value is false when no tracked
// attribute overlaps the baseline — drift is then unmeasurable and the
// caller must fall back to the full pipeline.
func driftSince(ref map[string]stats.Running, snap *store.Snapshot, attrs []string) (float64, bool) {
	worst := 0.0
	found := false
	for _, a := range attrs {
		cur, ok := snap.Stats(a)
		if !ok || cur.Count == 0 {
			continue
		}
		old, ok := ref[a]
		if !ok || old.Count == 0 {
			continue
		}
		found = true
		sd := old.StdDev()
		if sd > 0 {
			if d := math.Abs(cur.Mean-old.Mean) / sd; d > worst {
				worst = d
			}
			if nsd := cur.StdDev(); nsd > 0 {
				if d := math.Abs(math.Log(nsd / sd)); d > worst {
					worst = d
				}
			}
		} else if cur.Mean != old.Mean || cur.StdDev() > 0 {
			// A constant baseline that stopped being constant is infinite
			// drift by this metric.
			worst = math.Inf(1)
		}
	}
	return worst, found
}

// incrementalEligible reports whether the fast path may even be attempted
// for this refresh, before paying for a delta or drift computation.
func (l *Live) incrementalEligible(prev *Published) bool {
	switch {
	case l.cfg.Incremental.Disable:
		return false
	case l.lineage == nil || prev == nil:
		return false
	case l.lineage.epoch != prev.Epoch:
		// A failed or interrupted refresh left the lineage out of step
		// with what is being served; rebuild from scratch.
		return false
	case l.cfg.Preprocess.Multivariate:
		// The DBSCAN screen is not decomposable over deltas.
		return false
	case l.cfg.Preprocess.Univariate.Method == "":
		// The suggestion-store method resolution is stateful per engine;
		// only explicitly configured methods replay identically.
		return false
	}
	return true
}

// tryIncremental attempts the fast path. It returns (pub, true) on
// success; (nil, false) sends the caller down the cold path (after
// invalidating the lineage if it may have been left inconsistent).
func (l *Live) tryIncremental(ctx context.Context, start time.Time, snap *store.Snapshot, prev *Published) (*Published, bool) {
	if !l.incrementalEligible(prev) {
		mFallbackIneligible.Inc()
		return nil, false
	}
	lin := l.lineage
	if lin.sinceFull+1 >= l.cfg.Incremental.FullEvery {
		mFallbackFullEvery.Inc()
		return nil, false
	}
	delta, ok := snap.DeltaSince(lin.epoch)
	if !ok {
		mFallbackNoDelta.Inc()
		return nil, false
	}
	drift, measurable := driftSince(lin.refStats, snap, l.cfg.Analysis.columns())
	if measurable {
		mRefreshDrift.Set(drift)
	}
	if !measurable || drift > l.cfg.Incremental.DriftThreshold {
		mFallbackDrift.Inc()
		return nil, false
	}
	pub, err := l.refreshIncremental(ctx, start, snap, prev, delta, drift)
	if err != nil {
		mFallbackError.Inc()
		// The lineage may hold a half-applied delta; drop it and let the
		// cold path rebuild. Expected degradations (errIncremental) stay
		// silent; anything else is recorded so a persistently dead fast
		// path is diagnosable (LastIncrementalError, /api/store) even
		// while the cold path keeps every refresh green.
		if !errors.Is(err, errIncremental) {
			msg := err.Error()
			l.incErr.Store(&msg)
		}
		l.lineage = nil
		return nil, false
	}
	l.incErr.Store(nil)
	return pub, true
}

// refreshIncremental runs one delta-proportional refresh: materialize and
// preprocess only the delta, re-screen fences over the full value set,
// and warm-start a single clustering run at the previous K.
func (l *Live) refreshIncremental(ctx context.Context, start time.Time, snap *store.Snapshot, prev *Published,
	delta *store.Delta, drift float64) (*Published, error) {
	lin := l.lineage
	pcfg := l.cfg.Preprocess
	var deltaTab *table.Table
	var deltaCleaning *geocode.Report
	if delta.NewRows > 0 {
		// An error abandons the refresh, so the span is only recorded on
		// the successful path.
		_, spDelta := obs.StartSpan(ctx, "delta")
		// One owned copy of the new rows' serving columns, decoded
		// straight out of the store's encodings (cleaning mutates it).
		var err error
		deltaTab, err = table.NewWithSchema(lin.served.Schema())
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errIncremental, err)
		}
		if err := delta.AppendTo(deltaTab); err != nil {
			return nil, fmt.Errorf("%w: %v", errIncremental, err)
		}
		if pcfg.cleans(l.cfg.Options.StreetMap) {
			deltaCleaning, err = cleanTable(deltaTab, l.hier, l.cfg.Options.StreetMap, l.cfg.Options.Geocoder, pcfg.cleanConfig())
			if err != nil {
				return nil, fmt.Errorf("%w: %v", errIncremental, err)
			}
		}
		if err := lin.screen.AppendTable(deltaTab); err != nil {
			return nil, fmt.Errorf("%w: %v", errIncremental, err)
		}
		newIdx, err := lin.screen.DenseMatrixAppend(lin.mat, lin.screen.NumRows()-deltaTab.NumRows(), l.cfg.Analysis.Attributes...)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errIncremental, err)
		}
		lin.rowIdx = append(lin.rowIdx, newIdx...)
		spDelta.End()
	}
	// From here on the lineage tables are consistent with snap even if a
	// later stage fails; still, any error invalidates the lineage (the
	// caller rebuilds cold), which is always safe.

	// Outlier screen over the full value multiset: the fences match what
	// the cold path would compute on this snapshot exactly, so the set of
	// dropped rows is identical — only their order differs.
	_, spScreen := obs.StartSpan(ctx, "screen")
	rep := &PreprocessReport{
		RowsBefore: lin.screen.NumRows(),
		// Cleaning covers only this refresh's delta: the base rows were
		// cleaned by the epochs that ingested them.
		Cleaning: deltaCleaning,
	}
	union, err := univariateScreen(lin.screen, pcfg, pcfg.Univariate, rep)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	rep.OutlierRows = union

	drop := make([]bool, lin.screen.NumRows())
	if pcfg.DropOutliers {
		for _, r := range union {
			drop[r] = true
		}
	}
	if err := lin.advance(deltaTab, drop); err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	rep.RowsAfter = lin.served.NumRows()
	eng, err := NewEngine(lin.served, l.hier, l.cfg.Options)
	spScreen.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}

	_, spWarm := obs.StartSpan(ctx, "warm_kmeans")
	an, err := l.analyzeIncremental(eng, prev.Analysis, drop)
	spWarm.End()
	if err != nil {
		return nil, err
	}

	lin.epoch = snap.Epoch()
	lin.sinceFull++
	lin.centroids = an.rawCentroids()
	l.incRefreshes.Add(1)
	mRefreshInc.Inc()
	mRefreshDeltaRows.Set(float64(delta.NewRows))
	if an.Clustering != nil {
		mWarmIterations.Set(float64(an.Clustering.Iterations))
	}
	return &Published{
		Epoch:       snap.Epoch(),
		Generation:  snap.Generation(),
		Rows:        snap.NumRows(),
		Snapshot:    snap,
		Engine:      eng,
		Analysis:    an,
		Report:      rep,
		RefreshedAt: time.Now(),
		Took:        time.Since(start),
		Incremental: true,
		DeltaRows:   delta.NewRows,
		ReusedRows:  delta.BaseRows,
		Drift:       drift,
	}, nil
}

// analyzeIncremental is the warm analytics tier: correlations, the
// masked-and-normalized clustering matrix compacted from the lineage
// buffer, and one warm-started K-means run at the previously chosen K.
// The elbow sweep, CART discretization and rule mining are carried
// forward from the previous analysis — they recompute on the next
// full sweep (drift or FullEvery).
func (l *Live) analyzeIncremental(e *Engine, prevAn *Analysis, drop []bool) (*Analysis, error) {
	lin := l.lineage
	cfg := l.cfg.Analysis
	an := &Analysis{
		Attributes: append([]string(nil), cfg.Attributes...),
		Response:   cfg.Response,
		// Carried forward from the last full sweep:
		SSECurve: prevAn.SSECurve,
		ChosenK:  lin.chosenK,
		Binnings: prevAn.Binnings,
		Rules:    prevAn.Rules,
	}

	// Correlation screen: cheap relative to clustering, recomputed every
	// refresh so the eligibility check always reflects the served data.
	cols, err := e.analysisColumns(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	if err := an.correlate(cfg, cols); err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}

	// Survivor mask over the lineage matrix, plus the matrix-row → engine-
	// table-row mapping (engine rows are the pre-drop rows minus the dropped).
	full := lin.mat.Matrix()
	dim := full.Cols()
	mask := make([]bool, full.Rows())
	survivors := 0
	for i, rawRow := range lin.rowIdx {
		if !drop[rawRow] {
			mask[i] = true
			survivors++
		}
	}
	if survivors < cfg.KMax || survivors < lin.chosenK {
		return nil, fmt.Errorf("%w: %d complete rows survive, need %d", errIncremental, survivors, cfg.KMax)
	}
	dropsBefore := make([]int, len(drop)+1)
	for i, d := range drop {
		dropsBefore[i+1] = dropsBefore[i]
		if d {
			dropsBefore[i+1]++
		}
	}

	// Compact + min-max normalize the survivors in one pass; bounds
	// computed over exactly the clustered rows, as the cold path's
	// NormalizeColumns does.
	mins, maxs := full.ColMinMax(nil, nil, mask)
	norm, err := matrix.New(survivors, dim)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	tabIdx := make([]int, 0, survivors)
	out := 0
	for i, ok := range mask {
		if !ok {
			continue
		}
		src, dst := full.Row(i), norm.Row(out)
		for d, v := range src {
			if span := maxs[d] - mins[d]; span > 0 {
				dst[d] = (v - mins[d]) / span
			}
		}
		rawRow := lin.rowIdx[i]
		tabIdx = append(tabIdx, rawRow-dropsBefore[rawRow])
		out++
	}

	// Warm start: the previous epoch's centroids, mapped from raw
	// attribute space into this epoch's normalized space.
	k := lin.chosenK
	warm := make([]float64, k*dim)
	for c := 0; c < k; c++ {
		for d := 0; d < dim; d++ {
			if span := maxs[d] - mins[d]; span > 0 {
				v := (lin.centroids[c*dim+d] - mins[d]) / span
				// New extremes can push an old centroid marginally out of
				// [0,1]; clamp so it stays inside the data envelope.
				warm[c*dim+d] = math.Min(1, math.Max(0, v))
			}
		}
	}
	res, err := cluster.KMeansMatrix(norm, cluster.KMeansConfig{
		K:           k,
		WarmStart:   warm,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	an.Clustering = res
	an.NormMins = mins
	an.NormMaxs = maxs
	respValid, _ := e.tab.ValidMask(cfg.Response)
	an.labelRows(tabIdx, cols[len(cols)-1], respValid)
	return an, nil
}

// cutLineage copies a cold refresh's post-clean, pre-drop table's
// lineageColumns and dropped rows (with only the dictionary entries they
// use); nil when the loop keeps no lineage or a column is missing.
func (l *Live) cutLineage(pre *table.Table, rep *PreprocessReport) *lineage {
	if l.cfg.Incremental.Disable {
		return nil
	}
	screen, err := pre.Select(l.cfg.lineageColumns()...)
	if err != nil {
		return nil
	}
	lin := &lineage{screen: screen}
	if l.cfg.Preprocess.DropOutliers {
		lin.droppedAt = rep.OutlierRows
	}
	g := gather{srcs: []*table.Table{pre}, ends: []int{len(lin.droppedAt)}, rows: lin.droppedAt}
	if lin.dropped, err = g.table(pre.Schema()); err != nil {
		return nil
	}
	return lin
}

// rebuildLineage re-bases the incremental state after a successful full
// (cold) refresh: the cut lineage takes the serving table, the clustering
// matrix and the fresh sweep's drift baseline and raw-space centroids.
func (l *Live) rebuildLineage(snap *store.Snapshot, served *table.Table, lin *lineage, an *Analysis) {
	l.lineage = nil
	if lin == nil {
		return
	}
	mat, err := matrix.NewAppendable(len(l.cfg.Analysis.Attributes))
	if err != nil {
		return
	}
	rowIdx, err := lin.screen.DenseMatrixAppend(mat, 0, l.cfg.Analysis.Attributes...)
	if err != nil {
		return
	}
	refStats := map[string]stats.Running{}
	for _, a := range l.cfg.Analysis.columns() {
		if r, ok := snap.Stats(a); ok && r.Count > 0 {
			refStats[a] = r
		}
	}
	lin.epoch, lin.served, lin.mat, lin.rowIdx = snap.Epoch(), served, mat, rowIdx
	lin.refStats, lin.centroids, lin.chosenK = refStats, an.rawCentroids(), an.ChosenK
	l.lineage = lin
}
