package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"indice/internal/cluster"
	"indice/internal/obs"
	"indice/internal/store"
	"indice/internal/table"
)

// IncrementalConfig tunes the incremental refresh: the steady-state fast
// lane that makes refresh cost proportional to newly ingested data instead
// of the whole corpus.
//
// Every refresh runs one data step over the rows that arrived since the
// lineage's epoch: a full refresh folds the whole snapshot into an empty
// lineage, an incremental one only the store delta (the previous epoch's
// rows are reused). The outlier screen runs over the full value set either
// way, so the fences are the batch pipeline's exactly. Only the analysis
// tier forks: a full refresh sweeps K, an incremental one warm-starts a
// single K-means run at the previously chosen K from the previous epoch's
// centroids — skipping the elbow sweep, by far the most expensive stage.
// Two correctness fallbacks force a full refresh: measured distribution
// drift beyond DriftThreshold, and an unconditional full run every
// FullEvery-th refresh.
type IncrementalConfig struct {
	// Disable makes every refresh full and keeps no lineage after it, for
	// a node that refreshes once and serves what it published.
	Disable bool
	// DriftThreshold bounds the tolerated distribution drift since the
	// last full sweep, measured per tracked attribute as the larger of
	// |Δmean|/σ and |ln(σ_new/σ_ref)|. Beyond it the refresh is full.
	// Default 0.25.
	DriftThreshold float64
	// FullEvery forces a full refresh at least every FullEvery-th
	// refresh regardless of drift (the elbow sweep re-validates K and the
	// rule panel recomputes). Default 8.
	FullEvery int
}

// errIncremental marks conditions that silently degrade to a full refresh
// rather than failing the refresh.
var errIncremental = errors.New("core: incremental refresh unavailable")

// lineage is the refresh's cross-epoch state, owned by the refresh lock.
// The post-clean, pre-drop rows of every epoch, in arrival order, are in
// three parts: screen (their lineageColumns), served (the published
// serving table, encoded) and dropped (whole, at pre-drop positions
// droppedAt). The warm start's K and centroids are the published
// analysis's.
type lineage struct {
	epoch           uint64
	screen, dropped *table.Table
	served          *table.Encoded
	droppedAt       []int              // ascending
	refStats        map[string]moments // drift baseline, at last full sweep
	sinceFull       int
}

// newLineage returns the empty lineage a full refresh starts from, its
// parts holding the columns of the serving schema they keep.
func (l *Live) newLineage(schema []table.Field) (*lineage, error) {
	dropped, err := table.NewWithSchema(schema)
	if err != nil {
		return nil, err
	}
	screen, err := dropped.Select(l.cfg.lineageColumns()...)
	if err != nil {
		return nil, err
	}
	return &lineage{screen: screen, served: table.Encode(dropped), dropped: dropped}, nil
}

// moments are a column's exact mean and standard deviation.
type moments struct{ mean, sd float64 }

// snapMoments reads the moments of the named columns off the snapshot's
// exact totals, keeping the columns that hold a value.
func snapMoments(snap *store.Snapshot, attrs []string) (map[string]moments, error) {
	tot, err := snap.Totals(attrs...)
	if err != nil {
		return nil, err
	}
	out := make(map[string]moments, len(attrs))
	for k, a := range attrs {
		if tot[k].Count() > 0 {
			out[a] = moments{tot[k].Mean(), tot[k].StdDev()}
		}
	}
	return out, nil
}

// lineageColumns are the columns the lineage keeps of every pre-drop row:
// the screened attributes, each once.
func (cfg LiveConfig) lineageColumns() []string {
	cols := slices.Clone(cfg.Preprocess.outlierAttrs())
	slices.Sort(cols)
	return slices.Compact(cols)
}

// absorb is the data tier of every refresh, run over the rows that
// arrived since the lineage's epoch — all of them on a full refresh, whose
// lineage starts empty. It cleans delta in place, appends its screened
// columns to the lineage, re-screens the outliers over every pre-drop row
// and moves the served and dropped rows to the new fences. It returns an
// engine over the served rows and the report. An error may leave the
// lineage half advanced.
func (l *Live) absorb(lin *lineage, delta *table.Table) (*Engine, *PreprocessReport, error) {
	pcfg := l.cfg.Preprocess
	rep := &PreprocessReport{}
	if pcfg.cleans(l.cfg.Options.StreetMap) {
		var err error
		// Cleaning covers only this delta: earlier rows were cleaned by
		// the epochs that ingested them.
		rep.Cleaning, err = cleanTable(delta, l.hier, l.cfg.Options.StreetMap, l.cfg.Options.Geocoder, pcfg.cleanConfig())
		if err != nil {
			return nil, nil, err
		}
	}
	if err := lin.screen.AppendTable(delta); err != nil {
		return nil, nil, err
	}

	// Outlier screen over the full value multiset: the fences are what
	// the batch pipeline computes on this snapshot, so the set of dropped
	// rows is identical — only their order differs after a delta.
	rep.RowsBefore = lin.screen.NumRows()
	union, err := univariateScreen(lin.screen, pcfg, pcfg.Univariate, rep)
	if err != nil {
		return nil, nil, err
	}
	rep.OutlierRows = union
	drop := make([]bool, lin.screen.NumRows())
	if pcfg.DropOutliers {
		for _, r := range union {
			drop[r] = true
		}
	}
	if err := lin.advance(delta, drop); err != nil {
		return nil, nil, err
	}
	rep.RowsAfter = lin.served.NumRows()
	eng, err := newEngine(lin.served, l.hier, l.cfg.Options)
	return eng, rep, err
}

// advance moves served and dropped to the next epoch in one pass, in
// pre-drop order, over the serving rows, the dropped rows and the delta
// (whose rows follow theirs): a row dropped earlier comes back when the
// fences release it, a kept one leaves when they catch it. The next
// serving rows are encoded a column at a time, so neither epoch's exists
// decoded in full.
func (lin *lineage) advance(delta *table.Table, drop []bool) error {
	prevDropped := lin.dropped
	srcs := [...]func(dst *table.Table, rows []int) error{
		fromServed:  lin.served.TakeAppend,
		fromDropped: func(dst *table.Table, rows []int) error { return dst.AppendTaken(prevDropped, rows) },
		fromDelta:   func(dst *table.Table, rows []int) error { return dst.AppendTaken(delta, rows) },
	}
	out := [2]gather{{rows: make([]int, 0, len(drop))}} // kept, dropped
	var droppedAt []int
	base, next, j := lin.served.NumRows()+prevDropped.NumRows(), 0, 0
	for p, d := range drop {
		src, r := fromServed, next
		switch {
		case p >= base:
			src, r = fromDelta, p-base
		case j < len(lin.droppedAt) && lin.droppedAt[j] == p:
			src, r = fromDropped, j
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
	schema := lin.served.Schema()
	served, err := table.EncodeColumns(schema, func(dst *table.Table) error { return out[0].appendTo(dst, srcs[:]) })
	if err != nil {
		return err
	}
	dropped, err := table.NewWithSchema(schema)
	if err == nil {
		err = out[1].appendTo(dropped, srcs[:])
	}
	lin.served, lin.dropped, lin.droppedAt = served, dropped, droppedAt
	return err
}

// The sources advance takes rows from.
const (
	fromServed = iota
	fromDropped
	fromDelta
)

// gather collects rows of advance's sources in runs of one source, then
// appends them to a table one call per run.
type gather struct {
	srcs []int
	ends []int // run i is rows[ends[i-1]:ends[i]]
	rows []int
}

func (g *gather) add(src, row int) {
	if k := len(g.srcs); k == 0 || g.srcs[k-1] != src {
		g.srcs, g.ends = append(g.srcs, src), append(g.ends, len(g.rows))
	}
	g.rows = append(g.rows, row)
	g.ends[len(g.ends)-1]++
}

// appendTo appends the gathered rows to dst in order, grown once; take[s]
// appends rows of source s.
func (g *gather) appendTo(dst *table.Table, take []func(dst *table.Table, rows []int) error) error {
	dst.Grow(len(g.rows))
	lo := 0
	for i, s := range g.srcs {
		if err := take[s](dst, g.rows[lo:g.ends[i]]); err != nil {
			return err
		}
		lo = g.ends[i]
	}
	return nil
}

// driftSince measures how far the store's distribution moved from the
// remembered baseline: the worst per-attribute score over mean shift (in
// baseline standard deviations) and spread change (absolute log ratio of
// standard deviations). The second return value is false when no
// attribute holds a value both now and in the baseline — drift is then
// unmeasurable and the caller must fall back to the full pipeline.
func driftSince(ref map[string]moments, snap *store.Snapshot, attrs []string) (float64, bool) {
	now, err := snapMoments(snap, attrs)
	if err != nil {
		return 0, false
	}
	worst := 0.0
	found := false
	for _, a := range attrs {
		cur, ok := now[a]
		if !ok {
			continue
		}
		old, ok := ref[a]
		if !ok {
			continue
		}
		found = true
		sd := old.sd
		if sd > 0 {
			if d := math.Abs(cur.mean-old.mean) / sd; d > worst {
				worst = d
			}
			if nsd := cur.sd; nsd > 0 {
				if d := math.Abs(math.Log(nsd / sd)); d > worst {
					worst = d
				}
			}
		} else if cur.mean != old.mean || cur.sd > 0 {
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
	case l.lineage == nil || prev == nil:
		// No refresh yet, or Incremental.Disable keeps no lineage.
		return false
	case l.lineage.epoch != prev.Epoch:
		// A failed or interrupted refresh left the lineage out of step
		// with what is being served; rebuild from scratch.
		return false
	}
	return true
}

// tryIncremental attempts the fast path. It returns (pub, true) on
// success; (nil, false) sends the caller to a full refresh (after
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
		// The lineage may hold a half-applied delta; drop it and let a
		// full refresh rebuild it. Expected degradations (errIncremental)
		// stay silent; anything else is recorded so a persistently dead
		// fast path is diagnosable (LastIncrementalError, /api/store) even
		// while full refreshes keep every refresh green.
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

// refreshIncremental runs one delta-proportional refresh: materialize the
// delta, run the data step over it, and warm-start a single clustering
// run at the previous K.
func (l *Live) refreshIncremental(ctx context.Context, start time.Time, snap *store.Snapshot, prev *Published,
	delta *store.Delta, drift float64) (*Published, error) {
	lin := l.lineage
	// One owned copy of the new rows' serving columns, decoded straight
	// out of the store's encodings (cleaning mutates it).
	_, spDelta := obs.StartSpan(ctx, "delta")
	deltaTab, err := table.NewWithSchema(lin.served.Schema())
	if err == nil {
		err = delta.AppendTo(deltaTab)
	}
	spDelta.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	_, spScreen := obs.StartSpan(ctx, "screen")
	eng, rep, err := l.absorb(lin, deltaTab)
	spScreen.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}

	_, spWarm := obs.StartSpan(ctx, "warm_kmeans")
	an, err := analyzeIncremental(eng, l.cfg.Analysis, prev.Analysis)
	spWarm.End()
	if err != nil {
		return nil, err
	}

	lin.epoch = snap.Epoch()
	lin.sinceFull++
	l.incRefreshes.Add(1)
	mRefreshInc.Inc()
	mRefreshDeltaRows.Set(float64(delta.NewRows))
	if an.Clustering != nil {
		mWarmIterations.Set(float64(an.Clustering.Iterations))
	}
	pub := published(start, snap, eng, an, rep)
	pub.Incremental, pub.DeltaRows, pub.ReusedRows, pub.Drift = true, delta.NewRows, delta.BaseRows, drift
	return pub, nil
}

// analyzeIncremental is the warm analytics tier over the engine's table:
// the correlation screen, and one K-means run at prevAn's K warm-started
// from prevAn's centroids. The elbow sweep, CART discretization and rule
// mining are carried forward from prevAn — they recompute on the next
// full sweep (drift or FullEvery).
func analyzeIncremental(e *Engine, cfg AnalysisConfig, prevAn *Analysis) (*Analysis, error) {
	in, err := e.clusterInput(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	an := &Analysis{
		Attributes: append([]string(nil), cfg.Attributes...),
		Response:   cfg.Response,
		NormMins:   in.mins,
		NormMaxs:   in.maxs,
		// Carried forward from the last full sweep:
		SSECurve: prevAn.SSECurve,
		ChosenK:  prevAn.ChosenK,
		Binnings: prevAn.Binnings,
		Rules:    prevAn.Rules,
	}

	// Correlation screen: cheap relative to clustering, recomputed every
	// refresh so the eligibility check always reflects the served data.
	if err := an.correlate(cfg, in.cols); err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}

	// Warm start: the previous epoch's centroids, mapped from raw
	// attribute space into this epoch's normalized space.
	warm, dim := prevAn.rawCentroids(), in.norm.Cols()
	for i, v := range warm {
		d := i % dim
		warm[i] = 0
		if span := in.maxs[d] - in.mins[d]; span > 0 {
			// New extremes can push an old centroid marginally out of
			// [0,1]; clamp so it stays inside the data envelope.
			warm[i] = math.Min(1, math.Max(0, (v-in.mins[d])/span))
		}
	}
	an.Clustering, err = cluster.KMeansMatrix(in.norm, cluster.KMeansConfig{
		K:           an.ChosenK,
		WarmStart:   warm,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	an.labelRows(in.rowIdx, in.cols[len(in.cols)-1], in.respValid)
	return an, nil
}

// rebuildLineage keeps a full refresh's lineage for the incremental
// refreshes that follow, with the fresh sweep's drift baseline; a loop
// with Incremental.Disable keeps none.
func (l *Live) rebuildLineage(snap *store.Snapshot, lin *lineage) {
	l.lineage = nil
	if l.cfg.Incremental.Disable {
		return
	}
	refStats, err := snapMoments(snap, l.cfg.Analysis.columns())
	if err != nil {
		return
	}
	lin.epoch, lin.refStats = snap.Epoch(), refStats
	l.lineage = lin
}
