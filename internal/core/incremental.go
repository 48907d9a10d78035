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
// three parts: screen (their lineageColumns, decoded), served (the
// published serving table) and dropped (whole, at pre-drop positions
// droppedAt), both encoded. The warm start's K and centroids are the
// published analysis's.
type lineage struct {
	epoch           uint64
	screen          *table.Table
	served, dropped *table.Encoded
	droppedAt       []int              // ascending
	refStats        map[string]moments // drift baseline, at last full sweep
	sinceFull       int
}

// newLineage returns the empty lineage a full refresh starts from, its
// parts holding the columns of the serving schema they keep.
func (l *Live) newLineage() (*lineage, error) {
	empty, err := table.NewWithSchema(l.schema)
	if err != nil {
		return nil, err
	}
	screen, err := empty.Select(l.cfg.lineageColumns()...)
	if err != nil {
		return nil, err
	}
	none := table.Encode(empty)
	return &lineage{screen: screen, served: none, dropped: none}, nil
}

// narrowRows decodes the narrowColumns of the delta's rows: the one
// decoded table of new rows the data step owns and rewrites.
func (l *Live) narrowRows(delta *store.Delta) (*table.Table, error) {
	names := l.cfg.narrowColumns()
	var narrow []table.Field
	for _, f := range l.schema {
		if slices.Contains(names, f.Name) {
			narrow = append(narrow, f)
		}
	}
	tab, err := table.NewWithSchema(narrow)
	if err == nil {
		err = delta.AppendTo(tab)
	}
	return tab, err
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
// lineage starts empty. tab holds the delta's narrow columns (narrowRows).
// It cleans tab in place, appends its screened columns to the lineage,
// re-screens the outliers over every pre-drop row and moves the served
// and dropped rows to the new fences (the "advance" span under ctx's),
// reading the delta's other serving columns straight from its encodings.
// It returns an engine over the served rows and the report. An error may
// leave the lineage half advanced.
func (l *Live) absorb(ctx context.Context, lin *lineage, delta *store.Delta, tab *table.Table) (*Engine, *PreprocessReport, error) {
	pcfg := l.cfg.Preprocess
	rep := &PreprocessReport{}
	if pcfg.cleans(l.cfg.Options.StreetMap) {
		var err error
		// Cleaning covers only this delta: earlier rows were cleaned by
		// the epochs that ingested them.
		rep.Cleaning, err = cleanTable(tab, l.hier, l.cfg.Options.StreetMap, l.cfg.Options.Geocoder, pcfg.cleanConfig())
		if err != nil {
			return nil, nil, err
		}
	}
	if err := lin.screen.AppendTable(tab); err != nil {
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
	_, sp := obs.StartSpan(ctx, "advance")
	news, err := l.encodeDelta(delta, tab)
	if err == nil {
		err = lin.advance(news, drop)
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	rep.RowsAfter = lin.served.NumRows()
	eng, err := newEngine(lin.served, l.hier, l.cfg.Options)
	return eng, rep, err
}

// encodeDelta returns the delta's rows with the serving columns, encoded:
// the columns tab holds (cleaning may have rewritten them) encoded from
// tab, the others straight from the delta's encodings, in code space.
func (l *Live) encodeDelta(delta *store.Delta, tab *table.Table) (*table.Encoded, error) {
	var rest []table.Field
	for _, f := range l.schema {
		if !tab.HasColumn(f.Name) {
			rest = append(rest, f)
		}
	}
	enc, err := delta.Encode(rest)
	if err != nil {
		return nil, err
	}
	return table.Join(l.schema, table.Encode(tab), enc)
}

// advance moves served and dropped to the next epoch in one pass, in
// pre-drop order, over the serving rows, the dropped rows and the new
// ones (whose rows follow theirs): a row dropped earlier comes back when
// the fences release it, a kept one leaves when they catch it. The next
// serving and dropped rows are encoded in code space (table.EncodeRows)
// from the three encodings, so no row is decoded.
func (lin *lineage) advance(news *table.Encoded, drop []bool) error {
	var out [2]table.Gather // kept, dropped
	var droppedAt []int
	base, next, j := lin.served.NumRows()+lin.dropped.NumRows(), 0, 0
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
		out[k].Add(src, r)
	}
	srcs := []*table.Encoded{fromServed: lin.served, fromDropped: lin.dropped, fromDelta: news}
	var enc [2]*table.Encoded // kept, dropped
	for k := range out {
		var err error
		if enc[k], err = table.EncodeRows(lin.served.Schema(), srcs, &out[k]); err != nil {
			return err
		}
	}
	lin.served, lin.dropped, lin.droppedAt = enc[0], enc[1], droppedAt
	return nil
}

// The sources advance takes rows from.
const (
	fromServed = iota
	fromDropped
	fromDelta
)

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

// refreshIncremental runs one delta-proportional refresh: decode the
// delta's narrow columns, run the data step over it, and warm-start a
// single clustering run at the previous K.
func (l *Live) refreshIncremental(ctx context.Context, start time.Time, snap *store.Snapshot, prev *Published,
	delta *store.Delta, drift float64) (*Published, error) {
	lin := l.lineage
	// One owned copy of the new rows' narrow columns, decoded straight
	// out of the store's encodings (cleaning mutates it).
	_, spDelta := obs.StartSpan(ctx, "delta")
	tab, err := l.narrowRows(delta)
	spDelta.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errIncremental, err)
	}
	ctxScreen, spScreen := obs.StartSpan(ctx, "screen")
	eng, rep, err := l.absorb(ctxScreen, lin, delta, tab)
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
