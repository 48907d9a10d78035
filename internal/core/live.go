package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/obs"
	"indice/internal/store"
	"indice/internal/table"
)

// Live converts the batch pipeline into a serving loop over a streaming
// store: ingestion appends into the sharded store while readers keep
// hitting the last published state, and Refresh brings the cleaned,
// screened serving table and its analysis up to a fresh snapshot and
// atomically swaps the result in. A full refresh publishes what
// Engine.Preprocess and Analyze publish on the snapshot's table.
//
//	live := core.NewLive(st, hier, core.LiveConfig{})
//	go live.AutoRefresh(ctx, time.Minute)
//	...
//	if pub := live.Current(); pub != nil { pub.Engine, pub.Analysis ... }
type Live struct {
	store *store.Store
	hier  *geo.Hierarchy
	cfg   LiveConfig
	cols  []string // servingColumns of the store schema

	cur atomic.Pointer[Published]

	// refreshMu single-flights Refresh: concurrent callers queue rather
	// than racing duplicate analyses. It also guards lineage, the
	// incremental path's cross-epoch state.
	refreshMu    sync.Mutex
	lineage      *lineage
	inFlight     atomic.Bool
	refreshes    atomic.Uint64
	fullRefr     atomic.Uint64
	incRefreshes atomic.Uint64
	lastErr      atomic.Pointer[string]
	lastErrAt    atomic.Int64
	incErr       atomic.Pointer[string]
}

// LiveConfig parameterizes the refresh pipeline.
type LiveConfig struct {
	// Preprocess and Analysis configure the two pipeline tiers run on
	// every refresh. Each zero field of Analysis takes the library
	// default; a wholly zero Preprocess takes DefaultPreprocessConfig.
	// The configs' Parallelism threads into internal/parallel as usual.
	// A refresh screens a delta at a time, so NewLive refuses the DBSCAN
	// screen (Multivariate) and a Univariate.Method left to the
	// suggestion store; Expert records nothing.
	Preprocess PreprocessConfig
	Analysis   AnalysisConfig
	// Options configures each refresh's Engine (street map, geocoder).
	Options Options
	// MinRows gates refreshing: snapshots smaller than this are rejected
	// so the analytics never run on a statistically empty store. Default
	// max(5×KMax, 50) — Analyze needs at least KMax complete rows, and a
	// margin on top keeps the elbow sweep meaningful.
	MinRows int
	// Incremental tunes the delta-proportional refresh (see
	// IncrementalConfig). Enabled by default with a 0.25 drift threshold
	// and a full refresh at least every 8th refresh.
	Incremental IncrementalConfig
}

// Published is one atomically swapped serving state: the engine and
// analysis built from the store snapshot of the recorded epoch. The
// engine's table holds the snapshot's servingColumns only; /api/query
// reads every column from Snapshot.
type Published struct {
	// Epoch is the store epoch of the snapshot this state was built from.
	Epoch uint64
	// Generation is the store ingest generation the snapshot observed; an
	// unchanged generation lets Refresh skip a no-op recompute with one
	// atomic load.
	Generation uint64
	// Rows is the snapshot row count before preprocessing.
	Rows int
	// Snapshot is the frozen store view this state was built from. The
	// query planner serves /api/query off it, so every response within
	// one published state reads one consistent epoch.
	Snapshot *store.Snapshot
	// Engine holds the preprocessed serving table, Analysis what the
	// analytics tier made of it.
	Engine   *Engine
	Analysis *Analysis
	// Report documents the preprocessing of this refresh.
	Report *PreprocessReport
	// RefreshedAt and Took time the refresh.
	RefreshedAt time.Time
	Took        time.Duration
	// Incremental reports whether this state came from an incremental
	// refresh (the data step over the store delta, warm K-means) rather
	// than a full one; DeltaRows / ReusedRows then size the newly
	// materialized versus reused rows, and Drift records the measured
	// distribution drift since the last full sweep.
	Incremental bool
	DeltaRows   int
	ReusedRows  int
	Drift       float64
	// TableBytes and LineageBytes estimate (SizeBytes) the serving table
	// — the loop's one copy of the corpus, narrowed to the columns its
	// readers name (servingColumns) and held encoded — and the incremental
	// lineage's decoded parts beside it (0 without a lineage).
	TableBytes   int
	LineageBytes int
}

// ErrStoreTooSmall is returned by Refresh when the snapshot has fewer
// rows than LiveConfig.MinRows.
var ErrStoreTooSmall = errors.New("core: store snapshot below refresh threshold")

// NewLive wires a live serving loop over a store. The hierarchy is shared
// by every refreshed engine.
func NewLive(st *store.Store, hier *geo.Hierarchy, cfg LiveConfig) (*Live, error) {
	if st == nil {
		return nil, errors.New("core: live needs a store")
	}
	if hier == nil {
		return nil, errors.New("core: live needs an administrative hierarchy")
	}
	// Resolved once: the incremental path reads the same attributes,
	// response and K bounds Analyze will.
	cfg.Analysis = cfg.Analysis.withDefaults()
	// A wholly unconfigured pre-processing tier takes the library default
	// (Parallelism survives); a partially configured one is used as-is.
	if len(cfg.Preprocess.OutlierAttrs) == 0 && cfg.Preprocess.Univariate.Method == "" {
		par := cfg.Preprocess.Parallelism
		cfg.Preprocess = DefaultPreprocessConfig()
		cfg.Preprocess.Parallelism = par
	}
	if cfg.Preprocess.Multivariate {
		return nil, errors.New("core: live refresh screens deltas and cannot run DBSCAN: PreprocessConfig.Multivariate must be false")
	}
	if cfg.Preprocess.Univariate.Method == "" {
		return nil, errors.New("core: live refresh needs an explicit outlier method: PreprocessConfig.Univariate.Method is empty")
	}
	if cfg.MinRows <= 0 {
		cfg.MinRows = cfg.Analysis.KMax * 5
		if cfg.MinRows < 50 {
			cfg.MinRows = 50
		}
	}
	if cfg.Incremental.DriftThreshold <= 0 {
		cfg.Incremental.DriftThreshold = 0.25
	}
	if cfg.Incremental.FullEvery <= 0 {
		cfg.Incremental.FullEvery = 8
	}
	return &Live{store: st, hier: hier, cfg: cfg, cols: cfg.servingColumns(st.Schema())}, nil
}

// servingColumns are the columns of the store schema that some reader of
// a publication names, in schema order — the one list the refresh
// materializes, cleans, screens, keeps in its lineage and publishes:
//
//   - every Float64 column: /api/stats, /map and /api/zones accept any
//     numeric attribute;
//   - the columns cleaning reads or rewrites: address, house number, ZIP
//     code, district and neighbourhood;
//   - the screened and clustered attributes, the response and the extra
//     rule attributes;
//   - the energy class, whose breakdown closes every dashboard;
//   - the certificate id, the row key.
//
// The other categorical columns stay in the store, where /api/query
// reads them.
func (cfg LiveConfig) servingColumns(schema []table.Field) []string {
	named := append(cfg.lineageColumns(), cfg.Analysis.columns()...)
	named = append(named, cfg.Analysis.ExtraRuleAttrs...)
	named = append(named, epc.AttrAddress, epc.AttrHouseNumber, epc.AttrZIP,
		epc.AttrDistrict, epc.AttrNeighbourhood, epc.AttrEnergyClass, epc.AttrCertificateID)
	var cols []string
	for _, f := range schema {
		if f.Type == table.Float64 || slices.Contains(named, f.Name) {
			cols = append(cols, f.Name)
		}
	}
	return cols
}

// Store returns the underlying live store (the ingestion target).
func (l *Live) Store() *store.Store { return l.store }

// Current returns the last published state, or nil before the first
// successful refresh. The returned state is immutable; successive calls
// may return different pointers as refreshes publish.
func (l *Live) Current() *Published { return l.cur.Load() }

// Refreshing reports whether a refresh is in flight.
func (l *Live) Refreshing() bool { return l.inFlight.Load() }

// Refreshes returns the number of successful refreshes.
func (l *Live) Refreshes() uint64 { return l.refreshes.Load() }

// FullRefreshes returns how many successful refreshes ran the full
// pipeline (elbow sweep included).
func (l *Live) FullRefreshes() uint64 { return l.fullRefr.Load() }

// IncrementalRefreshes returns how many successful refreshes took the
// delta-proportional fast path.
func (l *Live) IncrementalRefreshes() uint64 { return l.incRefreshes.Load() }

// LastIncrementalError returns the unexpected error that last killed the
// incremental fast path (the refresh itself then completed as a full
// refresh), or "" when the last fast-path attempt succeeded or degraded
// for an expected reason. A persistent value here with climbing
// FullRefreshes means the fast path is dead and why.
func (l *Live) LastIncrementalError() string {
	if p := l.incErr.Load(); p != nil {
		return *p
	}
	return ""
}

// LastError returns the most recent refresh failure and its time, or
// ("", zero) when the last refresh succeeded.
func (l *Live) LastError() (string, time.Time) {
	if p := l.lastErr.Load(); p != nil {
		return *p, time.Unix(0, l.lastErrAt.Load())
	}
	return "", time.Time{}
}

// Refresh snapshots the store, brings the published state up to date and
// atomically publishes the result. Concurrent calls serialize, and a call
// finding the store's ingest generation unchanged since the last
// publication returns that publication without re-running anything — a
// stampede of refresh requests (or an idle AutoRefresh ticker) costs one
// atomic load, not one analysis per caller. Every refresh runs one data
// step — clean, screen, drop — over the rows new since its lineage's
// epoch, then the analysis. In steady state the refresh is incremental:
// the step runs over the store delta, and clustering warm-starts from the
// previous centroids. A full refresh runs the step over the whole snapshot
// from an empty lineage and re-runs the elbow sweep: on the first refresh,
// on measured distribution drift, every IncrementalConfig.FullEvery-th
// refresh, or when the incremental one's preconditions fail. On failure
// the previously published state keeps serving.
func (l *Live) Refresh() (*Published, error) {
	l.refreshMu.Lock()
	defer l.refreshMu.Unlock()
	if pub := l.cur.Load(); pub != nil && l.store.Generation() == pub.Generation {
		return pub, nil
	}
	l.inFlight.Store(true)
	defer l.inFlight.Store(false)

	pub, err := l.refreshLocked()
	if err != nil {
		msg := err.Error()
		l.lastErr.Store(&msg)
		l.lastErrAt.Store(time.Now().UnixNano())
		mRefreshErrors.Inc()
		return nil, err
	}
	l.lastErr.Store(nil)
	pub.TableBytes = pub.Engine.SizeBytes()
	if l.lineage != nil {
		pub.LineageBytes = l.lineage.screen.SizeBytes() + l.lineage.dropped.SizeBytes()
	}
	mPublishedBytes.Set(float64(pub.TableBytes))
	mLineageBytes.Set(float64(pub.LineageBytes))
	l.cur.Store(pub)
	l.refreshes.Add(1)
	if pub.Incremental {
		mRefreshIncSecs.ObserveDuration(pub.Took)
	} else {
		mRefreshFullSecs.ObserveDuration(pub.Took)
	}
	return pub, nil
}

func (l *Live) refreshLocked() (*Published, error) {
	start := time.Now()
	ctx, root := obs.StartSpan(context.Background(), "refresh")
	defer root.End()
	// Gate on the live row count before paying for a snapshot, then
	// re-check the frozen count (a concurrent ingest may still race the
	// first read upward, never downward — the store is append-only).
	if rows := l.store.Rows(); rows < l.cfg.MinRows {
		return nil, fmt.Errorf("%w: %d rows, need %d", ErrStoreTooSmall, rows, l.cfg.MinRows)
	}
	_, spSnap := obs.StartSpan(ctx, "snapshot")
	snap := l.store.Snapshot()
	spSnap.End()
	if snap.NumRows() < l.cfg.MinRows {
		return nil, fmt.Errorf("%w: %d rows, need %d", ErrStoreTooSmall, snap.NumRows(), l.cfg.MinRows)
	}
	if pub, ok := l.tryIncremental(ctx, start, snap, l.cur.Load()); ok {
		return pub, nil
	}
	// A full refresh folds the whole snapshot, the delta from epoch 0,
	// into an empty lineage, then sweeps K over the rows it serves.
	_, spMat := obs.StartSpan(ctx, "materialize")
	tab, err := snap.Table(l.cols...)
	var lin *lineage
	if err == nil {
		lin, err = l.newLineage(tab.Schema())
	}
	spMat.End()
	if err != nil {
		return nil, fmt.Errorf("core: refresh: %w", err)
	}
	_, spPrep := obs.StartSpan(ctx, "preprocess")
	eng, rep, err := l.absorb(lin, tab)
	spPrep.End()
	if err != nil {
		return nil, fmt.Errorf("core: refresh: %w", err)
	}
	_, spAn := obs.StartSpan(ctx, "analyze")
	an, err := eng.Analyze(l.cfg.Analysis)
	spAn.End()
	if err != nil {
		return nil, fmt.Errorf("core: refresh: %w", err)
	}
	l.rebuildLineage(snap, lin)
	l.fullRefr.Add(1)
	mRefreshFull.Inc()
	return published(start, snap, eng, an, rep), nil
}

// published is the state a refresh that started at start built from snap.
func published(start time.Time, snap *store.Snapshot, eng *Engine, an *Analysis, rep *PreprocessReport) *Published {
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
	}
}

// AutoRefresh re-runs Refresh every interval until the context is
// cancelled; a non-positive interval runs none. Refresh errors are
// recorded (LastError) and do not stop the loop.
func (l *Live) AutoRefresh(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		_, _ = l.Refresh() // error recorded via LastError
	}
}
