package store

import (
	"fmt"
	"strings"
	"time"

	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/table"
)

// Aggregation pushdown: statistics never take the materialize-then-regroup
// detour. Matched ordinals flow from the planner straight into
// internal/table's grouped-aggregation kernels, so dictionary codes and
// packed values are consumed in place and the only rows ever decoded are
// the ones a row page asks for. No-predicate requests additionally reuse
// cached per-(segment, spec) partials — the dashboard's
// steady-state grouped queries reduce to merging a handful of frozen
// partials, near-O(groups) regardless of corpus size.

// AggSpec names what to aggregate: rows grouped by the categorical
// attribute By ("" for corpus-wide totals), with mergeable stats
// accumulated for each numeric attribute in Attrs.
type AggSpec struct {
	By    string
	Attrs []string
}

func (s AggSpec) empty() bool { return s.By == "" && len(s.Attrs) == 0 }

// cacheKey is the per-segment partial cache key. Attrs are schema-checked
// before any cache touch, so the NUL join is unambiguous.
func (s AggSpec) cacheKey() string {
	return s.By + "\x00" + strings.Join(s.Attrs, "\x00")
}

// AggResult is the aggregate answer: the matched-row count, per-attribute
// totals over all matched rows, and (when grouped) the per-group
// accumulators sorted by key.
type AggResult struct {
	Matched int
	Totals  []table.AggAccum
	Groups  []*table.GroupAccum
}

// aggShardResult is one shard's contribution to an aggregate query.
type aggShardResult struct {
	partial *table.AggPartial
	// parts are a predicated query's match ordinals in this shard, which
	// a row page is cut out of (see pageRows).
	parts   []shardPart
	pruned  bool
	indexed bool
	cand    int
	scanned int
	cached  int // segment partials served from cache
	err     error
}

// QueryAgg evaluates the predicate and aggregates the matches per spec —
// the pushdown equivalent of Query followed by row-wise grouping, with
// results identical to that oracle (bitwise for count/sum/min/max).
func (sn *Snapshot) QueryAgg(p query.Predicate, spec AggSpec, workers int) (*AggResult, PlanStats, error) {
	return sn.QueryShardsAgg(p, 0, len(sn.segs), workers, spec)
}

// QueryShardsAgg is QueryAgg restricted to the shard range [from, to) —
// the seam the scatter-gather coordinator partitions cluster aggregates
// along. Because every accumulator is mergeable, folding the partials of
// a disjoint covering set of ranges reproduces QueryAgg exactly.
func (sn *Snapshot) QueryShardsAgg(p query.Predicate, from, to, workers int, spec AggSpec) (*AggResult, PlanStats, error) {
	res, _, ps, err := sn.QueryShardsPage(p, from, to, workers, spec, 0, 0)
	return res, ps, err
}

// QueryShardsPage is the store's one aggregate-and-page entry point: it
// evaluates the predicate over the shard range [from, to) once, aggregates
// every match per spec exactly as QueryShardsAgg does (which is its
// limit == 0 case) and, when limit > 0, also decodes rows
// [offset, offset+limit) of the range's match set — over the whole
// snapshot, bitwise that slice of Query's result — without materializing
// the rest. The page is nil when limit == 0 and a (possibly empty) table
// otherwise; the aggregate and PlanStats do not depend on offset or limit.
// Prefixes (offset 0) over a disjoint covering set of shard ranges
// concatenate, in range order, to a prefix of the whole-snapshot match
// set — the seam scatter-gather legs partition row pages along.
func (sn *Snapshot) QueryShardsPage(p query.Predicate, from, to, workers int, spec AggSpec, offset, limit int) (*AggResult, *table.Table, PlanStats, error) {
	start := time.Now()
	if from < 0 || to > len(sn.segs) || from > to {
		return nil, nil, PlanStats{}, fmt.Errorf("store: query shard range [%d,%d) outside [0,%d)", from, to, len(sn.segs))
	}
	if offset < 0 || limit < 0 {
		return nil, nil, PlanStats{}, fmt.Errorf("store: query page offset %d, limit %d: must be non-negative", offset, limit)
	}
	ps := PlanStats{Shards: to - from}
	if err := sn.checkAggSpec(spec); err != nil {
		return nil, nil, ps, err
	}
	var pushIn []query.In
	var pushRange []query.NumRange
	var residual query.Predicate
	if p != nil {
		pushIn, pushRange, residual = pushdown(p, sn)
	}

	results := parallel.Map(to-from, workers, func(i int) aggShardResult {
		return sn.aggShard(from+i, p, pushIn, pushRange, residual, spec)
	})

	g := table.NewGroupAggregator(spec.By, spec.Attrs)
	cached := 0
	for _, r := range results {
		if r.err != nil {
			return nil, nil, ps, fmt.Errorf("store: query: %w", r.err)
		}
		if r.pruned {
			ps.PrunedShards++
		}
		if r.indexed {
			ps.IndexedShards++
		}
		ps.CandidateRows += r.cand
		ps.ScannedRows += r.scanned
		cached += r.cached
		if r.partial != nil {
			if err := g.AddPartial(r.partial); err != nil {
				return nil, nil, ps, fmt.Errorf("store: query: %w", err)
			}
		}
	}
	ps.MatchedRows = g.Rows()
	var page *table.Table
	if limit > 0 {
		var err error
		if page, err = sn.pageRows(from, results, p == nil, offset, limit); err != nil {
			return nil, nil, ps, fmt.Errorf("store: query: %w", err)
		}
	}
	observePlan(ps, p == nil && from == 0 && to == len(sn.segs))
	mAggPushdown.Inc()
	mAggCachedParts.Add(uint64(cached))
	mQuerySeconds.ObserveDuration(time.Since(start))
	out := &AggResult{Matched: g.Rows(), Groups: g.Groups()}
	if len(spec.Attrs) > 0 {
		out.Totals = g.Totals()
	}
	return out, page, ps, nil
}

// pageRows decodes rows [offset, offset+limit) of the match set into a
// fresh table, walking the shard results in snapshot order and touching
// only the segments the page overlaps. A predicated query cuts the page
// out of the workers' match-ordinal parts; select-all has no parts (its
// statistics fold per-segment partials, often cached ones) and computes
// each segment's share of the page from the row counts alone, so segments
// outside the page are never opened — or reloaded from disk.
func (sn *Snapshot) pageRows(from int, results []aggShardResult, selectAll bool, offset, limit int) (*table.Table, error) {
	out, err := table.NewWithSchema(sn.schema)
	if err != nil {
		return nil, err
	}
	skip, need := offset, limit
	// cut maps the next run of n matches onto its share [lo, hi) of the page.
	cut := func(n int) (lo, hi int) {
		if skip >= n {
			skip -= n
			return 0, 0
		}
		lo, skip = skip, 0
		hi = min(n, lo+need)
		need -= hi - lo
		return lo, hi
	}
	for i, r := range results {
		if need == 0 {
			break
		}
		if !selectAll {
			for _, part := range r.parts {
				if lo, hi := cut(len(part.rows)); lo < hi {
					if err := part.enc.TakeAppend(out, part.rows[lo:hi]); err != nil {
						return nil, err
					}
				}
			}
			continue
		}
		for _, sg := range sn.segs[from+i] {
			lo, hi := cut(sg.numRows())
			if lo == hi {
				continue
			}
			enc, err := sg.openEnc(sn.ld)
			if err != nil {
				return nil, err
			}
			rows := make([]int, hi-lo)
			for k := range rows {
				rows[k] = lo + k
			}
			if err := enc.TakeAppend(out, rows); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// checkAggSpec validates the spec against the snapshot schema up front, so
// shard workers never race to report the same shape error and callers get
// table's sentinel errors (ErrNoColumn, ErrTypeMismatch) to map onto 400s.
func (sn *Snapshot) checkAggSpec(spec AggSpec) error {
	byType := make(map[string]table.Type, len(sn.schema))
	for _, f := range sn.schema {
		byType[f.Name] = f.Type
	}
	if spec.By != "" {
		typ, ok := byType[spec.By]
		if !ok {
			return fmt.Errorf("%w: %q", table.ErrNoColumn, spec.By)
		}
		if typ != table.String {
			return fmt.Errorf("%w: %q is %v, want string", table.ErrTypeMismatch, spec.By, typ)
		}
	}
	for _, attr := range spec.Attrs {
		typ, ok := byType[attr]
		if !ok {
			return fmt.Errorf("%w: %q", table.ErrNoColumn, attr)
		}
		if typ != table.Float64 {
			return fmt.Errorf("%w: %q is %v, want float64", table.ErrTypeMismatch, attr, typ)
		}
	}
	return nil
}

// aggShard aggregates one shard's matches. With no predicate it folds
// whole segments — via the partial cache, or a bare row count when the
// spec asks for nothing but Matched — and the shard's tail parts in one
// run, as one segment: a select-all sum then adds the same partials in
// the same order whatever parts the tail arrived in. With a predicate it
// reuses the planner's queryShard verbatim and feeds the resulting match
// ordinals into the kernels instead of materializing, handing them back
// for the caller's row page.
func (sn *Snapshot) aggShard(i int, p query.Predicate, pushIn []query.In, pushRange []query.NumRange, residual query.Predicate, spec AggSpec) aggShardResult {
	g := table.NewGroupAggregator(spec.By, spec.Attrs)
	if p == nil {
		out := aggShardResult{}
		segs := sn.segs[i]
		for j := 0; j < len(segs); {
			end := j + 1
			if j >= sn.tailAt[i] {
				end = len(segs)
			}
			run := segs[j:end]
			j = end
			if spec.empty() {
				for _, sg := range run {
					g.AddRows(sg.numRows())
				}
				continue
			}
			part, hit, err := sn.aggPartial(run, spec)
			if err != nil {
				return aggShardResult{err: err}
			}
			if hit {
				out.cached++
			} else {
				for _, sg := range run {
					out.scanned += sg.numRows()
				}
			}
			if err := g.AddPartial(part); err != nil {
				return aggShardResult{err: err}
			}
		}
		out.partial = g.Partial()
		return out
	}

	r := sn.queryShard(i, p, pushIn, pushRange, residual)
	if r.err != nil {
		return aggShardResult{err: r.err}
	}
	for _, part := range r.parts {
		if err := g.AddEncoded(part.enc, part.rows); err != nil {
			return aggShardResult{err: err}
		}
	}
	return aggShardResult{
		partial: g.Partial(),
		parts:   r.parts,
		pruned:  r.pruned,
		indexed: r.indexed,
		cand:    r.cand,
		scanned: r.scanned,
	}
}

// maxAggPartials bounds the per-segment partial cache: a handful of
// dashboard shapes per segment, never an unbounded working set.
const maxAggPartials = 8

// aggPartial returns the frozen aggregate partial of a run of segments
// for the spec — one sealed segment, or a snapshot's tail parts —
// computing it in one pass over the run and caching it on the run's last
// segment on first use. That segment ends no other run: a sealed one is
// its own, and a tail part's segment is its snapshot's own. Cached
// partials live on the segment struct itself — the residency sweep nils
// only the encoding, so a cached partial keeps serving no-predicate
// aggregates even after its segment is evicted to disk; a tail's die
// with its snapshot.
// Partials are immutable once built (AddPartial never mutates its
// argument), so one cached value may serve many concurrent queries.
func (sn *Snapshot) aggPartial(run []*segment, spec AggSpec) (*table.AggPartial, bool, error) {
	key := spec.cacheKey()
	sg := run[len(run)-1]
	sg.aggMu.Lock()
	if part := sg.agg[key]; part != nil {
		sg.aggMu.Unlock()
		return part, true, nil
	}
	sg.aggMu.Unlock()

	g := table.NewGroupAggregator(spec.By, spec.Attrs)
	for _, r := range run {
		enc, err := r.openEnc(sn.ld)
		if err != nil {
			return nil, false, err
		}
		if err := g.AddEncoded(enc, nil); err != nil {
			return nil, false, err
		}
	}
	part := g.Partial()
	sg.aggMu.Lock()
	if existing := sg.agg[key]; existing != nil {
		part = existing // concurrent compute raced us; converge on one value
	} else if len(sg.agg) < maxAggPartials {
		if sg.agg == nil {
			sg.agg = make(map[string]*table.AggPartial)
		}
		sg.agg[key] = part
	}
	sg.aggMu.Unlock()
	return part, false, nil
}
