package store

import (
	"fmt"
	"slices"
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
// results identical to that oracle, bitwise for every statistic.
func (sn *Snapshot) QueryAgg(p query.Predicate, spec AggSpec, workers int) (*AggResult, PlanStats, error) {
	res, _, ps, err := sn.QueryShardsPage(p, 0, len(sn.segs), workers, spec, 0, 0)
	return res, ps, err
}

// PageRun is a run of a row page: rows of one segment's encoding, in page
// order. A page is its runs in order, read straight from the encodings.
type PageRun struct {
	Enc  *table.Encoded
	Rows []int
}

// QueryShardsPage is the store's one aggregate-and-page entry point: it
// evaluates the predicate over the shard range [from, to) once, aggregates
// every match per spec — QueryAgg is its whole-snapshot, limit == 0 case;
// every accumulator merges exactly, so the partials of a disjoint covering
// set of ranges fold to QueryAgg's — and, when limit > 0, also cuts rows
// [offset, offset+limit) out of the range's match set — over the whole
// snapshot, bitwise that slice of Query's result — as runs of the
// encodings that hold them, decoding nothing. The page is nil when
// limit == 0 and a (possibly empty) list of runs otherwise; the aggregate
// and PlanStats do not depend on offset or limit.
// Prefixes (offset 0) over a disjoint covering set of shard ranges
// concatenate, in range order, to a prefix of the whole-snapshot match
// set — the seam scatter-gather legs partition row pages along.
func (sn *Snapshot) QueryShardsPage(p query.Predicate, from, to, workers int, spec AggSpec, offset, limit int) (*AggResult, []PageRun, PlanStats, error) {
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
	var page []PageRun
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

// pageRows cuts rows [offset, offset+limit) of the match set into runs,
// walking the shard results in snapshot order and touching only the
// segments the page overlaps. A predicated query cuts the page
// out of the workers' match-ordinal parts; select-all has no parts (its
// statistics fold per-segment partials, often cached ones) and computes
// each segment's share of the page from the row counts alone, so segments
// outside the page are never opened — or reloaded from disk.
func (sn *Snapshot) pageRows(from int, results []aggShardResult, selectAll bool, offset, limit int) ([]PageRun, error) {
	out := []PageRun{}
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
					out = append(out, PageRun{part.enc, part.rows[lo:hi]})
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
			out = append(out, PageRun{enc, rows})
		}
	}
	return out, nil
}

// checkAggSpec validates the spec against the snapshot schema up front, so
// shard workers never race to report the same shape error and callers get
// table's sentinel errors (ErrNoColumn, ErrTypeMismatch) to map onto 400s.
func (sn *Snapshot) checkAggSpec(spec AggSpec) error {
	check := func(attr string, want table.Type) error {
		i := slices.IndexFunc(sn.schema, func(f table.Field) bool { return f.Name == attr })
		if i < 0 {
			return fmt.Errorf("%w: %q", table.ErrNoColumn, attr)
		}
		if typ := sn.schema[i].Type; typ != want {
			return fmt.Errorf("%w: %q is %v, want %v", table.ErrTypeMismatch, attr, typ, want)
		}
		return nil
	}
	if spec.By != "" {
		if err := check(spec.By, table.String); err != nil {
			return err
		}
	}
	for _, attr := range spec.Attrs {
		if err := check(attr, table.Float64); err != nil {
			return err
		}
	}
	return nil
}

// aggShard aggregates one shard's matches. With no predicate it folds
// whole segments, sealed ones and tail parts alike — via the partial
// cache, or a bare row count when the spec asks for nothing but Matched.
// With a predicate it reuses the planner's queryShard verbatim and feeds
// the resulting match ordinals into the kernels instead of materializing,
// handing them back for the caller's row page.
func (sn *Snapshot) aggShard(i int, p query.Predicate, pushIn []query.In, pushRange []query.NumRange, residual query.Predicate, spec AggSpec) aggShardResult {
	g := table.NewGroupAggregator(spec.By, spec.Attrs)
	if p == nil {
		out := aggShardResult{}
		for _, sg := range sn.segs[i] {
			if spec.empty() {
				g.AddRows(sg.numRows())
				continue
			}
			part, hit, err := sn.aggPartial(sg, spec, true)
			if err != nil {
				return aggShardResult{err: err}
			}
			if hit {
				out.cached++
			} else {
				out.scanned += sg.numRows()
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

// Totals returns the exact aggregate of each named numeric column over
// every row of the snapshot — QueryAgg's totals with no predicate —
// folded from the segments' partials of this one spec, without counting
// as a query. A reader that names the same columns at every refresh (the
// drift gate) takes one partial-cache slot per segment.
func (sn *Snapshot) Totals(attrs ...string) ([]table.AggAccum, error) {
	return sn.totals(AggSpec{Attrs: attrs}, true)
}

// Totals returns the exact aggregate of each named numeric column over
// every row the store holds now, ahead of any snapshot: the live view an
// operator reads. It takes no epoch and reads cached partials but caches
// none.
func (s *Store) Totals(attrs ...string) ([]table.AggAccum, error) {
	s.mu.RLock()
	view := &Snapshot{schema: s.schema, ld: s.ld, segs: make([][]*segment, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.Lock()
		view.segs[i] = slices.Concat(sh.sealed, sh.tail)
		sh.mu.Unlock()
	}
	s.mu.RUnlock()
	return view.totals(AggSpec{Attrs: attrs}, false)
}

// totals folds every segment's partial for the ungrouped spec, caching
// the partials it computes when keep says so.
func (sn *Snapshot) totals(spec AggSpec, keep bool) ([]table.AggAccum, error) {
	if err := sn.checkAggSpec(spec); err != nil {
		return nil, fmt.Errorf("store: totals: %w", err)
	}
	g := table.NewGroupAggregator("", spec.Attrs)
	for _, segs := range sn.segs {
		for _, sg := range segs {
			part, _, err := sn.aggPartial(sg, spec, keep)
			if err == nil {
				err = g.AddPartial(part)
			}
			if err != nil {
				return nil, fmt.Errorf("store: totals: %w", err)
			}
		}
	}
	return g.Totals(), nil
}

// aggPartial returns the frozen aggregate partial of one segment — a
// sealed one or a tail part — for the spec, computing it on first use and,
// when keep says so, caching it on the segment, which every snapshot
// holding it shares. The residency sweep nils only the encoding, so a
// cached partial outlives an eviction; a tail part's dies with the part
// when the tail seals or folds.
// Partials are immutable (AddPartial never mutates its argument), so one
// may serve many concurrent queries.
func (sn *Snapshot) aggPartial(sg *segment, spec AggSpec, keep bool) (*table.AggPartial, bool, error) {
	key := spec.cacheKey()
	sg.aggMu.Lock()
	if part := sg.agg[key]; part != nil {
		sg.aggMu.Unlock()
		return part, true, nil
	}
	sg.aggMu.Unlock()

	enc, err := sg.openEnc(sn.ld)
	if err != nil {
		return nil, false, err
	}
	g := table.NewGroupAggregator(spec.By, spec.Attrs)
	if err := g.AddEncoded(enc, nil); err != nil {
		return nil, false, err
	}
	part := g.Partial()
	if !keep {
		return part, false, nil
	}
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
