package store

import (
	"fmt"
	"math/bits"
	"time"

	"indice/internal/bitmap"
	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/table"
)

// PlanStats reports how a snapshot query was executed: how much of the
// predicate the planner pushed down to the per-shard secondary indexes
// and column ranges, and how many rows the masked scan still had to
// touch. It is diagnostic output; the result table is bitwise-identical
// to a naive full scan regardless of the plan.
type PlanStats struct {
	// Shards is the snapshot's shard count; PrunedShards of them were
	// skipped outright (an index conjunct matched nothing there, or a
	// range conjunct lies wholly outside the shard's observed min/max).
	Shards       int `json:"shards"`
	PrunedShards int `json:"pruned_shards"`
	// IndexedShards used secondary-index candidate lists instead of
	// scanning every row.
	IndexedShards int `json:"indexed_shards"`
	// CandidateRows counts rows evaluated from index candidate lists;
	// ScannedRows counts rows evaluated by segment scans on shards the
	// planner could not narrow.
	CandidateRows int `json:"candidate_rows"`
	ScannedRows   int `json:"scanned_rows"`
	// MatchedRows is the result size.
	MatchedRows int `json:"matched_rows"`
}

// Add folds in the plan of a disjoint shard range, field by field: how
// scatter-gather legs, each planning its own range, sum to one plan.
func (ps *PlanStats) Add(o PlanStats) {
	ps.Shards += o.Shards
	ps.PrunedShards += o.PrunedShards
	ps.IndexedShards += o.IndexedShards
	ps.CandidateRows += o.CandidateRows
	ps.ScannedRows += o.ScannedRows
	ps.MatchedRows += o.MatchedRows
}

// shardPart is one segment's matched ordinals over its encoding. Parts
// defer materialization: workers only select rows, and the merge decodes
// every match once, straight into the result table.
type shardPart struct {
	enc  *table.Encoded
	rows []int
}

// shardResult is one shard's contribution to a query.
type shardResult struct {
	parts   []shardPart
	pruned  bool
	indexed bool
	cand    int
	scanned int
	err     error
}

// Query evaluates a predicate over the snapshot, returning the matching
// rows as one table in snapshot order (shard order, segment order within
// each shard, row order within each segment) — exactly the order of
// Table().FilterMask on the same predicate.
//
// The planner decomposes the predicate's top-level conjunction and
// pushes two conjunct shapes down to the per-shard structures:
//
//   - query.In on an indexed categorical attribute resolves to the union
//     of the secondary-index postings, intersected across such conjuncts,
//     so only candidate rows are ever materialized and re-checked;
//   - query.NumRange on a numeric attribute prunes every shard whose
//     observed [min, max] cannot intersect the range (or that holds no
//     valid value at all).
//
// Everything else — negations, disjunctions, ranges on non-numeric
// attributes — is evaluated by a masked scan over the remaining
// candidates or segments. Below the planner there is one layout: every
// segment, each part of a shard's tail included, is a table.Encoded
// (see segment), so each kernel exists once. Shards
// are processed on workers goroutines (see parallel.Workers); the result
// is identical at any parallelism.
//
// Query materializes the whole match set. It is the planner's reference
// API — what FullScan equivalence and the page-equivalence suites compare
// against — and serves callers that want every row; request paths that
// want statistics and a page of rows use QueryShardsPage, which runs the
// same per-shard plan without decoding the rest.
func (sn *Snapshot) Query(p query.Predicate, workers int) (*table.Table, PlanStats, error) {
	start := time.Now()
	ps := PlanStats{Shards: len(sn.segs)}
	if p == nil {
		tab, err := sn.Table()
		if err != nil {
			return nil, ps, err
		}
		ps.MatchedRows = tab.NumRows()
		observePlan(ps, true)
		mQuerySeconds.ObserveDuration(time.Since(start))
		return tab, ps, nil
	}
	pushIn, pushRange, residual := pushdown(p, sn)

	results := parallel.Map(len(sn.segs), workers, func(i int) shardResult {
		return sn.queryShard(i, p, pushIn, pushRange, residual)
	})

	out, err := table.NewWithSchema(sn.schema)
	if err != nil {
		return nil, ps, err
	}
	total := 0
	for _, r := range results {
		if r.err != nil {
			return nil, ps, fmt.Errorf("store: query: %w", r.err)
		}
		for _, p := range r.parts {
			total += len(p.rows)
		}
	}
	out.Grow(total)
	for _, r := range results {
		if r.pruned {
			ps.PrunedShards++
		}
		if r.indexed {
			ps.IndexedShards++
		}
		ps.CandidateRows += r.cand
		ps.ScannedRows += r.scanned
		for _, p := range r.parts {
			if err := p.enc.TakeAppend(out, p.rows); err != nil {
				return nil, ps, fmt.Errorf("store: query: %w", err)
			}
		}
	}
	ps.MatchedRows = out.NumRows()
	observePlan(ps, false)
	mQuerySeconds.ObserveDuration(time.Since(start))
	return out, ps, nil
}

// FullScan evaluates the predicate over the materialized snapshot table
// with no planning — the reference path the planner must match bitwise.
func (sn *Snapshot) FullScan(p query.Predicate) (*table.Table, error) {
	tab, err := sn.Table()
	if err != nil {
		return nil, err
	}
	if p == nil {
		return tab, nil
	}
	mask, err := p.Mask(tab)
	if err != nil {
		return nil, fmt.Errorf("store: query: %w", err)
	}
	return tab.FilterMask(mask)
}

// pushdown splits the predicate's top-level AND spine into the conjunct
// shapes the per-shard structures can serve. A conjunct is pushable when
// selecting on it per shard cannot lose rows of the overall conjunction:
//
//   - In conjuncts on an indexed attribute with no empty-string value
//     (the index skips empty values, so "" must fall back to scanning);
//   - NumRange conjuncts on a numeric attribute (used for pruning only —
//     a shard with no valid value inside the range has no row satisfying
//     the conjunction).
//
// Nested Not/Or structure is never pushed; it stays in the residual
// predicate evaluated over the candidates.
//
// residual is the conjunction minus the pushed In conjuncts: the index
// postings hold exactly the valid rows carrying each value, so every
// candidate satisfies those conjuncts definitively and only the rest
// needs re-checking. A nil residual means candidates are matches as-is.
// Pushed ranges stay in the residual — shard ranges prune whole shards,
// they don't vouch for single rows.
func pushdown(p query.Predicate, sn *Snapshot) (pushIn []query.In, pushRange []query.NumRange, residual query.Predicate) {
	var rest []query.Predicate
	for _, c := range flattenAnd(p, nil) {
		switch c := c.(type) {
		case query.In:
			if len(c.Values) > 0 && sn.indexed(c.Attr) {
				clean := true
				for _, v := range c.Values {
					if v == "" {
						clean = false
						break
					}
				}
				if clean {
					pushIn = append(pushIn, c)
					continue
				}
			}
		case query.NumRange:
			if j, ok := sn.colPos[c.Attr]; ok && sn.schema[j].Type == table.Float64 {
				pushRange = append(pushRange, c)
			}
		}
		rest = append(rest, c)
	}
	switch len(rest) {
	case 0:
		residual = nil
	case 1:
		residual = rest[0]
	default:
		residual = query.And(rest)
	}
	return pushIn, pushRange, residual
}

// flattenAnd collects the conjuncts of the predicate's AND spine,
// recursing through nested Ands (composed queries like
// And{preset, And{a, b}} carry pushable conjuncts one level down —
// AND is associative, so every level of the spine constrains all rows).
func flattenAnd(p query.Predicate, acc []query.Predicate) []query.Predicate {
	if and, ok := p.(query.And); ok {
		for _, c := range and {
			acc = flattenAnd(c, acc)
		}
		return acc
	}
	return append(acc, p)
}

// indexed reports whether attr has a secondary index in every shard.
func (sn *Snapshot) indexed(attr string) bool {
	if len(sn.index) == 0 {
		return false
	}
	for _, idx := range sn.index {
		if _, ok := idx[attr]; !ok {
			return false
		}
	}
	return true
}

// queryShard evaluates the (non-nil) predicate over one shard, using index
// candidates and range pruning where the pushdown allows. residual is
// the predicate minus the index-served conjuncts (see pushdown); the
// full predicate p still drives the masked fallback.
func (sn *Snapshot) queryShard(i int, p query.Predicate, pushIn []query.In, pushRange []query.NumRange, residual query.Predicate) shardResult {
	segs := sn.segs[i]
	rows := 0
	for _, sg := range segs {
		rows += sg.numRows()
	}
	if rows == 0 {
		return shardResult{}
	}

	// Range pruning: a range conjunct no valid value of this shard can
	// satisfy makes the whole conjunction false (or unknown) shard-wide.
	for _, r := range pushRange {
		cr := sn.ranges[i][sn.colPos[r.Attr]]
		if cr.n == 0 || cr.min > r.Max || cr.max < r.Min {
			return shardResult{pruned: true}
		}
	}

	// Index candidates: union the postings bitmaps of each pushable In's
	// values, then intersect across conjuncts — all word-at-a-time bitwise
	// ops over the frozen snapshot bitmaps, never materializing
	// intermediate ordinal slices.
	var candSet *bitmap.Bitmap
	useIndex := false
	for _, in := range pushIn {
		byVal := sn.index[i][in.Attr]
		var ids *bitmap.Bitmap
		for _, v := range in.Values {
			ids = bitmap.Or(ids, byVal[v])
		}
		if !useIndex {
			candSet, useIndex = ids, true
		} else {
			candSet = bitmap.And(candSet, ids)
		}
		if candSet.Len() == 0 {
			return shardResult{pruned: true}
		}
	}

	if !useIndex {
		// Masked scan over every segment. One compiled evaluator serves
		// them all: In value sets build once and the per-node truth
		// buffers recycle across segments, and each segment evaluates
		// word-at-a-time over its encoded columns. Workers emit
		// match-ordinal parts, never tables — the merge decodes each
		// matching row exactly once.
		ev, err := query.NewEvaluator(p)
		if err != nil {
			return shardResult{err: err}
		}
		var parts []shardPart
		for _, sg := range segs {
			enc, err := sg.openEnc(sn.ld)
			if err != nil {
				return shardResult{err: err}
			}
			words, err := ev.MaskEncodedBits(enc)
			if err != nil {
				return shardResult{err: err}
			}
			if match := setOrdinals(words, nil); match != nil {
				parts = append(parts, shardPart{enc: enc, rows: match})
			}
		}
		return shardResult{parts: parts, scanned: rows}
	}

	// Candidate path: walk the candidate ordinals (ascending, so
	// snapshot order is preserved) and re-check the residual predicate
	// on them — the index already vouches for the pushed In conjuncts,
	// and leftover Not/Or/range structure evaluates at just those rows
	// exactly as it would on the full segment. With no residual,
	// candidates are matches and go out as parts unfiltered.
	var ev *query.Evaluator
	if residual != nil {
		var err error
		if ev, err = query.NewEvaluator(residual); err != nil {
			return shardResult{err: err}
		}
	}
	cand := candSet.AppendOrdinals(nil)
	var parts []shardPart
	base := 0
	k := 0
	for _, sg := range segs {
		n := sg.numRows()
		lo := k
		for k < len(cand) && cand[k] < base+n {
			cand[k] -= base
			k++
		}
		base += n
		if k == lo {
			continue
		}
		// Only segments actually holding candidates are loaded — an
		// indexed query over a mostly-cold store touches disk just for
		// the segments its postings point into. cand is this call's own
		// slice, rebased in place to segment ordinals, so a part may
		// keep a window of it.
		enc, err := sg.openEnc(sn.ld)
		if err != nil {
			return shardResult{err: err}
		}
		local := cand[lo:k:k]
		if ev == nil {
			parts = append(parts, shardPart{enc: enc, rows: local})
			continue
		}
		words, err := ev.MaskEncodedRows(enc, local)
		if err != nil {
			return shardResult{err: err}
		}
		if keep := setOrdinals(words, local); keep != nil {
			parts = append(parts, shardPart{enc: enc, rows: keep})
		}
	}
	return shardResult{parts: parts, indexed: true, cand: len(cand)}
}

// setOrdinals returns the positions of the set bits of words in
// ascending order, each mapped through rows when rows is non-nil, in a
// slice of exactly that length; nil when no bit is set.
func setOrdinals(words []uint64, rows []int) []int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for w, word := range words {
		for word != 0 {
			j := w<<6 + bits.TrailingZeros64(word)
			if rows != nil {
				j = rows[j]
			}
			out = append(out, j)
			word &= word - 1
		}
	}
	return out
}
