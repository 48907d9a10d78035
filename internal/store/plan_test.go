package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"indice/internal/query"
	"indice/internal/table"
)

// planConfig is the planner test store: sharded, tiny segments (so every
// shard holds several), one indexed categorical besides the key, and one
// tracked numeric with NaN holes.
func planConfig(shards int) Config {
	return Config{
		Shards:      shards,
		SegmentRows: 16,
		Schema: []table.Field{
			{Name: "id", Type: table.String},
			{Name: "zone", Type: table.String},
			{Name: "class", Type: table.String},
			{Name: "v", Type: table.Float64},
			{Name: "w", Type: table.Float64},
		},
		KeyAttr:    "id",
		IndexAttrs: []string{"zone", "class"},
		StatsAttrs: []string{"v"}, // w untracked: ranges on it never push down
	}
}

// planBatch builds n rows exercising every encoding and Kleene edge the
// sealed segments must round-trip: duplicate-heavy zones Z0..Z4 (every
// 11th cell NULL), classes A..C with valid empty-string cells mixed in,
// v in [0, 100) with every 7th cell invalid (canonical NaN), w in
// [-50, 50) with every 9th cell invalid.
func planBatch(t testing.TB, rng *rand.Rand, base, n int) *table.Table {
	t.Helper()
	tab, err := table.NewWithSchema(planConfig(1).Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := table.Cell{Float: rng.Float64() * 100, Valid: true}
		if (base+i)%7 == 0 {
			v = table.Cell{Float: math.NaN()}
		}
		zone := table.Cell{Str: fmt.Sprintf("Z%d", rng.Intn(5)), Valid: true}
		if (base+i)%11 == 0 {
			zone = table.Cell{}
		}
		class := table.Cell{Str: string(rune('A' + rng.Intn(3))), Valid: true}
		if (base+i)%13 == 0 {
			class = table.Cell{Str: "", Valid: true}
		}
		w := table.Cell{Float: rng.Float64()*100 - 50, Valid: true}
		if (base+i)%9 == 0 {
			w = table.Cell{Float: math.NaN()}
		}
		if err := tab.AppendRow([]table.Cell{
			{Str: fmt.Sprintf("id-%06d", base+i), Valid: true},
			zone,
			class,
			v,
			w,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// tablesEqual compares two tables cell-by-cell, bitwise for floats (NaN
// payloads included) and including validity masks.
func tablesEqual(a, b *table.Table) error {
	if !a.SchemaEquals(b) {
		return fmt.Errorf("schemas differ: %v vs %v", a.Schema(), b.Schema())
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	for _, f := range a.Schema() {
		va, _ := a.ValidMask(f.Name)
		vb, _ := b.ValidMask(f.Name)
		for i := range va {
			if va[i] != vb[i] {
				return fmt.Errorf("column %q row %d: validity %v vs %v", f.Name, i, va[i], vb[i])
			}
		}
		if f.Type == table.Float64 {
			fa, _ := a.Floats(f.Name)
			fb, _ := b.Floats(f.Name)
			for i := range fa {
				if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
					return fmt.Errorf("column %q row %d: %v vs %v", f.Name, i, fa[i], fb[i])
				}
			}
		} else {
			sa, _ := a.Strings(f.Name)
			sb, _ := b.Strings(f.Name)
			for i := range sa {
				if sa[i] != sb[i] {
					return fmt.Errorf("column %q row %d: %q vs %q", f.Name, i, sa[i], sb[i])
				}
			}
		}
	}
	return nil
}

// randPredicate draws a random predicate tree over the plan schema,
// mixing pushable shapes (zone/class In, v ranges) with residual ones
// (Not, Or, ranges on the untracked w, unindexed-value sets).
func randPredicate(rng *rand.Rand, depth int) query.Predicate {
	if depth > 0 && rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return query.Not{P: randPredicate(rng, depth-1)}
		case 1:
			n := 2 + rng.Intn(2)
			and := make(query.And, n)
			for i := range and {
				and[i] = randPredicate(rng, depth-1)
			}
			return and
		default:
			n := 2 + rng.Intn(2)
			or := make(query.Or, n)
			for i := range or {
				or[i] = randPredicate(rng, depth-1)
			}
			return or
		}
	}
	switch rng.Intn(5) {
	case 0:
		return query.In{Attr: "zone", Values: []string{fmt.Sprintf("Z%d", rng.Intn(6))}}
	case 1:
		vals := []string{}
		for v := 0; v < 5; v++ {
			if rng.Intn(2) == 0 {
				vals = append(vals, fmt.Sprintf("Z%d", v))
			}
		}
		vals = append(vals, "Z0")
		return query.In{Attr: "zone", Values: vals}
	case 2:
		if rng.Intn(4) == 0 {
			// Empty-string sets cannot use the index (it skips "") and
			// must still match the valid-empty cells exactly.
			return query.In{Attr: "class", Values: []string{"", "B"}}
		}
		return query.In{Attr: "class", Values: []string{string(rune('A' + rng.Intn(4)))}}
	case 3:
		lo := rng.Float64()*120 - 10
		return query.NumRange{Attr: "v", Min: lo, Max: lo + rng.Float64()*60}
	default:
		lo := rng.Float64()*100 - 50
		return query.NumRange{Attr: "w", Min: lo, Max: lo + rng.Float64()*40}
	}
}

// checkPages asserts the aggregate-and-page contract of QueryShardsPage
// for one predicate, given want = Query(p): at offsets 0 / mid / last
// partial page / beyond the end, the page is rows [offset, offset+limit)
// of want bitwise, the aggregate and PlanStats equal QueryAgg's, and the
// per-range prefixes of a disjoint covering set of shard ranges (what
// scatter-gather legs return) concatenate to the same page.
func checkPages(t *testing.T, snap *Snapshot, p query.Predicate, want *table.Table, spec AggSpec, workers int, label string) {
	t.Helper()
	// A select-all's first aggregate fills the per-segment partial cache
	// and so scans more rows than any later one: compare warm to warm.
	if _, _, err := snap.QueryAgg(p, spec, workers); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantAgg, wantPS, err := snap.QueryAgg(p, spec, workers)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	n := want.NumRows()
	if wantAgg.Matched != n {
		t.Fatalf("%s: QueryAgg matched %d, Query %d", label, wantAgg.Matched, n)
	}
	shards := snap.NumShards()
	ranges := [][2]int{{0, shards}}
	if shards >= 4 {
		ranges = [][2]int{{0, 1}, {1, 3}, {3, shards}}
	}
	// pageOf cuts rows [offset, offset+limit) out of a materialized table.
	pageOf := func(tab *table.Table, offset, limit int) *table.Table {
		var idx []int
		for r := offset; r < min(offset+limit, tab.NumRows()); r++ {
			idx = append(idx, r)
		}
		page, err := tab.Take(idx)
		if err != nil {
			t.Fatal(err)
		}
		return page
	}
	for _, pg := range []struct{ offset, limit int }{
		{0, 7}, {n / 2, 40}, {max(n-3, 0), 7}, {n + 3, 7},
	} {
		at := fmt.Sprintf("%s, offset=%d limit=%d", label, pg.offset, pg.limit)
		wantPage := pageOf(want, pg.offset, pg.limit)
		agg, page, ps, err := snap.QueryShardsPage(p, 0, shards, workers, spec, pg.offset, pg.limit)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if err := tablesEqual(page, wantPage); err != nil {
			t.Fatalf("%s: page: %v", at, err)
		}
		if !reflect.DeepEqual(agg, wantAgg) {
			t.Fatalf("%s: aggregate differs from QueryAgg's", at)
		}
		if ps != wantPS {
			t.Fatalf("%s: plan %+v, QueryAgg's %+v", at, ps, wantPS)
		}

		concat, err := table.NewWithSchema(snap.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for _, rg := range ranges {
			_, prefix, _, err := snap.QueryShardsPage(p, rg[0], rg[1], workers, spec, 0, pg.offset+pg.limit)
			if err != nil {
				t.Fatalf("%s, shards [%d,%d): %v", at, rg[0], rg[1], err)
			}
			if err := concat.AppendTable(prefix); err != nil {
				t.Fatal(err)
			}
		}
		if err := tablesEqual(pageOf(concat, pg.offset, pg.limit), wantPage); err != nil {
			t.Fatalf("%s: concatenated range prefixes: %v", at, err)
		}
	}
}

// TestQueryMatchesFullScanRandomized is the planner's equivalence
// property: for random data and random predicates, the pushdown path
// returns a table bitwise-identical to the naive full scan, at any
// parallelism — and every page QueryShardsPage cuts out of the match set
// is the same slice of it (checkPages). The fixed predicates pin one of
// each planner road ahead of the random trees: select-all, indexed,
// indexed + residual, masked scan, not/or, and stats-pruned.
func TestQueryMatchesFullScanRandomized(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + shards)))
			st, err := New(planConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			// Several batches so shards hold sealed segments + a tail.
			for b := 0; b < 4; b++ {
				if _, err := st.AppendTable(planBatch(t, rng, b*150, 150)); err != nil {
					t.Fatal(err)
				}
			}
			snap := st.Snapshot()
			preds := []query.Predicate{
				nil,
				query.MustParse("zone = Z1"),
				query.MustParse("zone = Z1 and w <= 0"),
				query.MustParse("w <= 0"),
				query.MustParse("not (zone = Z0) or v >= 50"),
				query.MustParse("v in [1000, 2000]"),
			}
			for len(preds) < 60 {
				preds = append(preds, randPredicate(rng, 3))
			}
			spec := AggSpec{By: "class", Attrs: []string{"v"}}
			for trial, p := range preds {
				want, err := snap.FullScan(p)
				if err != nil {
					t.Fatalf("trial %d (%s): full scan: %v", trial, p, err)
				}
				for _, workers := range []int{1, 4} {
					got, _, err := snap.Query(p, workers)
					if err != nil {
						t.Fatalf("trial %d (%s): query: %v", trial, p, err)
					}
					if err := tablesEqual(got, want); err != nil {
						t.Fatalf("trial %d (%s, workers=%d): %v", trial, p, workers, err)
					}
					checkPages(t, snap, p, got, spec, workers, fmt.Sprintf("trial %d (%v, workers=%d)", trial, p, workers))
				}
			}
		})
	}
}

// TestQueryParsedDSLEquivalence runs textual queries through the shared
// parser and checks planner/naive equivalence end to end.
func TestQueryParsedDSLEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st, err := New(planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(planBatch(t, rng, 0, 400)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	for _, q := range []string{
		"zone = Z1",
		"zone in {Z1, Z3} and class = B",
		"v in [20, 60] and zone = Z2",
		"not (zone = Z0) and v >= 50",
		"zone = Z0 or class in {A, C}",
		"w <= 0 and not (v in [0, 50])",
		"zone = Z9", // matches nothing
	} {
		p, err := query.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		want, err := snap.FullScan(p)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := snap.Query(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := tablesEqual(got, want); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
	}
}

// TestQueryPlanUsesIndexAndPrunes pins that equality/set predicates on
// indexed attributes actually take the candidate path and that
// impossible ranges prune shards via the Welford summaries.
func TestQueryPlanUsesIndexAndPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st, err := New(planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(planBatch(t, rng, 0, 500)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()

	_, ps, err := snap.Query(query.MustParse("zone = Z1 and v in [0, 100]"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.IndexedShards == 0 || ps.ScannedRows != 0 {
		t.Fatalf("zone equality did not push down: %+v", ps)
	}
	if ps.CandidateRows >= snap.NumRows() {
		t.Fatalf("candidates not narrower than the store: %+v", ps)
	}

	// Composed queries nest conjunctions (the server ANDs a preset's
	// selection with the user's own); pushdown must flatten the spine so
	// the nested indexed conjunct still avoids full scans.
	nested := query.And{
		query.In{Attr: "class", Values: []string{"A", "B"}},
		query.And{query.In{Attr: "zone", Values: []string{"Z1"}}, query.NumRange{Attr: "v", Min: 0, Max: 100}},
	}
	nestedWant, err := snap.FullScan(nested)
	if err != nil {
		t.Fatal(err)
	}
	nestedGot, ps, err := snap.Query(nested, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.IndexedShards == 0 || ps.ScannedRows != 0 {
		t.Fatalf("nested AND did not push down: %+v", ps)
	}
	if err := tablesEqual(nestedGot, nestedWant); err != nil {
		t.Fatal(err)
	}

	// v is tracked: a range wholly outside the observed values prunes
	// every shard without touching a row.
	_, ps, err = snap.Query(query.MustParse("v in [1000, 2000]"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.PrunedShards != ps.Shards || ps.ScannedRows != 0 || ps.CandidateRows != 0 {
		t.Fatalf("impossible range not pruned: %+v", ps)
	}
	if ps.MatchedRows != 0 {
		t.Fatalf("impossible range matched rows: %+v", ps)
	}

	// w is untracked: the same impossible range must fall back to scans
	// and still return nothing.
	res, ps, err := snap.Query(query.MustParse("w in [1000, 2000]"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ScannedRows == 0 || res.NumRows() != 0 {
		t.Fatalf("untracked range should scan: %+v", ps)
	}

	// A value set containing "" cannot use the index (the index skips
	// empty strings) but must stay correct.
	p := query.In{Attr: "zone", Values: []string{"", "Z1"}}
	want, err := snap.FullScan(p)
	if err != nil {
		t.Fatal(err)
	}
	got, ps, err := snap.Query(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps.IndexedShards != 0 {
		t.Fatalf("empty-string set must not push down: %+v", ps)
	}
	if err := tablesEqual(got, want); err != nil {
		t.Fatal(err)
	}
}

// TestQueryNilPredicate returns the whole snapshot.
func TestQueryNilPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st, err := New(planConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(planBatch(t, rng, 0, 50)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	got, ps, err := snap.Query(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 50 || ps.MatchedRows != 50 {
		t.Fatalf("rows = %d, plan %+v", got.NumRows(), ps)
	}
}

// TestQueryErrorPropagates surfaces bad attribute references.
func TestQueryErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st, err := New(planConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(planBatch(t, rng, 0, 40)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if _, _, err := snap.Query(query.NumRange{Attr: "ghost"}, 2); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	if _, _, err := snap.Query(query.In{Attr: "v", Values: []string{"x"}}, 2); err == nil {
		t.Fatal("want error for type mismatch")
	}
}

// TestPublicationEncodesNothingOnRead: a snapshot reads the tail parts
// the store holds, each encoded once when its batch was accepted. Two
// snapshots, before and after a further batch, hand out the same
// encodings for every earlier part, whether a query has read them or not,
// and eight goroutines racing over a fresh snapshot all answer exactly as
// FullScan does.
func TestPublicationEncodesNothingOnRead(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := planConfig(2)
	cfg.SegmentRows = 160
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(planBatch(t, rng, 0, 400)); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if _, err := st.AppendTable(planBatch(t, rng, 400+b*11, 11)); err != nil {
			t.Fatal(err)
		}
	}

	before := st.Snapshot()
	encs := make([][]*table.Encoded, before.NumShards())
	for i := range encs {
		if segs := before.segs[i]; before.tailAt[i] == 0 || before.tailAt[i] == len(segs) {
			t.Fatalf("shard %d: %d segments, %d sealed; the test needs sealed segments and a tail", i, len(segs), before.tailAt[i])
		}
		if encs[i], err = before.ShardEncoded(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := before.QueryAgg(query.MustParse("w <= 0"), AggSpec{By: "zone", Attrs: []string{"v"}}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(planBatch(t, rng, 433, 11)); err != nil {
		t.Fatal(err)
	}
	after := st.Snapshot()
	for i := range encs {
		got, err := after.ShardEncoded(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len(encs[i]) {
			t.Fatalf("shard %d: %d encodings after a batch, %d before", i, len(got), len(encs[i]))
		}
		for k, enc := range encs[i] {
			if got[k] != enc {
				t.Fatalf("shard %d part %d: the later snapshot reads another encoding of the same rows", i, k)
			}
		}
	}

	preds := []query.Predicate{
		query.MustParse("zone = Z1"),
		query.MustParse("zone = Z1 and w <= 0"),
		query.MustParse("w <= 0"),
		query.MustParse("not (zone = Z0) or v >= 50"),
	}
	for len(preds) < 16 {
		preds = append(preds, randPredicate(rng, 3))
	}
	fresh := st.Snapshot()
	wants := make([]*table.Table, len(preds))
	for k, p := range preds {
		if wants[k], err = fresh.FullScan(p); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for k := range preds {
				k := (k + g) % len(preds)
				got, _, err := fresh.Query(preds[k], 1)
				if err == nil {
					err = tablesEqual(got, wants[k])
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s: %w", g, preds[k], err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
