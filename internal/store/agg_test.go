package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indice/internal/query"
	"indice/internal/table"
)

// aggBatch builds n rows over the plan schema with *integral* numeric
// values: every partial sum is then exact in float64, so pushdown means
// must equal the materialize-then-aggregate oracle bitwise, not just
// approximately. Kleene edges match planBatch: NULL zones every 11th row,
// valid empty-string classes every 13th, NaN v every 7th, NaN w every 9th.
func aggBatch(t testing.TB, rng *rand.Rand, base, n int) *table.Table {
	t.Helper()
	tab, err := table.NewWithSchema(planConfig(1).Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := table.Cell{Float: float64(rng.Intn(800)), Valid: true}
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
		w := table.Cell{Float: float64(rng.Intn(100) - 50), Valid: true}
		if (base+i)%9 == 0 {
			w = table.Cell{Float: math.NaN()}
		}
		if err := tab.AppendRow([]table.Cell{
			{Str: fmt.Sprintf("agg-%06d", base+i), Valid: true},
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

// storeAggOracle aggregates a materialized result table row-wise — the
// reference the pushdown path must reproduce.
type storeAggOracle struct {
	rows   map[string]int
	counts map[string]map[string]int
	sums   map[string]map[string]float64
	mins   map[string]map[string]float64
	maxs   map[string]map[string]float64
}

func oracleAggregate(t *testing.T, tab *table.Table, by string, attrs []string) *storeAggOracle {
	t.Helper()
	o := &storeAggOracle{
		rows:   map[string]int{},
		counts: map[string]map[string]int{},
		sums:   map[string]map[string]float64{},
		mins:   map[string]map[string]float64{},
		maxs:   map[string]map[string]float64{},
	}
	var keys []string
	var gvalid []bool
	if by != "" {
		var err error
		keys, err = tab.Strings(by)
		if err != nil {
			t.Fatal(err)
		}
		gvalid, _ = tab.ValidMask(by)
	}
	for r := 0; r < tab.NumRows(); r++ {
		key := ""
		if by != "" && gvalid[r] {
			key = keys[r]
		}
		if _, ok := o.rows[key]; !ok {
			o.counts[key] = map[string]int{}
			o.sums[key] = map[string]float64{}
			o.mins[key] = map[string]float64{}
			o.maxs[key] = map[string]float64{}
		}
		o.rows[key]++
		for _, attr := range attrs {
			vals, err := tab.Floats(attr)
			if err != nil {
				t.Fatal(err)
			}
			mask, _ := tab.ValidMask(attr)
			if !mask[r] {
				continue
			}
			v := vals[r]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if o.counts[key][attr] == 0 {
				o.mins[key][attr] = v
				o.maxs[key][attr] = v
			} else {
				if v < o.mins[key][attr] {
					o.mins[key][attr] = v
				}
				if v > o.maxs[key][attr] {
					o.maxs[key][attr] = v
				}
			}
			o.counts[key][attr]++
			o.sums[key][attr] += v
		}
	}
	return o
}

func checkAggResult(t *testing.T, res *AggResult, o *storeAggOracle, by string, attrs []string, label string) {
	t.Helper()
	if by == "" {
		// Corpus-wide totals live in res.Totals; synthesize a one-group view.
		if len(res.Groups) != 0 {
			t.Fatalf("%s: ungrouped result has %d groups", label, len(res.Groups))
		}
		for k, attr := range attrs {
			a := res.Totals[k]
			if int(a.R.Count) != o.counts[""][attr] {
				t.Fatalf("%s: attr %q count %d, want %d", label, attr, a.R.Count, o.counts[""][attr])
			}
			if a.R.Count == 0 {
				continue
			}
			if a.Sum != o.sums[""][attr] {
				t.Fatalf("%s: attr %q sum %v, want %v", label, attr, a.Sum, o.sums[""][attr])
			}
			wantMean := o.sums[""][attr] / float64(o.counts[""][attr])
			if math.Float64bits(a.Mean()) != math.Float64bits(wantMean) {
				t.Fatalf("%s: attr %q mean %v, want %v (bitwise)", label, attr, a.Mean(), wantMean)
			}
			if math.Float64bits(a.R.Min) != math.Float64bits(o.mins[""][attr]) ||
				math.Float64bits(a.R.Max) != math.Float64bits(o.maxs[""][attr]) {
				t.Fatalf("%s: attr %q extremes [%v, %v], want [%v, %v]",
					label, attr, a.R.Min, a.R.Max, o.mins[""][attr], o.maxs[""][attr])
			}
		}
		return
	}
	if len(res.Groups) != len(o.rows) {
		t.Fatalf("%s: %d groups, oracle has %d", label, len(res.Groups), len(o.rows))
	}
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i-1].Key >= res.Groups[i].Key {
			t.Fatalf("%s: groups not sorted", label)
		}
	}
	for _, g := range res.Groups {
		wantRows, ok := o.rows[g.Key]
		if !ok {
			t.Fatalf("%s: unexpected group %q", label, g.Key)
		}
		if g.Rows != wantRows {
			t.Fatalf("%s: group %q rows %d, want %d", label, g.Key, g.Rows, wantRows)
		}
		for k, attr := range attrs {
			a := g.Attrs[k]
			if int(a.R.Count) != o.counts[g.Key][attr] {
				t.Fatalf("%s: group %q attr %q count %d, want %d", label, g.Key, attr, a.R.Count, o.counts[g.Key][attr])
			}
			if a.S.Count() != o.counts[g.Key][attr] {
				t.Fatalf("%s: group %q attr %q sketch count %d, want %d", label, g.Key, attr, a.S.Count(), o.counts[g.Key][attr])
			}
			if a.R.Count == 0 {
				continue
			}
			if a.Sum != o.sums[g.Key][attr] {
				t.Fatalf("%s: group %q attr %q sum %v, want %v", label, g.Key, attr, a.Sum, o.sums[g.Key][attr])
			}
			wantMean := o.sums[g.Key][attr] / float64(o.counts[g.Key][attr])
			if math.Float64bits(a.Mean()) != math.Float64bits(wantMean) {
				t.Fatalf("%s: group %q attr %q mean %v, want %v (bitwise)", label, g.Key, attr, a.Mean(), wantMean)
			}
			if math.Float64bits(a.R.Min) != math.Float64bits(o.mins[g.Key][attr]) ||
				math.Float64bits(a.R.Max) != math.Float64bits(o.maxs[g.Key][attr]) {
				t.Fatalf("%s: group %q attr %q extremes differ", label, g.Key, attr)
			}
			for _, q := range []float64{0.25, 0.5, 0.75} {
				qv := a.S.Quantile(q)
				if qv < a.R.Min || qv > a.R.Max {
					t.Fatalf("%s: group %q attr %q quantile(%g) = %v outside extremes", label, g.Key, attr, q, qv)
				}
			}
		}
	}
}

// TestQueryAggMatchesOracleRandomized is the pushdown equivalence
// property: for random data and random predicates (nil included), at
// shards 1/4 × workers 1/4, the aggregate pushdown answer matches
// materialize-then-aggregate bitwise for count/mean/min/max — across
// NULL-heavy columns, NaN values, empty-string groups, all-invalid group
// batches, and a group whose dictionary code appears in only one shard.
// The same aggregate, bitwise, comes back beside every row page
// (checkPages), whatever the page's offset.
func TestQueryAggMatchesOracleRandomized(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(99 + shards)))
			st, err := New(planConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 4; b++ {
				if _, err := st.AppendTable(aggBatch(t, rng, b*150, 150)); err != nil {
					t.Fatal(err)
				}
			}
			// One singleton zone: its dictionary code exists in exactly one
			// segment of one shard, so cross-shard merge must carry it.
			rare, err := table.NewWithSchema(planConfig(1).Schema)
			if err != nil {
				t.Fatal(err)
			}
			if err := rare.AppendRow([]table.Cell{
				{Str: "agg-rare", Valid: true},
				{Str: "ZRARE", Valid: true},
				{Str: "A", Valid: true},
				{Float: 123, Valid: true},
				{Float: -7, Valid: true},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.AppendTable(rare); err != nil {
				t.Fatal(err)
			}
			snap := st.Snapshot()

			preds := []query.Predicate{nil, nil, query.In{Attr: "zone", Values: []string{"ZRARE"}}}
			for trial := 0; trial < 25; trial++ {
				preds = append(preds, randPredicate(rng, 2))
			}
			specs := []AggSpec{
				{By: "zone", Attrs: []string{"v", "w"}},
				{By: "class", Attrs: []string{"v"}},
				{By: "", Attrs: []string{"v", "w"}},
			}
			for pi, p := range preds {
				want, err := snap.FullScan(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, spec := range specs {
					o := oracleAggregate(t, want, spec.By, spec.Attrs)
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("pred %d (%v), by=%q, workers=%d", pi, p, spec.By, workers)
						res, ps, err := snap.QueryAgg(p, spec, workers)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if res.Matched != want.NumRows() {
							t.Fatalf("%s: matched %d, want %d", label, res.Matched, want.NumRows())
						}
						if ps.MatchedRows != res.Matched {
							t.Fatalf("%s: plan stats matched %d, result %d", label, ps.MatchedRows, res.Matched)
						}
						checkAggResult(t, res, o, spec.By, spec.Attrs, label)
						checkPages(t, snap, p, want, spec, workers, label)
					}
				}
			}
		})
	}
}

// TestQueryAggAllInvalidGroups: a corpus whose group column is entirely
// NULL aggregates into the single "" group.
func TestQueryAggAllInvalidGroups(t *testing.T) {
	st, err := New(planConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table.NewWithSchema(planConfig(1).Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tab.AppendRow([]table.Cell{
			{Str: fmt.Sprintf("inv-%03d", i), Valid: true},
			{}, // zone NULL on every row
			{Str: "A", Valid: true},
			{Float: float64(i), Valid: true},
			{Float: 1, Valid: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.AppendTable(tab); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	res, _, err := snap.QueryAgg(nil, AggSpec{By: "zone", Attrs: []string{"v"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Key != "" {
		t.Fatalf("want the single empty-key group, got %+v", res.Groups)
	}
	if res.Groups[0].Rows != 100 || res.Groups[0].Attrs[0].R.Count != 100 {
		t.Fatalf("empty-key group accumulated %d rows / %d values", res.Groups[0].Rows, res.Groups[0].Attrs[0].R.Count)
	}
	if res.Groups[0].Attrs[0].Sum != 4950 {
		t.Fatalf("sum = %v, want 4950", res.Groups[0].Attrs[0].Sum)
	}
}

// TestQueryAggCachedPartials: the second no-predicate aggregate over a
// snapshot is served from cached partials — no rows rescanned, the tail
// parts' included — and answers identically. A later snapshot shares
// the sealed segments' partials and rescans only its own tail.
func TestQueryAggCachedPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st, err := New(planConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(aggBatch(t, rng, 0, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendTable(aggBatch(t, rng, 400, 9)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	spec := AggSpec{By: "zone", Attrs: []string{"v", "w"}}

	tail := 0
	sealed := 0
	for i, segs := range snap.segs {
		for j, sg := range segs {
			if j >= snap.tailAt[i] {
				tail += sg.numRows()
			} else {
				sealed++
			}
		}
	}
	if sealed == 0 || tail == 0 {
		t.Fatalf("corpus produced %d sealed segments and %d tail rows; the test needs both", sealed, tail)
	}

	first, ps1, err := snap.QueryAgg(nil, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps1.ScannedRows != 409 {
		t.Fatalf("first pass scanned %d rows, want 409", ps1.ScannedRows)
	}
	second, ps2, err := snap.QueryAgg(nil, spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps2.ScannedRows != 0 {
		t.Fatalf("second pass rescanned %d rows; want none", ps2.ScannedRows)
	}
	if _, ps3, err := st.Snapshot().QueryAgg(nil, spec, 2); err != nil || ps3.ScannedRows != tail {
		t.Fatalf("a later snapshot rescanned %d rows (%v); want only its %d tail rows", ps3.ScannedRows, err, tail)
	}
	if len(first.Groups) != len(second.Groups) {
		t.Fatalf("cached pass returned %d groups, first %d", len(second.Groups), len(first.Groups))
	}
	for i := range first.Groups {
		a, b := first.Groups[i], second.Groups[i]
		if a.Key != b.Key || a.Rows != b.Rows ||
			a.Attrs[0].Sum != b.Attrs[0].Sum || a.Attrs[0].R.Count != b.Attrs[0].R.Count ||
			a.Attrs[0].S.Quantile(0.5) != b.Attrs[0].S.Quantile(0.5) {
			t.Fatalf("cached pass diverges at group %q", a.Key)
		}
	}
}

// TestTailPartsFoldInOneRun pins the select-all fold: sums add one
// partial per sealed segment and one for each shard's whole tail, so a
// tail of many parts and the same rows ingested as one batch give bitwise
// the same totals, grouped and not. Non-integral values make the order of
// the additions show.
func TestTailPartsFoldInOneRun(t *testing.T) {
	load := func(batches ...int) *Snapshot {
		rng := rand.New(rand.NewSource(17))
		cfg := planConfig(2)
		cfg.SegmentRows = 128
		st, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		all := planBatch(t, rng, 0, 400)
		base := 0
		for _, n := range batches {
			part, err := all.View(base, base+n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.AppendTable(part); err != nil {
				t.Fatal(err)
			}
			base += n
		}
		return st.Snapshot()
	}
	parts := load(300, 11, 13, 9, 14, 12, 10)
	whole := load(300, 69)
	for i := range parts.segs {
		if n := len(parts.segs[i]) - parts.tailAt[i]; n < 3 || whole.tailAt[i] != parts.tailAt[i] || len(whole.segs[i]) != whole.tailAt[i]+1 {
			t.Fatalf("shard %d: a tail of %d parts beside one of %d; the test needs several against one", i, n, len(whole.segs[i])-whole.tailAt[i])
		}
	}
	for _, spec := range []AggSpec{{Attrs: []string{"v", "w"}}, {By: "zone", Attrs: []string{"v", "w"}}} {
		got, _, err := parts.QueryAgg(nil, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := whole.QueryAgg(nil, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("by %q: a tail of parts and the same rows as one batch total differently", spec.By)
		}
	}
}

func TestQueryAggSpecErrors(t *testing.T) {
	st, err := New(planConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := st.AppendTable(aggBatch(t, rng, 0, 50)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	for _, tc := range []struct {
		spec AggSpec
		want error
	}{
		{AggSpec{By: "nope", Attrs: []string{"v"}}, table.ErrNoColumn},
		{AggSpec{By: "zone", Attrs: []string{"nope"}}, table.ErrNoColumn},
		{AggSpec{By: "v", Attrs: []string{"v"}}, table.ErrTypeMismatch},
		{AggSpec{By: "zone", Attrs: []string{"class"}}, table.ErrTypeMismatch},
	} {
		if _, _, err := snap.QueryAgg(nil, tc.spec, 1); !errors.Is(err, tc.want) {
			t.Fatalf("spec %+v: err %v, want %v", tc.spec, err, tc.want)
		}
	}
	if _, _, err := snap.QueryShardsAgg(nil, 0, 99, 1, AggSpec{}); err == nil {
		t.Fatal("want shard-range error")
	}
}

// TestQueryAggEmptySpec pins the Matched-only fast path: with nothing to
// aggregate, no predicate folds bare segment row counts (no segment is
// ever loaded), and a predicate still plans normally.
func TestQueryAggEmptySpec(t *testing.T) {
	st, err := New(planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	if _, err := st.AppendTable(aggBatch(t, rng, 0, 500)); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()

	res, ps, err := snap.QueryAgg(nil, AggSpec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 500 || res.Totals != nil || res.Groups != nil {
		t.Fatalf("empty spec, nil predicate: %+v", res)
	}
	if ps.ScannedRows != 0 {
		t.Fatalf("bare count scanned rows: %+v", ps)
	}

	pred := query.In{Attr: "zone", Values: []string{"Z1"}}
	res, _, err = snap.QueryAgg(pred, AggSpec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := snap.Query(pred, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != want.NumRows() || res.Matched == 0 {
		t.Fatalf("predicated empty spec matched %d, query %d", res.Matched, want.NumRows())
	}
}

// TestAdoptPartsAndReset exercises the replication apply path at the
// store level: adopted pre-encoded segments must serve queries and the
// aggregation pushdown (including per-segment cached partials) exactly
// like locally sealed ones, and Reset must return the store to empty
// while rejecting durable stores.
func TestAdoptPartsAndReset(t *testing.T) {
	st, err := New(planConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	seed := aggBatch(t, rng, 0, 96)
	enc := table.Encode(seed)

	if _, err := st.AdoptParts(nil); err != nil {
		t.Fatalf("empty adopt: %v", err)
	}
	for _, tt := range []struct {
		name  string
		parts []AdoptPart
	}{
		{"bad shard", []AdoptPart{{Shard: 9, Enc: enc}}},
		{"nil segment", []AdoptPart{{Shard: 0}}},
	} {
		if _, err := st.AdoptParts(tt.parts); err == nil {
			t.Fatalf("%s: adopt succeeded", tt.name)
		}
	}
	other := table.New()
	if err := other.AddStrings("only", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdoptParts([]AdoptPart{{Shard: 0, Enc: table.Encode(other)}}); err == nil {
		t.Fatal("schema mismatch adopt succeeded")
	}

	rows, err := st.AdoptParts([]AdoptPart{{Shard: 0, Enc: enc}, {Shard: 1, Enc: enc}})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2*96 {
		t.Fatalf("adopted %d rows, want %d", rows, 2*96)
	}
	snap := st.Snapshot()
	spec := AggSpec{By: "zone", Attrs: []string{"v"}}
	res, ps1, err := snap.QueryAgg(nil, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 2*96 {
		t.Fatalf("aggregate over adopted segments matched %d", res.Matched)
	}
	full, err := snap.FullScan(nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleAggregate(t, full, spec.By, spec.Attrs)
	checkAggResult(t, res, oracle, spec.By, spec.Attrs, "adopted segments")
	if _, ps2, err := snap.QueryAgg(nil, spec, 1); err != nil {
		t.Fatal(err)
	} else if ps2.ScannedRows >= ps1.ScannedRows+1 {
		t.Fatalf("second aggregate scanned %d rows, first %d", ps2.ScannedRows, ps1.ScannedRows)
	}

	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().NumRows(); got != 0 {
		t.Fatalf("reset left %d rows", got)
	}
	if res, _, err := snap.QueryAgg(nil, spec, 1); err != nil || res.Matched != 2*96 {
		t.Fatalf("pre-reset snapshot no longer serves: %v, %+v", err, res)
	}

	dur, err := Open(planConfig(2), Durability{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if _, err := dur.AdoptParts([]AdoptPart{{Shard: 0, Enc: enc}}); err == nil {
		t.Fatal("durable store adopted a segment")
	}
	if err := dur.Reset(); err == nil {
		t.Fatal("durable store reset succeeded")
	}
}
