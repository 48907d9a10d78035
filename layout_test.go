package indice

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/query"
	"indice/internal/server"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// TestSegmentLayoutLeavesAnswersAlone loads one seeded 20k-row corpus, as
// 2 000-row typed-CSV bodies, into stores whose tails seal at 600, 2 048
// (the default) and 8 192 rows — many small segments, two per shard, tail
// views only — plus two layouts cut to the edges of a tail's size: one
// where a shard's tail holds a single row and one where a tail holds
// SegmentRows−1 rows, the most a tail ever holds. Every answer of one
// layout is held against the others'.
// Every aggregate is exact — sums, sketches, counts — whichever partials
// the segments cut it into, so totals, groups and pages are bitwise equal,
// predicated or select-all, and so are the /api/query bodies once the
// plan echo is set aside.
func TestSegmentLayoutLeavesAnswersAlone(t *testing.T) {
	const rows, batchRows = 20000, 2000
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 60, 12
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates, gcfg.Seed = rows, 31
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	// csvBodies cuts the corpus into typed-CSV bodies at the given row
	// boundaries.
	csvBodies := func(cuts ...int) [][]byte {
		var out [][]byte
		lo := 0
		for _, hi := range append(cuts, rows) {
			part, err := ds.Table.View(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := part.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
			lo = hi
		}
		return out
	}
	var cuts []int
	for cut := batchRows; cut < rows; cut += batchRows {
		cuts = append(cuts, cut)
	}
	bodies := csvBodies(cuts...)
	load := func(segRows int, bodies [][]byte) *store.Store {
		scfg := store.DefaultConfig()
		scfg.SegmentRows = segRows
		st, err := store.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range bodies {
			if res, err := st.AppendCSV(bytes.NewReader(body)); err != nil || res.Rejected != 0 {
				t.Fatalf("SegmentRows %d: ingest: %+v, %v", segRows, res, err)
			}
		}
		return st
	}

	type node struct {
		layout string
		snap   *store.Snapshot
		srv    http.Handler
	}
	var nodes []node
	publish := func(layout string, st *store.Store) {
		// One K and one restart keep five 20k-row analyses cheap; no answer
		// compared here reads the analysis.
		live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{Analysis: core.AnalysisConfig{KMax: 2, Restarts: 1}})
		if err != nil {
			t.Fatal(err)
		}
		pub, err := live.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewLive(live)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node{layout, pub.Snapshot, srv})
	}
	for _, segRows := range []int{600, 2048, 8192} {
		st := load(segRows, bodies)
		for i, sh := range st.Status().Shards {
			if (sh.Segments >= 2) != (segRows < rows/store.DefaultConfig().Shards) || sh.TailRows >= segRows {
				t.Fatalf("SegmentRows %d: shard %d holds %d sealed segments and %d tail rows", segRows, i, sh.Segments, sh.TailRows)
			}
		}
		publish("SegmentRows "+strconv.Itoa(segRows), st)
	}
	// A single-row tail: two bodies of a quarter of the corpus per shard
	// each seal every shard's tail at the default SegmentRows, and the
	// last row comes alone.
	st := load(2048, csvBodies(rows/2-1, rows-1))
	ones := 0
	for _, sh := range st.Status().Shards {
		if sh.Segments != 2 || sh.TailRows > 1 {
			t.Fatalf("single-row tail layout: a shard holds %d sealed segments and %d tail rows", sh.Segments, sh.TailRows)
		}
		ones += sh.TailRows
	}
	if ones != 1 {
		t.Fatalf("single-row tail layout: %d tail rows, want 1", ones)
	}
	publish("a single-row tail", st)
	// A full tail: the first body seals every shard, and SegmentRows is
	// one more than the most rows the second body routes to one shard.
	fullCut := rows * 3 / 5
	fullBodies := csvBodies(fullCut)
	probe := load(rows, fullBodies[:1])
	before := probe.Status().Shards
	if res, err := probe.AppendCSV(bytes.NewReader(fullBodies[1])); err != nil || res.Rejected != 0 {
		t.Fatalf("probe ingest: %+v, %v", res, err)
	}
	most := 0
	for i, sh := range probe.Status().Shards {
		most = max(most, sh.Rows-before[i].Rows)
	}
	st = load(most+1, fullBodies)
	full := 0
	for _, sh := range st.Status().Shards {
		if sh.Segments != 1 || sh.TailRows > most {
			t.Fatalf("full tail layout, SegmentRows %d: a shard holds %d sealed segments and %d tail rows", most+1, sh.Segments, sh.TailRows)
		}
		if sh.TailRows == most {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("full tail layout: no tail holds SegmentRows-1 = %d rows", most)
	}
	publish("a SegmentRows-1 tail", st)

	// Seeded predicates over every planner road: In on an indexed zone or
	// class (alone or with a range the index cannot vouch for), a numeric
	// range alone (masked scan), and not/or trees pushdown cannot split.
	levels := func(attr string) []string {
		vals, err := ds.Table.Strings(attr)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{"": true}
		var out []string
		for _, v := range vals {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sort.Strings(out)
		return out
	}
	inAttrs := []string{epc.AttrDistrict, epc.AttrNeighbourhood, epc.AttrEnergyClass}
	inLevels := map[string][]string{}
	for _, attr := range inAttrs {
		inLevels[attr] = levels(attr)
	}
	rangeAttrs := []string{epc.AttrEPH, epc.AttrHeatSurface, epc.AttrUWindows}
	bounds, err := nodes[0].snap.Totals(rangeAttrs...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	in := func() query.Predicate {
		attr := inAttrs[rng.Intn(len(inAttrs))]
		vals := inLevels[attr]
		set := []string{vals[rng.Intn(len(vals))]}
		for rng.Intn(2) == 0 {
			set = append(set, vals[rng.Intn(len(vals))])
		}
		return query.In{Attr: attr, Values: set}
	}
	numRange := func() query.Predicate {
		k := rng.Intn(len(rangeAttrs))
		s := bounds[k].S
		width := s.Max - s.Min
		lo := s.Min + width*math.Round(rng.Float64()*600)/1000
		return query.NumRange{Attr: rangeAttrs[k], Min: lo, Max: lo + width*math.Round(1+rng.Float64()*400)/1000}
	}
	type road int
	const (
		indexed road = iota
		masked
		notOr
	)
	type shaped struct {
		p    query.Predicate
		road road
	}
	var preds []shaped
	for len(preds) < 60 {
		switch len(preds) % 4 {
		case 0:
			preds = append(preds, shaped{in(), indexed})
		case 1:
			preds = append(preds, shaped{query.And{in(), numRange()}, indexed})
		case 2:
			preds = append(preds, shaped{numRange(), masked})
		default:
			preds = append(preds, shaped{query.Or{query.Not{P: in()}, numRange()}, notOr})
		}
	}
	specs := []store.AggSpec{
		{Attrs: []string{epc.AttrEPH}},
		{By: epc.AttrEnergyClass, Attrs: []string{epc.AttrEPH, epc.AttrHeatSurface}},
		{By: epc.AttrDistrict, Attrs: []string{epc.AttrEPH}},
	}
	csv := func(tab *table.Table) string {
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	withoutPlan := func(body []byte) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("answer %s: %v", body, err)
		}
		if _, ok := m["plan"]; !ok {
			t.Fatalf("answer without a plan echo: %s", body)
		}
		delete(m, "plan")
		return m
	}

	roads := map[road]int{}
	for i, sp := range preds {
		spec := specs[i%len(specs)]
		res, _, ps, err := nodes[0].snap.QueryShardsPage(sp.p, 0, nodes[0].snap.NumShards(), 2, spec, 0, 0)
		if err != nil {
			t.Fatalf("%v: %v", sp.p, err)
		}
		switch {
		case sp.road == indexed && ps.IndexedShards > 0 && ps.ScannedRows == 0,
			sp.road != indexed && ps.IndexedShards == 0 && ps.ScannedRows > 0:
			roads[sp.road]++
		}
		offsets := []int{0, res.Matched / 2, max(res.Matched-7, 0)}
		for _, offset := range offsets {
			var wantAgg, wantPage string
			var wantBody map[string]json.RawMessage
			target := "/api/query?" + url.Values{
				"attrs": {strings.Join(spec.Attrs, ",")}, "by": {spec.By}, "q": {sp.p.String()},
				"limit": {"20"}, "offset": {strconv.Itoa(offset)},
			}.Encode()
			for _, n := range nodes {
				agg, page, ps, err := n.snap.QueryShardsPage(sp.p, 0, n.snap.NumShards(), 2, spec, offset, 20)
				if err != nil {
					t.Fatalf("%s, %v: %v", n.layout, sp.p, err)
				}
				if ps.MatchedRows != res.Matched {
					t.Fatalf("%s, %v: %d matched, want %d", n.layout, sp.p, ps.MatchedRows, res.Matched)
				}
				rec := httptest.NewRecorder()
				n.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: GET %s: %d %s", n.layout, target, rec.Code, rec.Body)
				}
				gotAgg, gotPage, gotBody := renderAgg(agg), csv(pageTable(t, page)), withoutPlan(rec.Body.Bytes())
				if wantBody == nil {
					wantAgg, wantPage, wantBody = gotAgg, gotPage, gotBody
					continue
				}
				if gotAgg != wantAgg {
					t.Fatalf("%s, %v, by %q: the aggregate differs from %s's", n.layout, sp.p, spec.By, nodes[0].layout)
				}
				if gotPage != wantPage {
					t.Fatalf("%s, %v: the page at offset %d differs", n.layout, sp.p, offset)
				}
				if !reflect.DeepEqual(gotBody, wantBody) {
					t.Fatalf("%s: GET %s: the body differs beside the plan", n.layout, target)
				}
			}
		}
	}
	if roads[indexed] == 0 || roads[masked] == 0 || roads[notOr] == 0 {
		t.Fatalf("planner roads taken as drawn (indexed, masked, not/or): %d, %d, %d", roads[indexed], roads[masked], roads[notOr])
	}
	t.Logf("%d predicates; as drawn, indexed %d, masked %d, not/or %d", len(preds), roads[indexed], roads[masked], roads[notOr])

	sameAccum := func(label string, got, want table.AggAccum) {
		t.Helper()
		if g, w := renderAccum(&got), renderAccum(&want); g != w {
			t.Fatalf("%s: count, extremes, quartiles, sum, mean, stddev\n%s\nwant\n%s", label, g, w)
		}
	}
	for _, spec := range specs {
		var want *store.AggResult
		var wantPages []string
		for _, n := range nodes {
			var pages []string
			var agg *store.AggResult
			for _, offset := range []int{0, rows / 2, rows - 7} {
				res, page, _, err := n.snap.QueryShardsPage(nil, 0, n.snap.NumShards(), 2, spec, offset, 20)
				if err != nil {
					t.Fatal(err)
				}
				agg = res
				pages = append(pages, csv(pageTable(t, page)))
			}
			if want == nil {
				want, wantPages = agg, pages
				continue
			}
			label := n.layout + ", select-all by " + strconv.Quote(spec.By)
			if !reflect.DeepEqual(pages, wantPages) {
				t.Fatalf("%s: pages differ", label)
			}
			if agg.Matched != want.Matched || len(agg.Groups) != len(want.Groups) || len(agg.Totals) != len(want.Totals) {
				t.Fatalf("%s: %d rows in %d groups, want %d in %d", label, agg.Matched, len(agg.Groups), want.Matched, len(want.Groups))
			}
			for k := range want.Totals {
				sameAccum(label+", totals "+spec.Attrs[k], agg.Totals[k], want.Totals[k])
			}
			for g, wg := range want.Groups {
				gg := agg.Groups[g]
				if gg.Key != wg.Key || gg.Rows != wg.Rows {
					t.Fatalf("%s: group %q of %d rows, want %q of %d", label, gg.Key, gg.Rows, wg.Key, wg.Rows)
				}
				for k := range wg.Attrs {
					sameAccum(label+", group "+wg.Key+" "+spec.Attrs[k], gg.Attrs[k], wg.Attrs[k])
				}
			}
		}
	}
}

// pageTable materializes a row page's runs as a table with the
// encodings' schema; an empty page is an empty table.
func pageTable(t testing.TB, page []store.PageRun) *table.Table {
	t.Helper()
	if len(page) == 0 {
		return table.New()
	}
	out, err := table.NewWithSchema(page[0].Enc.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range page {
		if err := run.AppendTo(out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// pageLen counts a row page's rows.
func pageLen(page []store.PageRun) int {
	n := 0
	for _, run := range page {
		for _, w := range run.Words {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// renderAccum prints what an answer renders of an accumulator — the
// count, the sum, mean and standard deviation, the extremes and the
// sketch's quartiles — each float by its bits, so that two accumulators
// compare by value whatever digits their exact sums carry.
func renderAccum(a *table.AggAccum) string {
	out := strconv.Itoa(a.Count())
	for _, v := range []float64{a.Sum(), a.Mean(), a.StdDev(), a.S.Min, a.S.Max, a.S.Quantile(0.25), a.S.Quantile(0.5), a.S.Quantile(0.75), a.S.Quantile(0.9)} {
		out += " " + strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out
}

// renderAgg prints an aggregate as renderAccum prints its accumulators.
func renderAgg(res *store.AggResult) string {
	out := "matched " + strconv.Itoa(res.Matched)
	for k := range res.Totals {
		out += "; " + renderAccum(&res.Totals[k])
	}
	for _, g := range res.Groups {
		out += "; " + strconv.Quote(g.Key) + " " + strconv.Itoa(g.Rows)
		for k := range g.Attrs {
			out += ": " + renderAccum(&g.Attrs[k])
		}
	}
	return out
}
