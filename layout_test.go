package indice

import (
	"bytes"
	"encoding/json"
	"math"
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
// (the default) and 8 192 rows — many small segments, two per shard, raw
// tails only — and holds every answer of one layout against the others'.
// A predicated query folds its matches in row order within each shard
// whatever the segments, so its totals, groups and pages are bitwise
// equal, and so are its /api/query bodies once the plan echo is set aside.
// A select-all folds one partial per segment: counts, extremes and sketch
// quartiles are exact, sums, means and standard deviations agree to 1e-12.
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
	var bodies [][]byte
	for lo := 0; lo < rows; lo += batchRows {
		part, err := ds.Table.View(lo, lo+batchRows)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := part.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}

	type node struct {
		segRows int
		snap    *store.Snapshot
		srv     http.Handler
	}
	var nodes []node
	for _, segRows := range []int{600, 2048, 8192} {
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
		for i, sh := range st.Status().Shards {
			if (sh.Segments >= 2) != (segRows < rows/scfg.Shards) || sh.TailRows >= segRows {
				t.Fatalf("SegmentRows %d: shard %d holds %d sealed segments and %d tail rows", segRows, i, sh.Segments, sh.TailRows)
			}
		}
		live, err := core.NewLive(st, city.Hierarchy, core.LiveConfig{SkipAnalysis: true})
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
		nodes = append(nodes, node{segRows, pub.Snapshot, srv})
	}

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
		attr := rangeAttrs[rng.Intn(len(rangeAttrs))]
		s, _ := nodes[0].snap.Stats(attr)
		width := s.Max - s.Min
		lo := s.Min + width*math.Round(rng.Float64()*600)/1000
		return query.NumRange{Attr: attr, Min: lo, Max: lo + width*math.Round(1+rng.Float64()*400)/1000}
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
	dump := func(v any) string {
		var buf bytes.Buffer
		dumpValue(&buf, reflect.ValueOf(v))
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
					t.Fatalf("SegmentRows %d, %v: %v", n.segRows, sp.p, err)
				}
				if ps.MatchedRows != res.Matched {
					t.Fatalf("SegmentRows %d, %v: %d matched, want %d", n.segRows, sp.p, ps.MatchedRows, res.Matched)
				}
				rec := httptest.NewRecorder()
				n.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("SegmentRows %d: GET %s: %d %s", n.segRows, target, rec.Code, rec.Body)
				}
				gotAgg, gotPage, gotBody := dump(agg), csv(page), withoutPlan(rec.Body.Bytes())
				if wantBody == nil {
					wantAgg, wantPage, wantBody = gotAgg, gotPage, gotBody
					continue
				}
				if gotAgg != wantAgg {
					t.Fatalf("SegmentRows %d, %v, by %q: the aggregate differs from SegmentRows %d's", n.segRows, sp.p, spec.By, nodes[0].segRows)
				}
				if gotPage != wantPage {
					t.Fatalf("SegmentRows %d, %v: the page at offset %d differs", n.segRows, sp.p, offset)
				}
				if !reflect.DeepEqual(gotBody, wantBody) {
					t.Fatalf("SegmentRows %d: GET %s: the body differs beside the plan", n.segRows, target)
				}
			}
		}
	}
	if roads[indexed] == 0 || roads[masked] == 0 || roads[notOr] == 0 {
		t.Fatalf("planner roads taken as drawn (indexed, masked, not/or): %d, %d, %d", roads[indexed], roads[masked], roads[notOr])
	}
	t.Logf("%d predicates; as drawn, indexed %d, masked %d, not/or %d", len(preds), roads[indexed], roads[masked], roads[notOr])

	closeTo := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	sameAccum := func(label string, got, want table.AggAccum) {
		t.Helper()
		if got.R.Count != want.R.Count || got.R.Min != want.R.Min || got.R.Max != want.R.Max || got.S.Count() != want.S.Count() {
			t.Fatalf("%s: count/min/max %d/%v/%v, want %d/%v/%v", label, got.R.Count, got.R.Min, got.R.Max, want.R.Count, want.R.Min, want.R.Max)
		}
		for _, q := range []float64{0.25, 0.5, 0.75} {
			if g, w := got.S.Quantile(q), want.S.Quantile(q); g != w {
				t.Fatalf("%s: quantile %g %v, want %v", label, q, g, w)
			}
		}
		if !closeTo(got.Sum, want.Sum) || !closeTo(got.Mean(), want.Mean()) || !closeTo(got.R.StdDev(), want.R.StdDev()) {
			t.Fatalf("%s: sum/mean/stddev %v/%v/%v, want %v/%v/%v within 1e-12", label,
				got.Sum, got.Mean(), got.R.StdDev(), want.Sum, want.Mean(), want.R.StdDev())
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
				pages = append(pages, csv(page))
			}
			if want == nil {
				want, wantPages = agg, pages
				continue
			}
			label := "SegmentRows " + strconv.Itoa(n.segRows) + ", select-all by " + strconv.Quote(spec.By)
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
