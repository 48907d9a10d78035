package main

import (
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"indice/internal/epc"
)

// class names a kind of request; per-layer metrics are keyed by it.
type class string

const (
	statsHit  class = "stats_hit"
	rowsHit   class = "rows_hit"
	statsMiss class = "stats_miss"
	rowsMiss  class = "rows_miss"
	pageClass class = "page"
	mapClass  class = "map"
	ingestCls class = "ingest"
	refreshCl class = "refresh"
)

// expr is the benchmark's own predicate tree: it renders the DSL text a
// request carries and evaluates the same predicate over the corpus
// columns, so the answer check shares no code with internal/query. The
// generated corpus has no missing cells, so two-valued logic is exact.
type expr struct {
	op     string // "range", "in", "and", "or", "not"
	attr   string
	lo, hi float64
	values []string
	kids   []*expr
}

func rangeExpr(attr string, lo, hi float64) *expr {
	return &expr{op: "range", attr: attr, lo: lo, hi: hi}
}

func inExpr(attr string, values ...string) *expr {
	return &expr{op: "in", attr: attr, values: values}
}

func num(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

func (e *expr) text() string {
	switch e.op {
	case "range":
		if math.IsInf(e.hi, 1) {
			return e.attr + " >= " + num(e.lo)
		}
		return e.attr + " in [" + num(e.lo) + ", " + num(e.hi) + "]"
	case "in":
		q := make([]string, len(e.values))
		for i, v := range e.values {
			q[i] = strconv.Quote(v)
		}
		return e.attr + " in {" + strings.Join(q, ", ") + "}"
	case "not":
		return "not (" + e.kids[0].text() + ")"
	default:
		parts := make([]string, len(e.kids))
		for i, k := range e.kids {
			parts[i] = "(" + k.text() + ")"
		}
		return strings.Join(parts, " "+e.op+" ")
	}
}

func (e *expr) eval(c *corpus, r int) bool {
	switch e.op {
	case "range":
		v := c.nums[e.attr][r]
		return v >= e.lo && v <= e.hi
	case "in":
		v := c.cats[e.attr][r]
		for _, w := range e.values {
			if v == w {
				return true
			}
		}
		return false
	case "not":
		return !e.kids[0].eval(c, r)
	case "and":
		for _, k := range e.kids {
			if !k.eval(c, r) {
				return false
			}
		}
		return true
	default:
		for _, k := range e.kids {
			if k.eval(c, r) {
				return true
			}
		}
		return false
	}
}

// request is one generated /api/query call. group keys the composite
// median: the URL index for the fixed set, the predicate shape for the
// cold stream. Cold requests also carry their parts, for the traced
// run's direct calls into query and store.
type request struct {
	class class
	group int
	path  string
	pred  *expr
	q     string
	attrs []string
	by    string
	limit int
}

// queryPath renders a GET /api/query path with its parameters in a fixed
// order.
func queryPath(kv ...string) string {
	v := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] != "" {
			v.Set(kv[i], kv[i+1])
		}
	}
	return "/api/query?" + v.Encode()
}

// hotRequests are dash_hot's eight fixed queries: the four shapes
// epcgen -load cycles plus four DSL shapes, half stats-shaped (limit=0),
// half row pages. They do not depend on the seed; the corpus they run
// over does.
func hotRequests(c *corpus) []request {
	d := c.levels[epc.AttrDistrict]
	reqs := []request{
		{class: statsHit, path: queryPath("preset", "public-administration", "by", "district")},
		{class: rowsHit, path: queryPath("preset", "citizen", "limit", "100")},
		{class: statsHit, path: queryPath("preset", "energy-scientist", "by", "energy_class")},
		{class: rowsHit, path: queryPath("attrs", "eph", "by", "energy_class", "limit", "50")},
		{class: statsHit, path: queryPath("attrs", "eph,u_windows", "by", "district",
			"q", "energy_class in {C, D} and eph in [50, 150]")},
		{class: rowsHit, path: queryPath("attrs", "eph", "limit", "20",
			"q", inExpr(epc.AttrDistrict, d[0]).text()+" and heat_surface in [60, 120]")},
		{class: statsHit, path: queryPath("attrs", "eph",
			"q", "not (energy_class in {A1, B}) or eph >= 300")},
		{class: rowsHit, path: queryPath("preset", "citizen", "limit", "20", "q", "u_windows >= 3")},
	}
	for i := range reqs {
		reqs[i].group = i
	}
	return reqs
}

// visitPaths is one dashboard visit: the index, the three stakeholder
// dashboards and the energy map at three zoom levels.
var visitPaths = []string{
	"/",
	"/dashboard/citizen",
	"/dashboard/public-administration",
	"/dashboard/energy-scientist",
	"/map?level=city",
	"/map?level=district",
	"/map?level=neighbourhood",
}

// visitClass is the class of the i-th request of a visit: the index
// page is its own class, so that "page" means a stakeholder dashboard.
func visitClass(i int) class {
	switch {
	case i == 0:
		return "index"
	case i <= 3:
		return pageClass
	}
	return mapClass
}

// Cold predicate shapes and their shares of the stream.
const (
	shapeIndexed = iota // In on an indexed attribute AND a numeric range, ~5 % selective
	shapeRange          // numeric range only, 20-60 % selective: masked scan
	shapeKleene         // not / or: defeats pushdown
	numShapes
)

var shapeShares = [numShapes]float64{0.4, 0.4, 0.2}

// coldGen produces the never-repeating predicate stream of explore_cold,
// live_mixed and cluster_cold. Everything derives from the seed given to
// newColdGen.
type coldGen struct {
	rng  *rand.Rand
	c    *corpus
	seen map[string]bool
}

func newColdGen(c *corpus, seed int64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed)), c: c, seen: make(map[string]bool)}
}

// bound returns the attribute's value at quantile q, moved by up to nine
// thousandths so that bounds differ between requests of equal quantile.
func (g *coldGen) bound(attr string, q float64) float64 {
	v := g.c.quantileBound(attr, q) + float64(g.rng.Intn(10))/1000
	// Round-trip through the text the server will parse, so the oracle
	// and the server compare against the same float.
	f, _ := strconv.ParseFloat(num(v), 64)
	return f
}

func (g *coldGen) span(width float64) *expr {
	attr := rangeAttrs[g.rng.Intn(len(rangeAttrs))]
	start := g.rng.Float64() * (1 - width)
	return rangeExpr(attr, g.bound(attr, start), g.bound(attr, start+width))
}

func (g *coldGen) member(attr string, k int) *expr {
	lv := g.c.levels[attr]
	if k > len(lv) {
		k = len(lv)
	}
	perm := g.rng.Perm(len(lv))[:k]
	vals := make([]string, k)
	for i, p := range perm {
		vals[i] = lv[p]
	}
	return inExpr(attr, vals...)
}

func (g *coldGen) predicate() (*expr, int) {
	u := g.rng.Float64()
	switch {
	case u < shapeShares[shapeIndexed]:
		attr := inAttrs[g.rng.Intn(len(inAttrs))]
		k := 2
		if attr == epc.AttrDistrict {
			k = 1
		}
		return &expr{op: "and", kids: []*expr{g.member(attr, k), g.span(0.4)}}, shapeIndexed
	case u < shapeShares[shapeIndexed]+shapeShares[shapeRange]:
		return g.span(0.2 + 0.4*g.rng.Float64()), shapeRange
	}
	if g.rng.Intn(2) == 0 {
		tail := rangeExpr(epc.AttrEPH, g.bound(epc.AttrEPH, 0.85+0.1*g.rng.Float64()), math.Inf(1))
		neg := &expr{op: "not", kids: []*expr{g.member(epc.AttrEnergyClass, 2)}}
		return &expr{op: "or", kids: []*expr{neg, tail}}, shapeKleene
	}
	return &expr{op: "or", kids: []*expr{g.span(0.15), g.span(0.15)}}, shapeKleene
}

// next returns the stream's next request: stats-shaped (limit=0, 1-3
// attributes, by= on half) or a limit=20 row page.
func (g *coldGen) next(rows bool) request {
	for {
		e, shape := g.predicate()
		q := e.text()
		if g.seen[q] {
			continue
		}
		g.seen[q] = true
		if rows {
			attr := statAttrs[g.rng.Intn(len(statAttrs))]
			return request{class: rowsMiss, group: shape, pred: e, q: q, attrs: []string{attr}, limit: 20,
				path: queryPath("attrs", attr, "limit", "20", "q", q)}
		}
		n := 1 + g.rng.Intn(3)
		perm := g.rng.Perm(len(statAttrs))[:n]
		attrs := make([]string, n)
		for i, p := range perm {
			attrs[i] = statAttrs[p]
		}
		by := ""
		if g.rng.Intn(2) == 0 {
			by = byAttrs[g.rng.Intn(len(byAttrs))]
		}
		return request{class: statsMiss, group: shape, pred: e, q: q, attrs: attrs, by: by,
			path: queryPath("attrs", strings.Join(attrs, ","), "by", by, "q", q)}
	}
}

// streamSeed derives the seed of one client's cold stream from the run
// seed, so the two clients never draw the same predicates.
func streamSeed(seed int64, client int) int64 {
	return seed*1000003 + int64(client)*7919 + 17
}
