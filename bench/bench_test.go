package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"indice/internal/query"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the traced suite re-executes itself as the canned server.
func TestMain(m *testing.M) {
	if dir := os.Getenv(cannedEnv); dir != "" {
		fatal(serveCanned(dir))
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(vals, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if vals[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single value p99 = %v", got)
	}
}

// The driver measures spread with Python's statistics.quantiles(n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 1})
	if !near(q1, -1.25) || !near(q2, 5.5) || !near(q3, 12.25) {
		t.Errorf("quartiles(1,10) = %v %v %v, want -1.25 5.5 12.25", q1, q2, q3)
	}
}

func TestCompositeP50(t *testing.T) {
	var s samples
	for _, ms := range []float64{1, 1, 1, 9, 9, 9} {
		g := 0
		if ms > 5 {
			g = 1
		}
		s.add(g, durMS(ms), 10)
	}
	if got, err := s.p50(nil); err != nil || !near(got, 5) {
		t.Errorf("equal-weight composite = %v, %v; want 5", got, err)
	}
	if got, err := s.p50(map[int]float64{0: 3, 1: 1}); err != nil || !near(got, 3) {
		t.Errorf("weighted composite = %v, %v; want 3", got, err)
	}
	if _, err := s.p50(map[int]float64{0: 1, 2: 1}); err == nil {
		t.Error("a group without samples did not fail the composite")
	}
}

func TestParseScrape(t *testing.T) {
	before := parseScrape([]byte("# TYPE x counter\nx 3\nh_sum{route=\"/a\"} 0.5\nh_count{route=\"/a\"} 5\n"))
	after := parseScrape([]byte("x 10\nh_sum{route=\"/a\"} 2.5\nh_count{route=\"/a\"} 9\n"))
	if d := after.since(before, "x"); d != 7 {
		t.Errorf("counter delta = %v", d)
	}
	if mean, n := after.meanSince(before, `h{route="/a"}`); !near(mean, 0.5) || n != 4 {
		t.Errorf("histogram mean since = %v over %v", mean, n)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	stream := func(seed int64) []byte {
		c, err := newCorpus(seed, 400, 100)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		batches, err := c.csvBatches(0, c.rows(), 250)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range batches {
			b.Write(body)
		}
		g := newColdGen(c, streamSeed(seed, 0))
		for i := 0; i < 200; i++ {
			b.WriteString(g.next(i%2 == 1).path)
			b.WriteByte('\n')
		}
		for _, r := range hotRequests(c) {
			b.WriteString(r.path)
		}
		return b.Bytes()
	}
	a, again, other := stream(5), stream(5), stream(6)
	if !bytes.Equal(a, again) {
		t.Error("the same seed produced different request bytes")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds produced the same request bytes")
	}
}

// The oracle shares no code with internal/query; here the two are held
// against each other on a small corpus, which also proves the DSL text
// the generator renders parses to the predicate it means.
func TestOracleAgreesWithQueryPackage(t *testing.T) {
	c, err := newCorpus(3, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := newColdGen(c, 11)
	shapes := make(map[int]int)
	for i := 0; i < 300; i++ {
		r := g.next(i%2 == 1)
		shapes[r.group]++
		pred, err := query.Parse(r.q)
		if err != nil {
			t.Fatalf("%s: %v", r.q, err)
		}
		matched, err := query.Select(c.tab, pred)
		if err != nil {
			t.Fatalf("%s: %v", r.q, err)
		}
		want, err := c.count(r.pred, c.rows())
		if err != nil {
			t.Fatal(err)
		}
		if matched.NumRows() != want {
			t.Fatalf("%s: query package matches %d rows, row loop %d", r.q, matched.NumRows(), want)
		}
	}
	for s := 0; s < numShapes; s++ {
		if shapes[s] == 0 {
			t.Errorf("shape %d never drawn in 300 requests", s)
		}
	}
}

func TestReconcileOnCannedSpans(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := readSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := budgetOf(spans, statsMiss)
	if err != nil {
		t.Fatal(err)
	}
	// Shape shares 0.4/0.4/0.2 weigh the per-shape medians: client
	// 0.4*4+0.4*8+0.2*6; the socket is 0.5 above the handler on every
	// shape, of which 0.2 is in-process transport, replaced by the 0.5 of
	// the transport between processes.
	want := budget{Class: statsMiss, Client: 6, Socket: 5.5, HTTP: 0.8, Floor: 0.5, FloorIn: 0.2, Handler: 5, Parse: 0.1, Inner: 4,
		ServerSelf: 0.9, Reconcile: 5.8 / 6}
	for _, pair := range [][2]float64{{b.Client, want.Client}, {b.Socket, want.Socket}, {b.HTTP, want.HTTP}, {b.Floor, want.Floor},
		{b.FloorIn, want.FloorIn}, {b.Handler, want.Handler}, {b.Parse, want.Parse}, {b.Inner, want.Inner},
		{b.ServerSelf, want.ServerSelf}, {b.Reconcile, want.Reconcile}} {
		if !near(pair[0], pair[1]) {
			t.Fatalf("stats_miss budget = %+v, want %+v", b, want)
		}
	}
	b, err = budgetOf(spans, rowsHit)
	if err != nil {
		t.Fatal(err)
	}
	// Equal weights over the two URLs: client (10+6)/2, socket (11+5)/2,
	// handler (8+4)/2, floor (3+1)/2, in-process floor (2+1)/2.
	if !near(b.Client, 8) || !near(b.Socket, 8) || !near(b.HTTP, 2.5) || !near(b.Floor, 2) || !near(b.FloorIn, 1.5) ||
		!near(b.ServerSelf, 6) || !near(b.Reconcile, 8.5/8) {
		t.Errorf("rows_hit budget = %+v, want client 8, socket 8, http 2.5, floors 2 and 1.5, server.self 6, reconcile 1.0625", b)
	}
	if _, err := budgetOf(spans, pageClass); err == nil {
		t.Error("a class without spans produced a budget")
	}
	// What writeSpans writes, readSpans reads.
	out := filepath.Join(t.TempDir(), "again.jsonl")
	if err := writeSpans(out, spans); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	again, err := readSpans(g)
	if err != nil || len(again) != len(spans) || again[5] != spans[5] {
		t.Errorf("span file did not round-trip: %v", err)
	}
}

// BENCHMARK.json is written by hand; the tables in the code are what the
// benchmark prints. They must name the same things.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var listed []workload
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w)
		}
	}
	if len(doc.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in the code", len(doc.Workloads), len(listed))
	}
	for i, w := range listed {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, %d in the code", doc.RunSeconds, runSeconds)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
}

// TestSmoke runs all four workloads and the traced suite at -smoke size
// against the real binary: every check in them stays alive.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real server binary")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer killAll()
	defer cleanTemp()
	opts := options{seed: 1, seconds: 1, smoke: true, root: root, log: io.Discard}
	if testing.Verbose() {
		opts.log = os.Stderr
	}
	for _, w := range workloads {
		opts.workload = w.name
		res, err := runOnce(opts)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for name, v := range res.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v.Value)
			}
		}
	}
	opts.workload, opts.trace = "explore_cold", true
	res, err := runOnce(opts)
	if err != nil {
		t.Fatalf("traced suite: %v", err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced suite: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced suite: %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("traced suite: %s = %v", name, v.Value)
		}
	}
}

func durMS(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
