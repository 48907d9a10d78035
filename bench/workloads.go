package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"time"
)

// workload is one traffic mix over one topology. The driver's runs
// (BENCHMARK.json) cover the listed ones; the others run on request and
// in the smoke test.
type workload struct {
	name   string
	why    string
	listed bool
	run    func(*harness) (*outcome, error)
}

// cluster_cold is not listed: five processes on two cores measure the
// host's scheduler more than the fan-out path, and the time the driver
// allows goes further spent on longer runs of three workloads (README.md,
// "Noise"). The traced suite measures the scaleout layer in-process.
var workloads = []workload{
	{"dash_hot", "20k rows; repeat traffic on one epoch: 8 fixed queries at 100 % cache hits, then dashboard visits; only server, core.Dashboard and render work, store idle", true, (*harness).dashHot},
	{"explore_cold", "20k rows; every query a new seeded predicate, so cache and single-flight never hit: parse, plan, index or masked scan, aggregate or materialize, encode", true, (*harness).exploreCold},
	{"live_mixed", "20k rows; durable node (-fsync always): paced 250-row ingest and incremental refresh beside the cold query stream, then kill -9 and recovery", true, (*harness).liveMixed},
	{"cluster_cold", "20k rows; leader, 2 replicas and coordinator as four processes: the cold stream through scatter-gather, two legs and a merge per query", false, (*harness).clusterCold},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one repetition, or one run as the combination of its
// repetitions, measured. e2e holds the end-to-end metrics (a repetition
// leaves setup_s to repeat and step_p50_ms to combine, which computes
// it from stats and rows, the repetition's query samples); extra holds
// workload-specific client-side numbers and server counters, printed
// for the reader and gated by nothing.
type outcome struct {
	e2e       map[string]float64
	extra     map[string]float64
	attempted int
	failed    int
	problems  []string
	stats     *samples
	rows      *samples
	classes   [2]class        // of stats and rows
	weights   map[int]float64 // of the composite median; nil for equal
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// finish fills what every workload shares from the query tally of its
// window.
func (o *outcome) finish(t *tally, seconds float64, statsClass, rowsClass class, weights map[int]float64, rssMB float64) {
	o.attempted += t.attempted
	o.failed += t.failed
	o.problems = append(o.problems, t.problems...)
	o.stats, o.rows, o.weights = t.of(statsClass), t.of(rowsClass), weights
	o.classes = [2]class{statsClass, rowsClass}
	o.e2e = map[string]float64{"peak_rss_mb": rssMB}
	o.extra["client.query_qps"] = float64(o.stats.n+o.rows.n) / seconds
	for _, c := range []class{statsClass, rowsClass} {
		s := t.of(c)
		o.extra["client.p99_ms."+string(c)] = quantile(s.all(), 0.99)
		o.extra["client.resp_bytes."+string(c)] = s.meanBytes()
		o.extra["client.samples."+string(c)] = float64(s.n)
	}
	o.extra["client.answers_checked"] = float64(t.checked)
}

// cacheRatio is the query result cache's hit share between two scrapes.
func cacheRatio(before, after scrape) float64 {
	hits := after.since(before, "indice_query_cache_hits_total")
	misses := after.since(before, "indice_query_cache_misses_total")
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// serverSide adds the counters every window reads from /metrics.
func (o *outcome) serverSide(before, after scrape) {
	o.extra["server.cache_hit_ratio"] = cacheRatio(before, after)
	o.extra["server.coalesced"] = after.since(before, "indice_query_coalesced_total")
	if mean, n := after.meanSince(before, `indice_http_request_seconds{route="/api/query"}`); n > 0 {
		o.extra["server.route_ms.query"] = mean * 1000
	}
	if matched := after.since(before, "indice_query_rows_returned_total"); matched > 0 {
		o.extra["store.scanned_rows_per_matched"] = after.since(before, "indice_query_rows_scanned_total") / matched
	}
}

// warmCold sends 16 cold requests per client from streams the window
// never draws from.
func (h *harness) warmCold(t *topology) error {
	for k := 0; k < numClients; k++ {
		c := newClient(t.query.url())
		g := newColdGen(h.c, streamSeed(h.seed, 100+k))
		for i := 0; i < 16; i++ {
			if _, _, err := c.mustOK(http.MethodGet, g.next(i%2 == 1).path, "", nil); err != nil {
				c.close()
				return err
			}
		}
		c.close()
	}
	return nil
}

func (h *harness) dashHot() (*outcome, error) {
	hot := hotRequests(h.c)
	refs := make(map[string][]byte)
	warm := func(t *topology) error {
		c := newClient(t.query.url())
		defer c.close()
		for _, r := range hot {
			first, _, err := c.mustOK(http.MethodGet, r.path, "", nil)
			if err != nil {
				return err
			}
			first = append([]byte(nil), first...)
			second, _, err := c.mustOK(http.MethodGet, r.path, "", nil)
			if err != nil {
				return err
			}
			if same, err := sameButCached(first, second); err != nil || !same {
				return fmt.Errorf("%s: computed and cached answers differ beyond \"cached\" (%v)", r.path, err)
			}
			refs[r.path] = append([]byte(nil), second...)
		}
		for _, p := range visitPaths {
			body, _, err := c.mustOK(http.MethodGet, p, "", nil)
			if err != nil {
				return err
			}
			refs[p] = append([]byte(nil), body...)
		}
		return nil
	}
	return h.repeat(func() (*topology, error) { return h.bootSingle(false) }, warm,
		func(t *topology, _ bool) (*outcome, error) { return h.hotWindow(t, hot, refs) })
}

// hotWindow is one repetition of dash_hot on a warmed node. refs holds
// the answer every path gave in warm-up.
func (h *harness) hotWindow(t *topology, hot []request, refs map[string][]byte) (*outcome, error) {
	o := &outcome{extra: make(map[string]float64)}

	// Phase A: both clients cycle the eight fixed queries, starting half
	// a cycle apart.
	before, err := t.scrape()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(h.window * 6 / 10)
	queries, tookA := inParallel(t.query.url(), func(k int, c *client, tl *tally) {
		for i := k * len(hot) / numClients; time.Now().Before(deadline); i++ {
			r := hot[i%len(hot)]
			if body, _, ok := tl.fetch(c, r.class, r.group, r.path); ok && !bytes.Equal(body, refs[r.path]) {
				tl.problem("%s: answer differs from the cached answer seen in warm-up", r.path)
			}
		}
	})
	mid, err := t.scrape()
	if err != nil {
		return nil, err
	}
	o.serverSide(before, mid)
	if r := o.extra["server.cache_hit_ratio"]; r < 0.99 {
		o.problem("dash_hot phase A cache hit ratio %.4f, want >= 0.99: the fixed queries are not repeating", r)
	}

	// Phase B: both clients repeat the seven-request visit.
	deadline = time.Now().Add(h.window * 4 / 10)
	visits, _ := inParallel(t.query.url(), func(k int, c *client, tl *tally) {
		for time.Now().Before(deadline) {
			var visit time.Duration
			whole := true
			for i, p := range visitPaths {
				cl := visitClass(i)
				body, took, ok := tl.fetch(c, cl, i, p)
				if !ok {
					whole = false
					continue
				}
				visit += took
				if !bytes.Equal(body, refs[p]) {
					tl.problem("%s: page differs from the one seen in warm-up", p)
				}
			}
			if whole {
				tl.of("visit").add(0, visit, 0)
			}
		}
	})
	if err := t.alive(); err != nil {
		return nil, err
	}
	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.finish(queries, tookA.Seconds(), statsHit, rowsHit, nil, rss)
	o.attempted += visits.attempted
	o.failed += visits.failed
	o.problems = append(o.problems, visits.problems...)
	v := visits.of("visit")
	if v.n == 0 {
		return nil, fmt.Errorf("no dashboard visit completed inside %v", h.window*4/10)
	}
	o.extra["client.visit_p50_ms"] = quantile(v.all(), 0.5)
	o.extra["client.samples.visit"] = float64(v.n)
	o.extra["client.resp_bytes.page"] = visits.of(pageClass).meanBytes()
	return o, nil
}

func (h *harness) exploreCold() (*outcome, error) {
	return h.repeat(func() (*topology, error) { return h.bootSingle(false) }, h.warmCold,
		func(t *topology, _ bool) (*outcome, error) { return h.coldOutcome(t, false) })
}

func (h *harness) clusterCold() (*outcome, error) {
	return h.repeat(h.bootCluster, h.warmCold,
		func(t *topology, _ bool) (*outcome, error) { return h.coldOutcome(t, true) })
}

// coldOutcome runs the cold window on a booted topology and checks that
// the result cache stayed out of it.
func (h *harness) coldOutcome(t *topology, cluster bool) (*outcome, error) {
	o := &outcome{extra: make(map[string]float64)}
	before, err := t.scrape()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(h.window)
	queries, took := inParallel(t.query.url(), func(k int, c *client, tl *tally) {
		h.coldLoop(c, newColdGen(h.c, streamSeed(h.seed, k)), tl, cluster, k, until(deadline))
	})
	if err := t.alive(); err != nil {
		return nil, err
	}
	after, err := t.scrape()
	if err != nil {
		return nil, err
	}
	o.serverSide(before, after)
	if r := o.extra["server.cache_hit_ratio"]; r > 0.01 {
		o.problem("cold window cache hit ratio %.4f, want <= 0.01: the predicate stream repeats", r)
	}
	if cluster {
		o.extra["scaleout.hedges"] = after.since(before, "indice_coord_hedges_total")
		o.extra["scaleout.degraded"] = after.since(before, "indice_coord_degraded_total")
		if q := float64(queries.attempted - queries.failed); q > 0 {
			o.extra["scaleout.legs_per_query"] = after.since(before, "indice_coord_fanout_total") / q
		}
		if d := o.extra["scaleout.degraded"]; d != 0 {
			o.problem("%v coordinator answers degraded, want 0", d)
		}
	}
	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.finish(queries, took.Seconds(), statsMiss, rowsMiss, coldWeights(), rss)
	return o, nil
}

var recoveredLine = regexp.MustCompile(`recovered \S+ (\d+) rows from \d+ checkpoint segments, \d+ batches \((\d+) rows\) replayed`)

func (h *harness) liveMixed() (*outcome, error) {
	deltas, err := h.c.csvBatches(h.c.base, h.c.rows(), deltaBatchRows)
	if err != nil {
		return nil, err
	}
	return h.repeat(func() (*topology, error) { return h.bootSingle(true) }, h.warmCold,
		func(t *topology, last bool) (*outcome, error) { return h.mixedWindow(t, deltas, last) })
}

// mixedWindow is one repetition of live_mixed on a warmed durable node;
// the last repetition of a run ends with the crash-and-recover check.
func (h *harness) mixedWindow(t *topology, deltas [][]byte, crash bool) (*outcome, error) {
	perCycle := batchesPerCycle(h.c.base)
	cycles := len(deltas) / perCycle
	o := &outcome{extra: make(map[string]float64)}
	before, err := t.scrape()
	if err != nil {
		return nil, err
	}

	// Client W: the cycles spread evenly over the window, each a burst of
	// back-to-back batches and a refresh; a cycle that overruns its slot
	// is followed at once by the next. Client R: the cold stream until the
	// window ends and the writer is done.
	start := time.Now()
	deadline := start.Add(h.window)
	writerDone := make(chan struct{})
	acked := h.c.base
	csvBytes := 0
	for _, b := range h.load {
		csvBytes += len(b)
	}
	writes := newTally()
	var writeErr error
	go func() {
		defer close(writerDone)
		c := newClient(t.ingest.url())
		defer c.close()
		for cycle := 0; cycle < cycles; cycle++ {
			if wait := time.Until(start.Add(h.window * time.Duration(cycle) / time.Duration(cycles))); wait > 0 {
				time.Sleep(wait)
			}
			for _, body := range deltas[cycle*perCycle : (cycle+1)*perCycle] {
				writes.attempted++
				status, answer, took, err := c.post("/api/ingest", "text/csv", body)
				if err != nil || status != http.StatusOK {
					writes.failed++
					writeErr = fmt.Errorf("ingest: status %d, error %v", status, err)
					return
				}
				var ack ingestAck
				if err := json.Unmarshal(answer, &ack); err != nil {
					writeErr = fmt.Errorf("ingest ack: %w", err)
					return
				}
				acked += ack.Accepted
				csvBytes += len(body)
				if ack.Accepted != deltaBatchRows || ack.Rows != acked {
					writes.problem("ingest ack %+v, want %d accepted and %d rows", ack, deltaBatchRows, acked)
				}
				writes.of(ingestCls).add(0, took, len(answer))
			}
			writes.attempted++
			took, err := refresh(c, acked)
			if err != nil {
				writes.failed++
				writeErr = err
				return
			}
			writes.of(refreshCl).add(0, took, 0)
			answer, _, err := c.mustOK(http.MethodGet, "/api/store", "", nil)
			if err != nil {
				writeErr = err
				return
			}
			var st struct {
				Published struct {
					Incremental bool `json:"incremental"`
				} `json:"published"`
			}
			if err := json.Unmarshal(answer, &st); err != nil || !st.Published.Incremental {
				writes.problem("refresh %d was not incremental (%v)", cycle+1, err)
			}
		}
	}()
	reads := newTally()
	rc := newClient(t.query.url())
	h.coldLoop(rc, newColdGen(h.c, streamSeed(h.seed, 0)), reads, false, 0, func() bool {
		select {
		case <-writerDone:
			return !time.Now().Before(deadline)
		default:
			return false
		}
	})
	rc.close()
	took := time.Since(start)
	<-writerDone
	if writeErr != nil {
		return nil, fmt.Errorf("live_mixed writer: %w", writeErr)
	}
	if err := t.alive(); err != nil {
		return nil, err
	}
	after, err := t.scrape()
	if err != nil {
		return nil, err
	}
	o.serverSide(before, after)
	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.finish(reads, took.Seconds(), statsMiss, rowsMiss, coldWeights(), rss)
	o.attempted += writes.attempted
	o.failed += writes.failed
	o.problems = append(o.problems, writes.problems...)
	ing, ref := writes.of(ingestCls), writes.of(refreshCl)
	o.extra["client.ingest_ack_p50_ms"] = quantile(ing.all(), 0.5)
	o.extra["client.ingest_ack_p99_ms"] = quantile(ing.all(), 0.99)
	o.extra["client.refresh_p50_ms"] = quantile(ref.all(), 0.5)
	o.extra["client.samples.ingest"] = float64(ing.n)
	o.extra["client.samples.refresh"] = float64(ref.n)
	o.extra["store.checkpoints"] = after.since(before, "indice_store_checkpoints_total")
	disk, err := dirBytes(t.dataDir)
	if err != nil {
		return nil, err
	}
	o.extra["store.disk_amp"] = float64(disk) / float64(csvBytes)

	if !crash {
		return o, nil
	}
	// Crash and recover: every acked row must come back. The restarted
	// node is only kept until it has printed what it recovered; its first
	// refresh is not waited for.
	t.procs[0].kill()
	restart := time.Now()
	again, err := startProcUntil(recoveredLine, nil, "node-restarted", h.bin, singleArgs(t.dataDir)...)
	if err != nil {
		return nil, err
	}
	t.procs[0] = again
	o.extra["store.recover_s"] = time.Since(restart).Seconds()
	m := again.stderr.find(recoveredLine)
	ckpt, _ := strconv.Atoi(m[1])
	replayed, _ := strconv.Atoi(m[2])
	if ckpt+replayed != acked {
		o.problem("recovered %d+%d rows after kill -9, %d were acked", ckpt, replayed, acked)
	}
	return o, nil
}
