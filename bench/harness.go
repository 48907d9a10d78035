package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"
)

// harness holds what one run shares across its set-ups and windows.
type harness struct {
	bin    string // indice-server binary
	tmp    string // this run's scratch directory
	seed   int64
	window time.Duration // measured window of one repetition
	reps   int           // repetitions per run; every metric is their median
	c      *corpus
	load   [][]byte  // the base corpus as bulk-load CSV bodies
	log    io.Writer // for the reader, not the driver
}

// topology is one booted deployment: the processes, where queries go and
// where writes go.
type topology struct {
	procs   []*proc
	query   *proc
	ingest  *proc
	dataDir string
}

func (t *topology) close() {
	for _, p := range t.procs {
		p.kill()
	}
	if t.dataDir != "" {
		_ = os.RemoveAll(t.dataDir) // the run's scratch directory is removed at exit anyway
	}
}

// alive fails once any process of the topology has exited.
func (t *topology) alive() error {
	for _, p := range t.procs {
		if err := p.alive(); err != nil {
			return err
		}
	}
	return nil
}

func (t *topology) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += mb
	}
	return sum, nil
}

// scrape sums /metrics over every process of the topology.
func (t *topology) scrape() (scrape, error) {
	total := make(scrape)
	for _, p := range t.procs {
		c := newClient(p.url())
		s, err := scrapeOf(c)
		c.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		total.add(s)
	}
	return total, nil
}

// ingestAck is the answer of POST /api/ingest; refreshAck of POST
// /api/refresh.
type ingestAck struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Rows     int `json:"rows"`
}

type refreshAck struct {
	Epoch uint64 `json:"epoch"`
	Rows  int    `json:"rows"`
}

// bulkLoad posts the base corpus to p and checks every ack.
func (h *harness) bulkLoad(p *proc) error {
	c := newClient(p.url())
	defer c.close()
	sent := 0
	for _, body := range h.load {
		answer, _, err := c.mustOK(http.MethodPost, "/api/ingest", "text/csv", body)
		if err != nil {
			return err
		}
		var ack ingestAck
		if err := json.Unmarshal(answer, &ack); err != nil {
			return fmt.Errorf("ingest ack: %w", err)
		}
		sent += ack.Accepted
		if ack.Rejected != 0 || ack.Rows != sent {
			return fmt.Errorf("bulk load: ack %+v after %d rows sent", ack, sent)
		}
	}
	if sent != h.c.base {
		return fmt.Errorf("bulk load: %d rows accepted, want %d", sent, h.c.base)
	}
	return nil
}

// refresh posts /api/refresh and checks the published row count.
func refresh(c *client, wantRows int) (time.Duration, error) {
	answer, took, err := c.mustOK(http.MethodPost, "/api/refresh", "", nil)
	if err != nil {
		return took, err
	}
	var ack refreshAck
	if err := json.Unmarshal(answer, &ack); err != nil {
		return took, fmt.Errorf("refresh ack: %w", err)
	}
	if ack.Rows != wantRows {
		return took, fmt.Errorf("refresh published %d rows, %d acked so far", ack.Rows, wantRows)
	}
	return took, nil
}

// waitReady polls /api/ready until it answers 200, failing early if any
// process of the topology dies.
func waitReady(p *proc, t *topology) error {
	c := newClient(p.url())
	defer c.close()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		if err := t.alive(); err != nil {
			return err
		}
		if status, _, _, err := c.get("/api/ready"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 90s:\n%s", p.name, p.stderr.String())
}

// singleArgs are the flags of a single live node. -fsync always is the
// server's default; it is spelled out because the flush policy is part
// of what live_mixed measures.
func singleArgs(dataDir string) []string {
	args := []string{"-ingest", "-n", "0", "-shards", "4", "-refresh-interval", "0"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	return args
}

// bootSingle starts one live node, loads the base corpus through
// /api/ingest and publishes it with a first full refresh.
func (h *harness) bootSingle(durable bool) (*topology, error) {
	t := &topology{}
	if durable {
		dir, err := os.MkdirTemp(h.tmp, "data-")
		if err != nil {
			return nil, err
		}
		t.dataDir = dir
	}
	p, err := startProc("node", h.bin, singleArgs(t.dataDir)...)
	if err != nil {
		return nil, err
	}
	t.procs, t.query, t.ingest = []*proc{p}, p, p
	if err := h.bulkLoad(p); err != nil {
		t.close()
		return nil, err
	}
	c := newClient(p.url())
	defer c.close()
	if _, err := refresh(c, h.c.base); err != nil {
		t.close()
		return nil, err
	}
	if err := waitReady(p, t); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// bootCluster starts a leader, loads it, then starts two replicas and a
// coordinator over them and waits until the coordinator serves the whole
// corpus from both replicas. The leader never refreshes; each replica
// publishes once, after its first sync.
func (h *harness) bootCluster() (*topology, error) {
	t := &topology{}
	fail := func(err error) (*topology, error) {
		t.close()
		return nil, err
	}
	leader, err := startProc("leader", h.bin, "-role", "leader", "-n", "0", "-shards", "4", "-refresh-interval", "0")
	if err != nil {
		return nil, err
	}
	t.procs, t.ingest = []*proc{leader}, leader
	if err := h.bulkLoad(leader); err != nil {
		return fail(err)
	}
	var urls []string
	for i := 1; i <= 2; i++ {
		r, err := startProc(fmt.Sprintf("replica%d", i), h.bin, "-role", "replica", "-leader", leader.url(),
			"-sync-interval", "200ms", "-refresh-interval", "0")
		if err != nil {
			return fail(err)
		}
		t.procs = append(t.procs, r)
		urls = append(urls, r.url())
	}
	coord, err := startProc("coordinator", h.bin, "-role", "coordinator", "-replicas", strings.Join(urls, ","))
	if err != nil {
		return fail(err)
	}
	t.procs = append(t.procs, coord)
	t.query = coord
	for _, p := range t.procs[1:] {
		if err := waitReady(p, t); err != nil {
			return fail(err)
		}
	}
	// Ready means "can serve"; wait until the coordinator routes over
	// both replicas at the epoch that holds every row.
	c := newClient(coord.url())
	defer c.close()
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		answer, _, err := c.mustOK(http.MethodGet, fmt.Sprintf("/api/query?attrs=eph&offset=%d", i), "", nil)
		if err == nil {
			var a queryAnswer
			if json.Unmarshal(answer, &a) == nil && a.StoreRows == h.c.base && a.Cluster != nil && a.Cluster.Replicas == 2 {
				return t, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("coordinator never served %d rows from 2 replicas (last: %v)", h.c.base, err))
		}
		if err := t.alive(); err != nil {
			return fail(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// repeat runs one workload h.reps times, each time on a freshly booted
// and warmed topology, and combines the repetitions. Spreading a run's
// measuring over its whole length, with the set-ups in between, keeps a
// disturbance of the host that lasts a few seconds inside one
// repetition. setup_s is each repetition's time from the first process
// start to the end of the warm-up.
func (h *harness) repeat(boot func() (*topology, error), warm func(*topology) error,
	measure func(t *topology, last bool) (*outcome, error)) (*outcome, error) {
	var outs []*outcome
	for rep := 0; rep < h.reps; rep++ {
		start := time.Now()
		t, err := boot()
		if err != nil {
			return nil, err
		}
		err = warm(t)
		setup := time.Since(start).Seconds()
		var o *outcome
		if err == nil {
			o, err = measure(t, rep == h.reps-1)
		}
		t.close()
		if err != nil {
			return nil, err
		}
		o.e2e["setup_s"] = setup
		sp, _ := o.stats.p50(o.weights) // combine reports a class without samples
		rp, _ := o.rows.p50(o.weights)
		fmt.Fprintf(h.log, "  repetition %d: setup %.3f s, %s p50 %.3f ms, %s p50 %.3f ms, %.1f queries/s\n",
			rep+1, setup, o.classes[0], sp, o.classes[1], rp, o.extra["client.query_qps"])
		outs = append(outs, o)
	}
	return combine(outs)
}

// combine folds the repetitions of a run. Set-up time, memory and the
// extras are the medians of the repetitions. The two classes' latency
// medians are composites over the samples of all repetitions pooled (a
// composite is only as good as its smallest group), and step_p50_ms is
// their sum: what one drill-down step costs, the grouped statistics and
// then a page of the rows behind them.
func combine(outs []*outcome) (*outcome, error) {
	total := &outcome{e2e: make(map[string]float64), extra: make(map[string]float64),
		stats: &samples{}, rows: &samples{}, classes: outs[0].classes, weights: outs[0].weights}
	e2e, extra := make(map[string][]float64), make(map[string][]float64)
	for _, o := range outs {
		for k, v := range o.e2e {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range o.extra {
			extra[k] = append(extra[k], v)
		}
		total.attempted += o.attempted
		total.failed += o.failed
		total.problems = append(total.problems, o.problems...)
		total.stats.merge(o.stats)
		total.rows.merge(o.rows)
	}
	for k, v := range e2e {
		total.e2e[k] = quantile(v, 0.5)
	}
	for k, v := range extra {
		total.extra[k] = quantile(v, 0.5)
	}
	statsP50, err := total.stats.p50(total.weights)
	if err != nil {
		return nil, fmt.Errorf("stats-shaped queries: %w", err)
	}
	rowsP50, err := total.rows.p50(total.weights)
	if err != nil {
		return nil, fmt.Errorf("row-page queries: %w", err)
	}
	total.extra["client.p50_ms."+string(total.classes[0])] = statsP50
	total.extra["client.p50_ms."+string(total.classes[1])] = rowsP50
	total.e2e["step_p50_ms"] = statsP50 + rowsP50
	return total, nil
}

// queryAnswer is the part of an /api/query answer the checks read.
type queryAnswer struct {
	Epoch     uint64 `json:"epoch"`
	StoreRows int    `json:"store_rows"`
	Matched   int    `json:"matched"`
	Cached    bool   `json:"cached"`
	Cluster   *struct {
		Replicas int `json:"replicas"`
		Degraded int `json:"degraded"`
	} `json:"cluster"`
}

// tally is what one client observed: per-class samples, operation
// counts and the first few check failures.
type tally struct {
	classes   map[class]*samples
	attempted int
	failed    int
	checked   int
	problems  []string
}

func newTally() *tally { return &tally{classes: make(map[class]*samples)} }

func (t *tally) of(c class) *samples {
	s := t.classes[c]
	if s == nil {
		s = &samples{}
		t.classes[c] = s
	}
	return s
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 5 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	for c, s := range o.classes {
		t.of(c).merge(s)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.checked += o.checked
	for _, p := range o.problems {
		t.problem("%s", p)
	}
}

// fetch performs one measured GET. A transport error or a status other
// than 200 counts as a failed operation and contributes no sample.
func (t *tally) fetch(c *client, cl class, group int, path string) ([]byte, time.Duration, bool) {
	t.attempted++
	status, body, took, err := c.get(path)
	if err != nil || status != http.StatusOK {
		t.failed++
		t.problem("GET %s: status %d, error %v", path, status, err)
		return nil, 0, false
	}
	t.of(cl).add(group, took, len(body))
	return body, took, true
}

// checkEvery is the sampling rate of the cold-answer oracle check.
const checkEvery = 16

// checkCold compares a cold answer's matched count with the benchmark's
// own row loop over the rows the answer's snapshot held, and, through a
// coordinator, requires both replicas and no failed-over leg.
func (h *harness) checkCold(t *tally, req request, body []byte, cluster bool) {
	t.checked++
	var a queryAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		t.problem("%s: bad JSON: %v", req.path, err)
		return
	}
	want, err := h.c.count(req.pred, a.StoreRows)
	if err != nil {
		t.problem("%s: %v", req.path, err)
		return
	}
	if a.Matched != want {
		t.problem("%s: matched %d, row loop over %d rows counts %d", req.path, a.Matched, a.StoreRows, want)
	}
	if cluster && (a.Cluster == nil || a.Cluster.Replicas != 2 || a.Cluster.Degraded != 0) {
		t.problem("%s: cluster block %+v, want 2 replicas and no degraded leg", req.path, a.Cluster)
	}
}

// coldLoop is one client's share of a cold window: stats-shaped and
// row-page requests alternating until stop returns true.
func (h *harness) coldLoop(c *client, g *coldGen, t *tally, cluster bool, first int, stop func() bool) {
	for i := first; !stop(); i++ {
		req := g.next(i%2 == 1)
		body, _, ok := t.fetch(c, req.class, req.group, req.path)
		if ok && i%checkEvery == 0 {
			h.checkCold(t, req, body, cluster)
		}
	}
}

// inParallel runs fn once per client, each with its own connection and
// tally, and returns the merged tally and the wall time.
func inParallel(base string, fn func(k int, c *client, t *tally)) (*tally, time.Duration) {
	tallies := make([]*tally, numClients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < numClients; k++ {
		tallies[k] = newTally()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			fn(k, c, tallies[k])
		}(k)
	}
	wg.Wait()
	took := time.Since(start)
	total := newTally()
	for _, t := range tallies {
		total.merge(t)
	}
	return total, took
}

// until returns a stop function that turns true at the deadline.
func until(deadline time.Time) func() bool {
	return func() bool { return !time.Now().Before(deadline) }
}

// sameButCached reports whether two /api/query answers are the same
// JSON value once their "cached" fields are dropped.
func sameButCached(a, b []byte) (bool, error) {
	var x, y map[string]any
	if err := json.Unmarshal(a, &x); err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &y); err != nil {
		return false, err
	}
	delete(x, "cached")
	delete(y, "cached")
	return reflect.DeepEqual(x, y), nil
}
