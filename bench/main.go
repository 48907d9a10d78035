// Command bench is the repository's benchmark. It builds
// cmd/indice-server from the checkout, drives the real binary over
// loopback with two closed-loop connections, checks the answers and
// prints every metric by name with its unit. See README.md.
//
//	go run -C bench . -workload explore_cold -seed 7
//	go run -C bench . -trace 1            # per-layer metrics and the span file
//	go run -C bench . -aa 10              # spread of every metric against its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list. Bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change is refused.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the deployment sees, on every workload:
// how long until it serves, what one drill-down step costs (a
// grouped-statistics query and then a page of rows, the sum of the two
// classes' median latencies) and how much memory it takes.
//
// The time bounds are as wide as the contract allows because the host is
// noisy, not because the benchmark is: runs a minute apart agree within
// 3-5 %, but the host's speed drifts by 10-20 % over minutes, and more
// for the short, parallel stats-shaped queries than for row pages. That
// is why the two classes' medians and the throughput, which the issue
// wanted gated, are printed (client.p50_ms.<class>, client.query_qps)
// but not gated: on the cold workloads they do not repeat within any
// bound the contract allows (README.md, "Noise").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.22},
}

// runSeconds is the measuring time of one run of the driver, split over
// the run's repetitions.
const runSeconds = 21

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	root     string
	log      io.Writer
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: dash_hot, explore_cold, live_mixed or cluster_cold (empty = all four)")
		seed         = flag.Int64("seed", 1, "seed of the corpus, the query streams and the ingest deltas")
		seconds      = flag.Int("seconds", runSeconds, "measuring time of one run in seconds, split over its repetitions")
		trace        = flag.Int("trace", 0, "1 runs the traced in-process suite and prints the per-layer metrics instead of the end-to-end ones")
		smoke        = flag.Bool("smoke", false, "tiny corpus, one-second windows, one set-up: a few seconds for everything")
		aa           = flag.Int("aa", 0, "run every workload N times with seeds seed..seed+N-1 and print each metric's spread beside its bound")
		record       = flag.String("record", "", "with -aa: write the medians and the host fingerprint to this file")
		against      = flag.String("against", "", "with -aa: compare the medians with a file written by -record on the same host")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as the code defines it and exit")
	)
	if dir := os.Getenv(cannedEnv); dir != "" {
		fatal(serveCanned(dir))
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	if *spec {
		printSpec()
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		cleanTemp()
		os.Exit(130)
	}()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	opts := options{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0,
		smoke: *smoke, root: root, log: os.Stderr}
	fp := fingerprintOf(root)
	fmt.Fprintf(os.Stderr, "fingerprint: %s\n", fp)

	if *aa > 0 {
		code := runAA(opts, *aa, fp, *record, *against)
		cleanTemp()
		os.Exit(code)
	}

	exit := 0
	for _, name := range opts.names() {
		opts.workload = name
		res, err := runOnce(opts)
		if err != nil {
			killAll()
			cleanTemp()
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			exit = 1
		}
	}
	cleanTemp()
	os.Exit(exit)
}

// names lists what one invocation runs: the workload asked for, all
// four when none was, and the traced suite once whatever was asked.
func (o options) names() []string {
	if o.workload != "" || o.trace {
		return []string{o.workload}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// benchmarkSpec is the shape of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// printSpec prints BENCHMARK.json: the command, the one directory, the
// run length, the listed workloads and the metric tables of this package.
func printSpec() {
	doc := benchmarkSpec{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		if w.listed {
			doc.Workloads = append(doc.Workloads, workloadDef{w.name, w.why})
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// tempDirs are the scratch directories to remove on exit.
var tempDirs []string

func cleanTemp() {
	for _, d := range tempDirs {
		_ = os.RemoveAll(d) // scratch only; a leftover is harmless
	}
	tempDirs = nil
}

// prepare builds the server, creates the run's scratch directory and
// generates the corpus: the base rows plus the delta rows the run will
// ingest.
func prepare(opts options) (*harness, error) {
	buildDir := filepath.Join(opts.root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer(opts.root, buildDir)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	tempDirs = append(tempDirs, tmp)
	// A run measures for opts.seconds in all, split over its repetitions.
	rows, reps := corpusRows, runReps
	window := time.Duration(opts.seconds) * time.Second / runReps
	if opts.smoke {
		rows, reps, window = smokeRows, 1, time.Second
	}
	cycles := liveCycles
	if opts.smoke {
		cycles = smokeCycles
	}
	extra := cycles * batchesPerCycle(rows) * deltaBatchRows
	if opts.trace {
		extra = 2 * traceCycles * traceCycleBatches * deltaBatchRows
	}
	c, err := newCorpus(opts.seed, rows, extra)
	if err != nil {
		return nil, err
	}
	load, err := c.csvBatches(0, c.base, loadBatchRows)
	if err != nil {
		return nil, err
	}
	return &harness{bin: bin, tmp: tmp, seed: opts.seed, window: window, reps: reps, c: c, load: load, log: opts.log}, nil
}

// batchesPerCycle is how many 250-row batches make up deltaShare of the
// base corpus.
func batchesPerCycle(base int) int {
	if n := int(float64(base)*deltaShare) / deltaBatchRows; n > 1 {
		return n
	}
	return 1
}

// runOnce performs one run of one workload, traced or not.
func runOnce(opts options) (*result, error) {
	h, err := prepare(opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		killAll()
		cleanTemp()
	}()
	if opts.trace {
		return runTraced(h, opts)
	}
	w, ok := findWorkload(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	o, err := w.run(h)
	if err != nil {
		return nil, err
	}
	report(opts.log, opts.workload, opts.seed, o)
	return newResult(endToEnd, o.e2e, o.attempted, o.failed, o.problems)
}

// newResult assembles a run's last line: exactly the metrics of defs,
// correct when no operation and no check failed.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int, problems []string) (*result, error) {
	res := &result{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("the run did not measure %s", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// report prints one run's numbers for a reader: the end-to-end metrics,
// then the ungated extras, then any failed check.
func report(w io.Writer, name string, seed int64, o *outcome) {
	fmt.Fprintf(w, "\n== %s seed %d: %d operations attempted, %d failed ==\n", name, seed, o.attempted, o.failed)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %12.4f %s\n", d.Name, o.e2e[d.Name], d.Unit)
	}
	keys := make([]string, 0, len(o.extra))
	for k := range o.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %12.4f\n", k, o.extra[k])
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}
