package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the code and the host a result came from.
// Results of different hosts are never compared.
type fingerprint struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("git=%s go=%s nproc=%d gomaxprocs=%d cpu=%q", f.GitSHA, f.GoVersion, f.NumCPU, f.GOMAXPROCS, f.CPUModel)
}

// host is the part of the fingerprint two results must share to be
// comparable: everything but the commit.
func (f fingerprint) host() fingerprint {
	f.GitSHA = ""
	return f
}

func fingerprintOf(root string) fingerprint {
	f := fingerprint{GitSHA: "nogit", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0)}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		f.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return f
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which
// is what the driver measures spread with. It needs two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// aaRecord is what -record writes and -against reads.
type aaRecord struct {
	Fingerprint fingerprint                   `json:"fingerprint"`
	Runs        int                           `json:"runs"`
	Medians     map[string]map[string]float64 `json:"medians"`
}

// worseBy is how much worse cur is than base, as a share of base.
func worseBy(d metricDef, base, cur float64) float64 {
	if d.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// runAA runs each workload n times on the same build, seeds seed..
// seed+n-1, and prints per metric and workload the spread between the
// first and third quartile as a share of the median, beside the
// metric's bound. It returns 1 when a bounded metric other than setup_s
// spreads beyond its bound, when a run fails a check, or when -against
// finds a median worse than the recorded one by more than the bound.
func runAA(opts options, n int, fp fingerprint, record, against string) int {
	if n < 2 {
		fatal(fmt.Errorf("-aa needs at least 2 runs"))
	}
	var base *aaRecord
	if against != "" {
		b, err := os.ReadFile(against)
		if err != nil {
			fatal(err)
		}
		base = &aaRecord{}
		if err := json.Unmarshal(b, base); err != nil {
			fatal(fmt.Errorf("%s: %w", against, err))
		}
		if base.Fingerprint.host() != fp.host() {
			fatal(fmt.Errorf("refusing to compare across hosts:\n  recorded %s\n  now      %s", base.Fingerprint, fp))
		}
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	rec := aaRecord{Fingerprint: fp, Runs: n, Medians: make(map[string]map[string]float64)}
	code := 0
	var table strings.Builder
	fmt.Fprintf(&table, "\n%-13s %-40s %12s %8s %8s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, name := range opts.names() {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			o := opts
			o.workload, o.seed = name, opts.seed+int64(i)
			res, err := runOnce(o)
			if err != nil {
				killAll()
				cleanTemp()
				fatal(fmt.Errorf("%s seed %d: %w", name, o.seed, err))
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: a check failed\n", name, o.seed)
				code = 1
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		rec.Medians[name] = make(map[string]float64)
		for _, d := range defs {
			q1, q2, q3 := quartiles(values[d.Name])
			rec.Medians[name][d.Name] = q2
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case d.Bound == 0:
				verdict = "-"
			case spread > d.Bound && d.Name != "setup_s":
				verdict = "SPREAD BEYOND BOUND"
				code = 1
			case spread > d.Bound/3:
				verdict = "above a third of the bound"
			}
			if base != nil && d.Bound > 0 {
				if was, ok := base.Medians[name][d.Name]; ok {
					w := worseBy(d, was, q2)
					verdict += fmt.Sprintf("; %+.1f%% vs recorded %.4g", 100*w, was)
					if w > d.Bound {
						verdict += " WORSE THAN BOUND"
						code = 1
					}
				}
			}
			fmt.Fprintf(&table, "%-13s %-40s %12.4f %7.1f%% %7.1f%%  %s\n", name, d.Name, q2, 100*spread, 100*d.Bound, verdict)
		}
	}
	fmt.Print(table.String())
	fmt.Printf("fingerprint: %s, %d runs per workload\n", fp, n)
	if record != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(record, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	return code
}
