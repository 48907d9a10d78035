// Command experiments regenerates every evaluation artifact of the paper:
// run `experiments -exp all -out figures` to produce the Figure 2/3/4
// SVGs, the dashboards and the textual reports docs/benchmarks.md indexes.
//
// For performance work, -cpuprofile and -memprofile capture pprof
// evidence of any experiment at any scale without ad-hoc patches:
//
//	experiments -exp E5 -n 100000 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"indice/internal/experiments"
	"indice/internal/parallel"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (E1..E8) or 'all'")
		out        = flag.String("out", "figures", "output directory for figures and dashboards ('' disables)")
		certs      = flag.Int("n", 25000, "number of synthetic certificates (paper scale: 25000)")
		seed       = flag.Int64("seed", 1, "generation seed")
		par        = flag.Int("parallelism", 0, "analytics worker goroutines (0 = all CPUs, 1 = sequential); reports are identical at any setting")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
	)
	flag.Parse()

	scale := experiments.PaperScale()
	scale.Certificates = *certs
	scale.Seed = *seed
	if *certs < 5000 {
		// Shrink the city with the dataset so densities stay realistic.
		scale.Streets = 60
		scale.Civics = 12
	}

	fmt.Fprintf(os.Stderr, "generating synthetic world (%d certificates, seed %d)...\n",
		scale.Certificates, scale.Seed)
	world, err := experiments.NewWorld(scale)
	if err != nil {
		fatal(err)
	}
	workers := *par
	if workers == 0 {
		workers = parallel.Auto
	}
	runner := &experiments.Runner{World: world, OutDir: *out, Parallelism: workers}

	// The CPU profile covers the experiment runs only, not the synthetic
	// world generation above, so the hot paths under study dominate it.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var results []*experiments.Result
	if strings.EqualFold(*exp, "all") {
		results, err = runner.RunAll()
		if err != nil {
			fatal(err)
		}
	} else {
		res, err := runner.Run(*exp)
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	for _, res := range results {
		fmt.Printf("=== %s — %s ===\n%s\n", res.ID, res.Title, res.Report)
		for _, f := range res.Figures {
			fmt.Printf("  wrote %s\n", f)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
