package main

import (
	"bytes"
	"fmt"
	"sort"

	"indice/internal/epc"
	"indice/internal/synth"
	"indice/internal/table"
)

// Corpus sizes. The issue sized the benchmark at 100k certificates; the
// driver's budget (70 runs of three workloads inside 3420 s, each run
// setting up three times and measuring for 21 s) leaves about 15 s of
// set-up per run, and a full refresh costs ~0.18 ms per row on this
// host, so the corpus is 20k rows. BENCHMARK.json and the README record
// the size.
const (
	corpusRows = 20000
	smokeRows  = 2000
	// loadBatchRows is the bulk-load batch size, epcgen -stream's default.
	loadBatchRows = 2000
	// deltaBatchRows is the live_mixed ingest batch size.
	deltaBatchRows = 250
	// runReps is how many times a run sets its topology up and measures;
	// every metric is the median of the repetitions.
	runReps = 3
	// liveCycles is the ingest-and-refresh cycles of one live_mixed
	// repetition (smokeCycles in the one-second smoke window). It stays
	// below core's FullEvery=8, so every refresh inside the window takes
	// the incremental path.
	liveCycles  = 6
	smokeCycles = 3
	// deltaShare is the share of the base corpus one live_mixed cycle
	// appends before it refreshes.
	deltaShare = 0.05
)

// rangeAttrs are the numeric attributes cold predicates put ranges on;
// statAttrs the ones stats-shaped requests summarize.
var (
	rangeAttrs = []string{epc.AttrEPH, epc.AttrUWindows, epc.AttrHeatSurface, epc.AttrUOpaque, epc.AttrETAH, epc.AttrAspectRatio}
	statAttrs  = []string{epc.AttrEPH, epc.AttrUWindows, epc.AttrHeatSurface, epc.AttrUOpaque, epc.AttrETAH, "co2_emissions", "ep_gl"}
	inAttrs    = []string{epc.AttrDistrict, epc.AttrNeighbourhood, epc.AttrEnergyClass}
	byAttrs    = []string{epc.AttrDistrict, epc.AttrEnergyClass, epc.AttrNeighbourhood, epc.AttrConstructionEra}
)

// corpus is the generated collection of one run: base rows loaded during
// set-up followed by the delta rows live_mixed ingests. The plain column
// slices are the benchmark's own copy of the data, read by the answer
// checks without going through internal/query.
type corpus struct {
	tab  *table.Table
	base int

	nums map[string][]float64
	cats map[string][]string
	// sorted holds each range attribute's base-row values in ascending
	// order, for choosing bounds of a wanted selectivity.
	sorted map[string][]float64
	// levels holds each In attribute's distinct values, sorted.
	levels map[string][]string
}

// newCorpus generates base+extra certificates from the seed over the
// default city — the same city an indice-server booted with -n 0 builds
// its zone hierarchy from, so district and neighbourhood labels agree.
func newCorpus(seed int64, base, extra int) (*corpus, error) {
	city, err := synth.GenerateCity(synth.DefaultCityConfig())
	if err != nil {
		return nil, err
	}
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.Certificates = base + extra
	ds, err := synth.Generate(cfg, city)
	if err != nil {
		return nil, err
	}
	c := &corpus{
		tab: ds.Table, base: base,
		nums:   make(map[string][]float64),
		cats:   make(map[string][]string),
		sorted: make(map[string][]float64),
		levels: make(map[string][]string),
	}
	for _, a := range rangeAttrs {
		if c.nums[a], err = c.tab.Floats(a); err != nil {
			return nil, err
		}
		s := append([]float64(nil), c.nums[a][:base]...)
		sort.Float64s(s)
		c.sorted[a] = s
	}
	for _, a := range inAttrs {
		if c.cats[a], err = c.tab.Strings(a); err != nil {
			return nil, err
		}
		seen := make(map[string]bool)
		for _, v := range c.cats[a][:base] {
			if !seen[v] {
				seen[v] = true
				c.levels[a] = append(c.levels[a], v)
			}
		}
		sort.Strings(c.levels[a])
	}
	return c, nil
}

// rows is the total row count, deltas included.
func (c *corpus) rows() int { return c.tab.NumRows() }

// csvBatches renders rows [from, to) as typed-CSV bodies of at most size
// rows each, the format epcgen -stream posts.
func (c *corpus) csvBatches(from, to, size int) ([][]byte, error) {
	var out [][]byte
	for lo := from; lo < to; lo += size {
		hi := lo + size
		if hi > to {
			hi = to
		}
		part, err := c.tab.Slice(lo, hi)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := part.WriteCSV(&b); err != nil {
			return nil, err
		}
		out = append(out, b.Bytes())
	}
	return out, nil
}

// quantileBound returns the value at quantile q of a range attribute's
// base rows.
func (c *corpus) quantileBound(attr string, q float64) float64 {
	s := c.sorted[attr]
	i := int(q * float64(len(s)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// count evaluates e over rows [0, n) with a plain loop: the oracle the
// server's "matched" is compared with.
func (c *corpus) count(e *expr, n int) (int, error) {
	if n > c.rows() {
		return 0, fmt.Errorf("oracle asked for %d rows of %d", n, c.rows())
	}
	m := 0
	for r := 0; r < n; r++ {
		if e.eval(c, r) {
			m++
		}
	}
	return m, nil
}
