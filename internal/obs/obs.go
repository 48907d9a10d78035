// Package obs is the process-wide observability core: lock-free counters
// and gauges, log-bucketed latency histograms with quantile estimation, a
// named metric registry with Prometheus text exposition, and a lightweight
// span facility that records per-stage durations and emits structured
// slow-op log lines.
//
// The package is dependency-free (stdlib only) and designed for hot paths:
// every mutation is a single atomic op, and callers are expected to resolve
// metric handles once (package init or struct construction), not per event.
package obs

import (
	"fmt"
	"log"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Nanos scales what a histogram observes, time.Duration nanoseconds, to
// the seconds its exposition carries.
const Nanos = 1e-9

// Counter is a monotonically increasing lock-free counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value. It stores a float64 so it can
// carry both integral quantities (resident rows, in-flight requests) and
// fractional ones (drift).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates what a family holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one (family, label set) series.
type metric struct {
	labels []string // alternating key, value; sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]*metric // keyed by rendered label signature
}

// Registry is a named collection of metric families. The zero value is not
// usable; create one with NewRegistry or use the package Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	enabled   atomic.Bool  // gates spans and histogram observation
	slowNanos atomic.Int64 // slow-op threshold; <=0 disables slow-op logs
	slowLog   atomic.Pointer[log.Logger]
}

// Default is the process-wide registry every subsystem registers into.
var Default = NewRegistry()

// NewRegistry returns an empty registry with spans enabled and a 500ms
// slow-op threshold.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.enabled.Store(true)
	r.slowNanos.Store(int64(500 * time.Millisecond))
	return r
}

// SetEnabled toggles span recording and histogram observation. Counters and
// gauges stay live either way — they are single atomic adds, already the
// floor of what "disabled" could cost. Used by the overhead benchmark and
// available as a kill switch.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

func (r *Registry) slowLogger() *log.Logger {
	if l := r.slowLog.Load(); l != nil {
		return l
	}
	return log.Default()
}

// Counter returns the counter for name and the given label pairs, creating
// family and series on first use. kv is alternating key, value.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	m := r.series(name, help, kindCounter, kv)
	return m.c
}

// Gauge returns the gauge for name and the given label pairs.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	m := r.series(name, help, kindGauge, kv)
	return m.g
}

// Histogram returns the histogram for name and the given label pairs. It
// observes time.Duration nanoseconds and exposes seconds, under a
// *_seconds name.
func (r *Registry) Histogram(name, help string, kv ...string) *Histogram {
	m := r.series(name, help, kindHistogram, kv)
	m.h.reg = r
	return m.h
}

// series is the get-or-create path shared by all metric kinds.
func (r *Registry) series(name, help string, kind metricKind, kv []string) *metric {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %q", name, kv))
	}
	labels := sortLabels(kv)
	sig := labelSignature(labels)

	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind, series: make(map[string]*metric)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if m := f.series[sig]; m != nil {
		return m
	}
	m := &metric{labels: labels}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = NewHistogram()
	}
	f.series[sig] = m
	return m
}

// sortLabels normalises alternating kv pairs into key order.
func sortLabels(kv []string) []string {
	if len(kv) == 0 {
		return nil
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	out := make([]string, 0, len(ps)*2)
	for _, p := range ps {
		out = append(out, p.k, p.v)
	}
	return out
}

// labelSignature renders sorted label pairs into the exposition form used
// both as map key and output: `k1="v1",k2="v2"` (empty for no labels).
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies Prometheus label-value escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
