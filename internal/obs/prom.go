package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, sorted
// families, sorted series, cumulative le-buckets for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		series := make([]*metric, len(sigs))
		for i, sig := range sigs {
			series[i] = f.series[sig]
		}
		f.mu.Unlock()

		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for i, m := range series {
			switch f.kind {
			case kindCounter:
				writeSample(bw, f.name, "", sigs[i], formatUint(m.c.Value()))
			case kindGauge:
				writeSample(bw, f.name, "", sigs[i], formatFloat(m.g.Value()))
			case kindHistogram:
				writeHistogram(bw, f, sigs[i], m.h.Load())
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative _bucket/_sum/_count triple for one
// series. Only buckets with observations get a line (plus the mandatory
// +Inf), keeping the 252-bucket layout from bloating the scrape.
func writeHistogram(w io.Writer, f *family, sig string, s HistSnapshot) {
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := bucketBounds(i)
		le := formatFloat(float64(hi) * Nanos)
		writeSample(w, f.name, "_bucket", joinLabels(sig, `le="`+le+`"`), formatUint(cum))
	}
	writeSample(w, f.name, "_bucket", joinLabels(sig, `le="+Inf"`), formatUint(s.Count))
	writeSample(w, f.name, "_sum", sig, formatFloat(float64(s.Sum)*Nanos))
	writeSample(w, f.name, "_count", sig, formatUint(s.Count))
}

func joinLabels(sig, extra string) string {
	if sig == "" {
		return extra
	}
	return sig + "," + extra
}

func writeSample(w io.Writer, name, suffix, sig, value string) {
	if sig == "" {
		fmt.Fprintf(w, "%s%s %s\n", name, suffix, value)
	} else {
		fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, sig, value)
	}
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProcessMetrics emits Go runtime families (goroutines, heap, GC) in
// the same exposition format. Kept separate from Registry state so any
// registry — or none — can compose a full scrape.
func WriteProcessMetrics(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bw := bufio.NewWriter(w)

	writeOne := func(name, kind, help, value string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, value)
	}
	writeOne("go_goroutines", "gauge", "Number of live goroutines.",
		formatUint(uint64(runtime.NumGoroutine())))
	writeOne("go_memstats_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.",
		formatUint(ms.HeapAlloc))
	writeOne("go_memstats_heap_sys_bytes", "gauge", "Bytes of heap obtained from the OS.",
		formatUint(ms.HeapSys))
	writeOne("go_memstats_heap_objects", "gauge", "Number of allocated heap objects.",
		formatUint(ms.HeapObjects))
	writeOne("go_gc_cycles_total", "counter", "Completed GC cycles.",
		formatUint(uint64(ms.NumGC)))
	writeOne("go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.",
		formatFloat(float64(ms.PauseTotalNs)*Nanos))
	writeOne("go_memstats_next_gc_bytes", "gauge", "Heap size target of the next GC cycle.",
		formatUint(ms.NextGC))
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	writeOne("go_gc_heap_live_bytes", "gauge", "Heap bytes the last GC cycle marked live.",
		formatUint(live[0].Value.Uint64()))
	return bw.Flush()
}

// Handler returns an http.HandlerFunc serving the registry plus process
// metrics as a Prometheus scrape target.
func Handler(r *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
		_ = WriteProcessMetrics(w)
	}
}
