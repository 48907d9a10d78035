package obs

import (
	"bytes"
	"context"
	"log"
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", "k", "v")
	b := r.Counter("x_total", "ignored second help", "k", "v")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "", "k", "other")
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	// Label order must not matter.
	d1 := r.Gauge("y", "", "a", "1", "b", "2")
	d2 := r.Gauge("y", "", "b", "2", "a", "1")
	if d1 != d2 {
		t.Fatal("label order produced distinct series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("z_total", "")
}

// TestWritePrometheusGolden pins the exact exposition output for a small
// registry: sorted families, sorted label signatures, cumulative buckets,
// nanosecond observations exposed as seconds.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Total requests.", "route", "/api", "class", "2xx").Add(3)
	r.Gauge("test_in_flight", "In-flight requests.").Set(2)
	h := r.Histogram("test_latency_seconds", "Latency.")
	for _, v := range []uint64{1, 2, 2, 7} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_in_flight In-flight requests.
# TYPE test_in_flight gauge
test_in_flight 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="1e-09"} 1
test_latency_seconds_bucket{le="2e-09"} 3
test_latency_seconds_bucket{le="7.000000000000001e-09"} 4
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 1.2000000000000002e-08
test_latency_seconds_count 4
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total{class="2xx",route="/api"} 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusEscapesLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "path", "a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped sample %q missing from:\n%s", want, buf.String())
	}
}

func TestWriteProcessMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProcessMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total", "go_gc_heap_live_bytes"} {
		if !strings.Contains(buf.String(), "# TYPE "+fam+" ") {
			t.Errorf("process metrics missing family %s", fam)
		}
	}
}

func TestSpanRecordsStageHistogram(t *testing.T) {
	r := NewRegistry()
	r.SetSlowOpThreshold(0) // no logs in this test
	ctx, parent := r.StartSpan(context.Background(), "refresh")
	_, child := r.StartSpan(ctx, "kmeans")
	if child.name != "refresh.kmeans" {
		t.Fatalf("nested span name = %q, want refresh.kmeans", child.name)
	}
	child.End()
	parent.End()

	for _, stage := range []string{"refresh", "refresh.kmeans"} {
		h := r.Histogram("indice_stage_seconds", "", "stage", stage)
		if s := h.Load(); s.Count != 1 {
			t.Errorf("stage %q recorded %d observations, want 1", stage, s.Count)
		}
	}
}

// TestSlowOpLine forces a slow stage and asserts the structured slow-op
// log line lands on the injected logger.
func TestSlowOpLine(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.SetSlowOpLogger(log.New(&buf, "", 0))
	r.SetSlowOpThreshold(time.Nanosecond)

	_, sp := r.StartSpan(context.Background(), "refresh.kmeans")
	time.Sleep(2 * time.Millisecond) // guaranteed over the 1ns threshold
	sp.End()

	line := buf.String()
	if !strings.Contains(line, "slow-op stage=refresh.kmeans took=") {
		t.Fatalf("slow-op line missing or malformed: %q", line)
	}
	if !strings.Contains(line, "threshold=1ns") {
		t.Fatalf("slow-op line missing threshold: %q", line)
	}
}

func TestSlowOpBelowThresholdSilent(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.SetSlowOpLogger(log.New(&buf, "", 0))
	r.SetSlowOpThreshold(time.Hour)

	_, sp := r.StartSpan(context.Background(), "fast.stage")
	sp.End()
	if buf.Len() != 0 {
		t.Fatalf("fast span logged: %q", buf.String())
	}
}

func TestDisabledRegistryNoopSpan(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(false)
	ctx, sp := r.StartSpan(context.Background(), "anything")
	if sp != nil {
		t.Fatal("disabled registry returned a live span")
	}
	sp.End() // must not panic on nil receiver
	if ctx == nil {
		t.Fatal("disabled StartSpan returned nil context")
	}
}

func TestGaugeAddConcurrentSafeBasics(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	g.Add(2.5)
	if got := g.Value(); got != 8.5 {
		t.Fatalf("gauge = %g, want 8.5", got)
	}
}

// SetSlowOpThreshold sets the duration above which a finished span emits a
// structured slow-op log line. Zero or negative disables the lines.
func (r *Registry) SetSlowOpThreshold(d time.Duration) { r.slowNanos.Store(int64(d)) }

// SetSlowOpLogger redirects slow-op lines (nil restores the stdlib default
// logger). Tests inject a logger writing to a buffer.
func (r *Registry) SetSlowOpLogger(l *log.Logger) { r.slowLog.Store(l) }
