package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip checks that every probe value lands in a bucket whose
// bounds contain it, across exact buckets, octave boundaries, and the ends
// of the uint64 range.
func TestBucketRoundTrip(t *testing.T) {
	probes := []uint64{
		0, 1, 2, 3, 4, 5, 6, 7, // exact buckets
		8, 9, 10, 11, 15, 16, 17, 31, 32, 63, 64, 65,
		255, 256, 1023, 1024, 1025,
		1<<20 - 1, 1 << 20, 1<<20 + 1,
		1<<40 + 12345,
		1<<62 + 9999,
		math.MaxUint64 - 1, math.MaxUint64,
	}
	for _, v := range probes {
		idx := bucketIdx(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range [0,%d)", v, idx, histBuckets)
		}
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Errorf("value %d landed in bucket %d with bounds [%d,%d]", v, idx, lo, hi)
		}
	}
}

// TestBucketMonotonic checks bucket bounds tile the value space without
// gaps or overlaps.
func TestBucketMonotonic(t *testing.T) {
	_, prevHi := bucketBounds(0)
	if lo, _ := bucketBounds(0); lo != 0 {
		t.Fatalf("first bucket starts at %d, want 0", lo)
	}
	for i := 1; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if hi < lo {
			t.Fatalf("bucket %d has inverted bounds [%d,%d]", i, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != math.MaxUint64 {
		t.Fatalf("last bucket ends at %d, want MaxUint64", prevHi)
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Load().Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%g) = %g, want 0", q, got)
		}
	}
	if s := h.Load(); s.Count != 0 || s.Sum != 0 {
		t.Errorf("empty snapshot count=%d sum=%d", s.Count, s.Sum)
	}
}

// TestQuantileSingleSample: with one observation, min/max clamping must
// make every quantile exact.
func TestQuantileSingleSample(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 8, 12345, 1 << 30} {
		h := NewHistogram()
		h.Observe(v)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if got := h.Load().Quantile(q); got != float64(v) {
				t.Errorf("single sample %d: Quantile(%g) = %g, want %d", v, q, got, v)
			}
		}
	}
}

// TestQuantileBucketBoundaries: samples exactly on bucket edges must stay
// within the relative error bound the bucket layout guarantees (~25%).
func TestQuantileBucketBoundaries(t *testing.T) {
	h := NewHistogram()
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Observe(uint64(i))
	}
	checks := []struct {
		q    float64
		want float64
	}{
		{0.50, n / 2},
		{0.90, n * 9 / 10},
		{0.99, n * 99 / 100},
		{1.00, n},
	}
	for _, c := range checks {
		got := h.Load().Quantile(c.q)
		rel := math.Abs(got-c.want) / c.want
		if rel > 0.25 {
			t.Errorf("Quantile(%g) = %g, want %g within 25%% (rel err %.3f)", c.q, got, c.want, rel)
		}
	}
	if got := h.Load().Quantile(1); got != n {
		t.Errorf("Quantile(1) = %g, want exact max %d", got, n)
	}
	if got := h.Load().Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %g, want exact min 1", got)
	}
}

func TestQuantileClampsOutOfRangeQ(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	h.Observe(20)
	if got := h.Load().Quantile(-3); got != 10 {
		t.Errorf("Quantile(-3) = %g, want min 10", got)
	}
	if got := h.Load().Quantile(7); got != 20 {
		t.Errorf("Quantile(7) = %g, want max 20", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(5)
	b.Observe(500)
	sa, sb := a.Load(), b.Load()
	sa.Merge(sb)
	if sa.Count != 2 || sa.Min != 5 || sa.Max != 500 || sa.Sum != 505 {
		t.Fatalf("snapshot merge got count=%d min=%d max=%d sum=%d", sa.Count, sa.Min, sa.Max, sa.Sum)
	}
	var empty HistSnapshot
	empty.Merge(sa)
	if empty.Count != 2 || empty.Min != 5 {
		t.Fatalf("merge into empty got count=%d min=%d", empty.Count, empty.Min)
	}
	before := sa
	sa.Merge(HistSnapshot{})
	if sa != before {
		t.Fatal("merging an empty snapshot changed state")
	}
}

func TestObserveDurationClampsNegative(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(-5 * time.Second)
	if s := h.Load(); s.Count != 1 || s.Max != 0 {
		t.Fatalf("negative duration recorded as count=%d max=%d, want 1/0", s.Count, s.Max)
	}
}

// TestConcurrentMutation hammers a counter, gauge, and histogram from many
// goroutines; run under -race this doubles as the data-race check, and the
// final totals must still be exact.
func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "")

	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(seed*1000 + uint64(i))
			}
		}(uint64(w))
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %g, want %d", got, workers*per)
	}
	s := h.Load()
	if s.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestDisabledHistogramSkipsObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "")
	r.SetEnabled(false)
	h.Observe(42)
	if s := h.Load(); s.Count != 0 {
		t.Fatalf("disabled histogram recorded %d observations", s.Count)
	}
	r.SetEnabled(true)
	h.Observe(42)
	if s := h.Load(); s.Count != 1 {
		t.Fatalf("re-enabled histogram has count %d, want 1", s.Count)
	}
}
