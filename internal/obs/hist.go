package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values 0..7 get exact unit buckets; every value
// v >= 8 lands in a log-linear bucket — each power-of-two octave is split
// into 4 linear subdivisions, so relative bucket width is bounded by ~25%
// and a quantile estimate is never off by more than a quarter of its value.
// 8 exact + 4 subdivisions x 61 octaves (bit lengths 4..64) = 252 buckets,
// covering the full uint64 range. All buckets are independent atomics, so
// concurrent Observe calls never contend on a lock and two histograms merge
// by summing buckets.
const (
	histExact      = 8                                 // values 0..7 recorded exactly
	histSubBuckets = 4                                 // linear subdivisions per power-of-two octave
	histBuckets    = histExact + histSubBuckets*(64-3) // 252
)

// Histogram is a lock-free log-bucketed histogram of uint64 observations
// (typically latencies in nanoseconds). The zero value is NOT ready; use
// NewHistogram or Registry.Histogram.
type Histogram struct {
	reg     *Registry // nil for unregistered histograms; gates observation
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // math.MaxUint64 until first observation
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an unregistered standalone histogram (always
// enabled). Registered histograms come from Registry.Histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxUint64)
	return h
}

// bucketIdx maps a value to its bucket.
func bucketIdx(v uint64) int {
	if v < histExact {
		return int(v)
	}
	n := bits.Len64(v) // >= 4
	sub := (v >> (n - 3)) & 3
	return histExact + (n-4)*histSubBuckets + int(sub)
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < histExact {
		return uint64(i), uint64(i)
	}
	n := uint((i-histExact)/histSubBuckets + 4)
	sub := uint64((i - histExact) % histSubBuckets)
	lo = (4 + sub) << (n - 3)
	hi = lo + 1<<(n-3) - 1
	return lo, hi
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.reg != nil && !h.reg.enabled.Load() {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIdx(v)].Add(1)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveDuration records a duration's nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// HistSnapshot is a point-in-time copy of a histogram's state, safe to
// walk, merge, and summarise without racing writers.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Min     uint64 // math.MaxUint64 when empty
	Max     uint64
	Buckets [histBuckets]uint64
}

// Load copies the histogram into a snapshot. The copy is per-field atomic,
// not globally consistent — fine for monitoring.
func (h *Histogram) Load() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Merge folds another snapshot into this one (plain, single-threaded).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = min(s.MinOr(o.Min), o.Min)
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// MinOr returns Min, or alt when the snapshot is empty.
func (s HistSnapshot) MinOr(alt uint64) uint64 {
	if s.Count == 0 {
		return alt
	}
	return s.Min
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded values by
// walking cumulative bucket counts and interpolating linearly inside the
// landing bucket. The estimate is clamped to the observed [Min, Max], which
// makes single-sample histograms exact at every q. Empty histograms return
// 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketBounds(i)
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / float64(n)
			}
			est := float64(lo) + frac*float64(hi-lo)
			if est < float64(s.Min) {
				est = float64(s.Min)
			}
			if est > float64(s.Max) {
				est = float64(s.Max)
			}
			return est
		}
		cum = next
	}
	return float64(s.Max)
}
