package stats

import "math"

// Sketch is a compact mergeable quantile sketch over float64 observations:
// the log-linear bucket layout proven in internal/obs's histograms, refined
// to 32 subdivisions per octave and extended to the full signed float64
// line. Each positive (and, mirrored, each negative) value lands in the
// bucket addressed by its exponent and the top 5 mantissa bits, so bucket
// boundaries — and therefore bucketing — are exact functions of the value's
// bits. That determinism is the property the scale-out tier leans on: the
// merge of any partition's sketches holds bit-identical bucket counts to a
// single pass over all rows, so a coordinator's quantiles equal the
// leader's exactly, no matter how rows were sharded.
//
// Accuracy: a reported quantile is the midpoint of the bucket holding the
// target order statistic, clamped to the observed [Min, Max]. For values
// with magnitude in [2^-128, 2^128] the bucket's relative width is at most
// 2^-5 (3.125%), so the midpoint is within ±1.6% of the true order
// statistic. Magnitudes outside that band clamp into the extreme buckets
// and keep only the [Min, Max] guarantee. Zeros and signs are exact; NaN
// observations are ignored (they encode missing cells).
//
// All fields are exported and JSON-tagged: the struct is its own wire
// form, carried inside scaleout partials. An empty sketch marshals small
// (both sides omitted).
type Sketch struct {
	// N is the total number of observations folded in, including zeros.
	N uint64 `json:"n"`
	// Zeros counts observations equal to 0 (either sign).
	Zeros uint64 `json:"zeros,omitempty"`
	// Min and Max are the exact observed extremes (meaningful when N > 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Pos and Neg hold the bucket counts of the positive and negative
	// observations (Neg buckets index by magnitude).
	Pos *SketchSide `json:"pos,omitempty"`
	Neg *SketchSide `json:"neg,omitempty"`
}

// SketchSide is one sign's dense bucket array: Counts[i] counts the
// observations whose bucket index is Base+i. The span covers whole
// octaves and stays dense because indexes are clamped to
// sketchMinIdx..sketchMaxIdx (±128 octaves around 1.0), bounding the
// worst-case side at 8k buckets; real EPC-shaped data spans a handful of
// octaves.
type SketchSide struct {
	Base   int      `json:"base"`
	Counts []uint64 `json:"counts"`
}

const (
	// sketchSubBits is the per-octave subdivision: 2^5 = 32 linear buckets
	// per power of two, hence the 2^-5 relative bucket width.
	sketchSubBits = 5
	// sketchMinIdx/sketchMaxIdx clamp the bucket index to magnitudes in
	// [2^-128, 2^128]: (exponentField << sketchSubBits) | mantissaTopBits,
	// with the float64 exponent bias at 1023.
	sketchMinIdx = (1023 - 128) << sketchSubBits
	sketchMaxIdx = (1023+128)<<sketchSubBits | (1<<sketchSubBits - 1)
)

// sketchIdx maps a positive magnitude to its clamped bucket index. The
// index is the value's exponent field and top mantissa bits read straight
// out of the float64 representation, so equal values always bucket
// identically — the determinism Merge's exactness rests on.
func sketchIdx(v float64) int {
	idx := int(math.Float64bits(v) >> (52 - sketchSubBits))
	if idx < sketchMinIdx {
		return sketchMinIdx
	}
	if idx > sketchMaxIdx {
		return sketchMaxIdx
	}
	return idx
}

// sketchRep returns the representative value (bucket midpoint) of a
// bucket index produced by sketchIdx.
func sketchRep(idx int) float64 {
	lo := math.Float64frombits(uint64(idx) << (52 - sketchSubBits))
	hi := math.Float64frombits(uint64(idx+1) << (52 - sketchSubBits))
	return lo + (hi-lo)/2
}

// Add folds one observation into the sketch, a positive one inside the
// span without a call. NaN is ignored; infinities clamp into the extreme
// buckets (Min/Max still record them exactly).
func (s *Sketch) Add(v float64) {
	if v > 0 && s.Pos != nil && s.N > 0 {
		if i := sketchIdx(v) - s.Pos.Base; uint(i) < uint(len(s.Pos.Counts)) {
			s.Pos.Counts[i]++
			s.N++
			if v < s.Min {
				s.Min = v
			} else if v > s.Max {
				s.Max = v
			}
			return
		}
	}
	s.add(v)
}

func (s *Sketch) add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.N == 0 {
		s.Min, s.Max = v, v
	} else {
		if below(v, s.Min) {
			s.Min = v
		}
		if below(s.Max, v) {
			s.Max = v
		}
	}
	s.N++
	switch {
	case v == 0:
		s.Zeros++
	case v > 0:
		if s.Pos == nil {
			s.Pos = &SketchSide{}
		}
		s.Pos.add(sketchIdx(v), 1)
	default:
		if s.Neg == nil {
			s.Neg = &SketchSide{}
		}
		s.Neg.add(sketchIdx(-v), 1)
	}
}

// below orders values with -0 before +0, so that the extremes of a
// multiset do not depend on the order it arrived in.
func below(a, b float64) bool { return a < b || a == b && math.Signbit(a) && !math.Signbit(b) }

// add folds n observations into bucket idx, growing the dense span to
// cover it.
func (sd *SketchSide) add(idx int, n uint64) {
	if i := idx - sd.Base; uint(i) >= uint(len(sd.Counts)) {
		sd.grow(idx, idx)
	}
	sd.Counts[idx-sd.Base] += n
}

// grow widens the span to cover buckets lo to hi. It grows by whole
// octaves, so its layout depends only on the octaves its values reach,
// never on the order they came in. Past its capacity the array grows by
// the span it had; within it, counts move up.
func (sd *SketchSide) grow(lo, hi int) {
	const octave = 1 << sketchSubBits
	lo, hi = lo&^(octave-1), hi|(octave-1)+1
	if len(sd.Counts) > 0 {
		lo, hi = min(lo, sd.Base), max(hi, sd.Base+len(sd.Counts))
	}
	if lo == sd.Base && hi-lo == len(sd.Counts) {
		return
	}
	grown := sd.Counts[:0]
	if cap(grown) < hi-lo {
		grown = make([]uint64, 0, hi-lo+len(sd.Counts))
	}
	grown = grown[:hi-lo]
	if len(sd.Counts) > 0 {
		copy(grown[sd.Base-lo:], sd.Counts)
		clear(grown[:sd.Base-lo])
	}
	sd.Base, sd.Counts = lo, grown
}

// Merge folds another sketch into s without mutating o. Because bucketing
// is deterministic per value, the result's bucket counts are identical to
// a single sketch fed both inputs' observations in any order.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.N == 0 {
		return
	}
	if s.N == 0 || below(o.Min, s.Min) {
		s.Min = o.Min
	}
	if s.N == 0 || below(s.Max, o.Max) {
		s.Max = o.Max
	}
	s.N += o.N
	s.Zeros += o.Zeros
	s.Pos, s.Neg = s.Pos.merge(o.Pos), s.Neg.merge(o.Neg)
}

// merge adds o's counts into sd — a new side when sd is nil — once sd's
// span covers o's.
func (sd *SketchSide) merge(o *SketchSide) *SketchSide {
	if o == nil || len(o.Counts) == 0 {
		return sd
	}
	if sd == nil {
		sd = &SketchSide{}
	}
	sd.grow(o.Base, o.Base+len(o.Counts)-1)
	dst := sd.Counts[o.Base-sd.Base:]
	for i, n := range o.Counts {
		dst[i] += n
	}
	return sd
}

// Count returns the number of observations folded in.
func (s *Sketch) Count() int {
	if s == nil {
		return 0
	}
	return int(s.N)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations. It
// walks the buckets in value order — most-negative magnitude down to the
// smallest, zeros, then positives ascending — to the bucket holding the
// target order statistic and returns its midpoint, clamped to [Min, Max].
// The walk is monotone in q by construction, and Quantile(0)/Quantile(1)
// are the exact extremes. An empty (or nil) sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.N == 0 {
		return 0
	}
	if math.IsNaN(q) || q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	// Nearest order statistic to the type-7 position q*(N-1), 0-based.
	target := uint64(q*float64(s.N-1) + 0.5)
	if target >= s.N {
		target = s.N - 1
	}
	var seen uint64
	if s.Neg != nil {
		for i := len(s.Neg.Counts) - 1; i >= 0; i-- {
			seen += s.Neg.Counts[i]
			if seen > target {
				return s.clamp(-sketchRep(s.Neg.Base + i))
			}
		}
	}
	seen += s.Zeros
	if seen > target {
		return s.clamp(0)
	}
	if s.Pos != nil {
		for i, n := range s.Pos.Counts {
			seen += n
			if seen > target {
				return s.clamp(sketchRep(s.Pos.Base + i))
			}
		}
	}
	// Counts exhausted before reaching the target (possible only on a
	// hand-built inconsistent sketch): answer the max, never panic.
	return s.Max
}

func (s *Sketch) clamp(v float64) float64 {
	if v < s.Min {
		return s.Min
	}
	if v > s.Max {
		return s.Max
	}
	return v
}
