package stats

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sketchOf builds a sketch from a slice.
func sketchOf(xs []float64) *Sketch {
	s := &Sketch{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// assertQuantileBound checks the documented error contract: the sketch's
// q-quantile must land within the bucket tolerance (±1.7% relative, half
// the 2^-5 bucket width plus slack) of the order statistics bracketing the
// type-7 position. Bracketing absorbs the nearest-rank rounding: the
// sketch answers one order statistic, the oracle interpolates two.
func assertQuantileBound(t *testing.T, sorted []float64, s *Sketch, q float64) {
	t.Helper()
	n := len(sorted)
	k := int(q*float64(n-1) + 0.5)
	lo, hi := k-1, k+1
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	const tol = 0.017
	lob := sorted[lo] - math.Abs(sorted[lo])*tol - 1e-12
	hib := sorted[hi] + math.Abs(sorted[hi])*tol + 1e-12
	got := s.Quantile(q)
	if got < lob || got > hib {
		t.Fatalf("Quantile(%g) = %v outside [%v, %v] (order stats %v..%v, n=%d)",
			q, got, lob, hib, sorted[lo], sorted[hi], n)
	}
}

func TestSketchQuantileErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	datasets := map[string][]float64{}

	normal := make([]float64, 5000)
	for i := range normal {
		normal[i] = rng.NormFloat64()*50 + 120
	}
	datasets["normal"] = normal

	integral := make([]float64, 5000)
	for i := range integral {
		integral[i] = float64(rng.Intn(500))
	}
	datasets["integral"] = integral

	skewed := make([]float64, 3000)
	for i := range skewed {
		skewed[i] = rng.ExpFloat64() * 3
	}
	datasets["skewed"] = skewed

	signed := make([]float64, 4000)
	for i := range signed {
		signed[i] = rng.NormFloat64() * 200
	}
	datasets["signed"] = signed

	for name, xs := range datasets {
		t.Run(name, func(t *testing.T) {
			s := sketchOf(xs)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			if s.Count() != len(xs) {
				t.Fatalf("Count = %d, want %d", s.Count(), len(xs))
			}
			if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
				t.Fatalf("extremes [%v, %v], want [%v, %v]", s.Min, s.Max, sorted[0], sorted[len(sorted)-1])
			}
			for q := 0.0; q <= 1.0; q += 0.05 {
				assertQuantileBound(t, sorted, s, q)
			}
			// The quartiles the server reports, against the exact oracle.
			for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
				assertQuantileBound(t, sorted, s, q)
			}
		})
	}
}

// TestSketchMergeExactness pins the mergeability contract the scale-out
// tier relies on: for any partition of the observations, merging the
// parts' sketches yields a sketch bit-identical to the single pass — so
// coordinator quartiles equal leader quartiles exactly.
func TestSketchMergeExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 3000)
	for i := range xs {
		switch rng.Intn(10) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = -rng.ExpFloat64() * 10
		default:
			xs[i] = rng.NormFloat64()*40 + 150
		}
	}
	want := sketchOf(xs)

	for _, legs := range []int{1, 2, 3, 7} {
		parts := make([]*Sketch, legs)
		for i := range parts {
			parts[i] = &Sketch{}
		}
		for _, x := range xs {
			parts[rng.Intn(legs)].Add(x)
		}
		merged := &Sketch{}
		for _, p := range parts {
			merged.Merge(p)
		}
		if !reflect.DeepEqual(merged, want) {
			t.Fatalf("legs=%d: merged sketch differs from single pass:\nmerged %+v\nwant   %+v", legs, merged, want)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			if m, w := merged.Quantile(q), want.Quantile(q); m != w {
				t.Fatalf("legs=%d: Quantile(%g) = %v after merge, %v single-pass", legs, q, m, w)
			}
		}
	}
}

// TestSketchMergeDoesNotAliasSource: merging must deep-copy — later adds
// into the destination cannot corrupt the (possibly cached, shared)
// source sketch.
func TestSketchMergeDoesNotAliasSource(t *testing.T) {
	src := sketchOf([]float64{1, 2, 3, 100})
	snapshot := *sketchOf([]float64{1, 2, 3, 100})
	dst := &Sketch{}
	dst.Merge(src)
	for i := 0; i < 100; i++ {
		dst.Add(float64(i) * 7)
	}
	dst.Merge(src)
	if !reflect.DeepEqual(src, &snapshot) {
		t.Fatalf("source sketch mutated by merges into another: %+v != %+v", src, &snapshot)
	}
}

func TestSketchEdgeCases(t *testing.T) {
	var empty *Sketch
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 {
		t.Fatal("nil sketch must answer 0")
	}
	s := &Sketch{}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty sketch must answer 0")
	}
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Fatal("NaN must be ignored")
	}
	s.Add(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := s.Quantile(q); got != 42 {
			t.Fatalf("single-value Quantile(%v) = %v, want 42", q, got)
		}
	}

	zeros := sketchOf([]float64{0, 0, 0, -1, 1})
	if zeros.Quantile(0.5) != 0 {
		t.Fatalf("median of {0,0,0,-1,1} = %v, want 0", zeros.Quantile(0.5))
	}
	if zeros.Min != -1 || zeros.Max != 1 {
		t.Fatalf("extremes [%v, %v]", zeros.Min, zeros.Max)
	}

	// Infinities and huge magnitudes clamp into the end buckets without
	// panicking; extremes stay exact.
	wild := sketchOf([]float64{math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-320, 1})
	if wild.Count() != 6 || !math.IsInf(wild.Max, 1) || !math.IsInf(wild.Min, -1) {
		t.Fatalf("wild sketch: count %d, extremes [%v, %v]", wild.Count(), wild.Min, wild.Max)
	}
	last := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := wild.Quantile(q)
		if math.IsNaN(v) {
			t.Fatalf("Quantile(%g) = NaN", q)
		}
		if v < last {
			t.Fatalf("Quantile not monotone at q=%g: %v < %v", q, v, last)
		}
		last = v
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	s := sketchOf([]float64{0, 1, 2.5, -3, 1000, -0.001, 7, 7, 7})
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, s) {
		t.Fatalf("JSON round trip changed the sketch:\n%+v\n%+v", &back, s)
	}
	// An empty sketch stays small on the wire: no bucket arrays.
	raw, err = json.Marshal(&Sketch{})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64 {
		t.Fatalf("empty sketch marshals to %d bytes: %s", len(raw), raw)
	}
}

// FuzzSketch feeds arbitrary float64 streams through Add/Merge/Quantile:
// never panic, counts add up, quantiles stay within [Min, Max] and are
// monotone in q, and the merged sketch equals the single-pass sketch.
func FuzzSketch(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint8(1)) // +Inf
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint8(2)) // NaN
	seed := make([]byte, 0, 64)
	for _, v := range []float64{0, 1, -1, 120.5, 1e-300, -1e300, 42, 42} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, splitAt uint8) {
		var xs []float64
		for len(data) >= 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		single := &Sketch{}
		finite := 0
		for _, x := range xs {
			single.Add(x)
			if !math.IsNaN(x) {
				finite++
			}
		}
		if single.Count() != finite {
			t.Fatalf("Count = %d, want %d non-NaN observations", single.Count(), finite)
		}

		split := 0
		if len(xs) > 0 {
			split = int(splitAt) % (len(xs) + 1)
		}
		a, b := &Sketch{}, &Sketch{}
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		merged := &Sketch{}
		merged.Merge(a)
		merged.Merge(b)
		if !reflect.DeepEqual(merged, single) {
			t.Fatalf("merge(%d|%d) differs from single pass", split, len(xs)-split)
		}

		last := math.Inf(-1)
		for q := -0.5; q <= 1.5; q += 0.05 {
			v := merged.Quantile(q)
			if merged.Count() == 0 {
				if v != 0 {
					t.Fatalf("empty sketch Quantile(%g) = %v", q, v)
				}
				continue
			}
			if math.IsNaN(v) {
				t.Fatalf("Quantile(%g) = NaN", q)
			}
			if v < merged.Min || v > merged.Max {
				t.Fatalf("Quantile(%g) = %v outside [%v, %v]", q, v, merged.Min, merged.Max)
			}
			if v < last {
				t.Fatalf("Quantile not monotone at q=%g: %v < %v", q, v, last)
			}
			last = v
		}
	})
}
