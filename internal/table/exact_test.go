package table

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// ratOracle is the exact reading of a multiset of finite values: their
// sum, mean and sample variance as rationals, each rounded once.
type ratOracle struct {
	n             int
	sum, mean, vr float64
}

func oracleOfValues(vals []float64) ratOracle {
	sum, sq := new(big.Rat), new(big.Rat)
	n := 0
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		r := valueRat(v)
		sum.Add(sum, r)
		sq.Add(sq, new(big.Rat).Mul(r, r))
		n++
	}
	o := ratOracle{n: n}
	o.sum, _ = sum.Float64()
	if n > 0 {
		o.mean, _ = new(big.Rat).Quo(sum, big.NewRat(int64(n), 1)).Float64()
	}
	if n > 1 {
		num := new(big.Rat).Mul(sq, big.NewRat(int64(n), 1))
		num.Sub(num, new(big.Rat).Mul(sum, sum))
		o.vr, _ = num.Quo(num, big.NewRat(int64(n)*int64(n-1), 1)).Float64()
	}
	return o
}

// valueRat is what a value counts as: the decimal strconv prints for it,
// when that has at most 15 significant digits, at most 15 fractional ones
// and an integer mantissa below 10^15, else its binary double.
func valueRat(v float64) *big.Rat {
	mant, exp, _ := strings.Cut(strconv.FormatFloat(math.Abs(v), 'e', -1, 64), "e")
	digits := strings.Replace(mant, ".", "", 1)
	e, _ := strconv.Atoi(exp)
	scale, zeros := len(digits)-1-e, 0
	if scale < 0 {
		scale, zeros = 0, e-(len(digits)-1)
	}
	if len(digits) <= 15 && scale <= 15 && len(digits)+zeros <= 15 {
		r, ok := new(big.Rat).SetString(digits + strings.Repeat("0", zeros) + "/1" + strings.Repeat("0", scale))
		if !ok {
			panic(mant)
		}
		if v < 0 {
			r.Neg(r)
		}
		return r
	}
	return new(big.Rat).SetFloat64(v)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkExact compares an accumulator's rendered numbers with the oracle's,
// bit for bit.
func checkExact(t *testing.T, label string, a *AggAccum, o ratOracle) {
	t.Helper()
	if a.Count() != o.n {
		t.Fatalf("%s: count %d, want %d", label, a.Count(), o.n)
	}
	if !sameBits(a.Sum(), o.sum) || !sameBits(a.Mean(), o.mean) || !sameBits(a.Variance(), o.vr) ||
		!sameBits(a.StdDev(), math.Sqrt(o.vr)) {
		t.Fatalf("%s: sum/mean/var %v/%v/%v, want %v/%v/%v", label, a.Sum(), a.Mean(), a.Variance(), o.sum, o.mean, o.vr)
	}
}

// exactCases are value sets the edges live in: nothing, one value, zeros
// of both signs, subnormals, the largest doubles, cancellation, decimals.
func exactCases(rng *rand.Rand) map[string][]float64 {
	dec := make([]float64, 500)
	for i := range dec {
		dec[i] = math.Round(rng.NormFloat64()*5e4) / 100
	}
	wide := make([]float64, 300)
	for i := range wide {
		wide[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(2000)-1000)
	}
	return map[string][]float64{
		"empty":        nil,
		"single":       {42.5},
		"zeros":        {0, math.Copysign(0, -1), 0},
		"subnormals":   {5e-324, -5e-324, 1e-310, 3 * 5e-324, 2.5e-308},
		"largest":      {math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, 1},
		"cancellation": {1e300, 1, -1e300, 1e-300, 3},
		"decimals":     dec,
		"wide":         wide,
		"ramp":         seqFloats(100, func(i int) float64 { return float64(i) }),
	}
}

func seqFloats(n int, f func(int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestExactAccumulatorMatchesRatOracle: any split of the values into
// partials, merged in any order, renders the correctly rounded sum, mean
// and variance.
func TestExactAccumulatorMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, vals := range exactCases(rng) {
		o := oracleOfValues(vals)
		for trial := 0; trial < 8; trial++ {
			parts := make([]AggAccum, 1+rng.Intn(5))
			for _, v := range vals {
				parts[rng.Intn(len(parts))].Observe(v)
			}
			var a AggAccum
			for _, i := range rng.Perm(len(parts)) {
				a.MergeAccum(&parts[i])
			}
			checkExact(t, name, &a, o)
		}
	}
}

// TestRunningStatClosedForms holds the closed forms over 0..99 exactly:
// mean 49.5 and variance 841⅔, correctly rounded.
func TestRunningStatClosedForms(t *testing.T) {
	var a AggAccum
	for i := 0; i < 100; i++ {
		a.Observe(float64(i))
	}
	wantVar, _ := big.NewRat(2525, 3).Float64()
	if a.Mean() != 49.5 || a.Variance() != wantVar || a.StdDev() != math.Sqrt(wantVar) || a.Sum() != 4950 {
		t.Fatalf("0..99: mean %v var %v sum %v, want 49.5, %v, 4950", a.Mean(), a.Variance(), a.Sum(), wantVar)
	}
}

// FuzzExactAccumulator splits fuzzed values — packed decimals of mixed
// scales and raw doubles of any bit pattern — into encoded parts, folds
// each through the kernels and merges the partials in a fuzzed order: the
// result must equal the rational oracle, bit for bit.
func FuzzExactAccumulator(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0}, int64(2))
	f.Add([]byte{0, 0xff, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 1, 0, 0, 0, 0, 0, 0, 0}, int64(3))
	f.Add([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8, 3, 9, 9, 9, 9, 9, 9, 9, 9, 1, 0x80, 0, 0, 0, 0, 0, 0, 1}, int64(4))
	f.Fuzz(fuzzExact)
}

func fuzzExact(t *testing.T, data []byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var vals []float64
	for len(data) >= 9 && len(vals) < 512 {
		kind, word := data[0], binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		if kind%4 == 0 {
			vals = append(vals, math.Float64frombits(word)) // raw, non-finite included
			continue
		}
		// A decimal with kind%4 fraction digits, as a CSV carries it.
		scale := int(kind % 4)
		vals = append(vals, float64(int64(word)>>40)/pow10[scale])
	}
	nparts := 1 + rng.Intn(4)
	parts := make([][]float64, nparts)
	for _, v := range vals {
		k := rng.Intn(nparts)
		parts[k] = append(parts[k], v)
	}
	partials := make([]*AggPartial, nparts)
	for k, pv := range parts {
		tab := New()
		valid := make([]bool, len(pv))
		for i, v := range pv {
			valid[i] = !math.IsNaN(v)
		}
		if err := tab.AddFloatsValid("x", pv, valid); err != nil {
			t.Fatal(err)
		}
		g := NewGroupAggregator("", []string{"x"})
		if err := g.AddEncoded(Encode(tab), nil); err != nil {
			t.Fatal(err)
		}
		partials[k] = g.Partial()
	}
	g := NewGroupAggregator("", []string{"x"})
	for _, k := range rng.Perm(nparts) {
		if err := g.AddPartial(partials[k]); err != nil {
			t.Fatal(err)
		}
	}
	checkExact(t, "merged", &g.Totals()[0], oracleOfValues(vals))
}
