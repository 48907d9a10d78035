package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if m != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
}

func TestMeanIgnoresNaN(t *testing.T) {
	m, err := Mean([]float64{1, math.NaN(), 3, math.Inf(1)})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if m != 2 {
		t.Fatalf("Mean = %v, want 2", m)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	if _, err := Mean([]float64{math.NaN()}); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty for all-NaN", err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	if !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
	sd, _ := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(sd, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", sd)
	}
}

func TestVarianceShort(t *testing.T) {
	if _, err := Variance([]float64{1}); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.p)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.p, err)
		}
		if !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	// Type-7 on {1,2,3,4}: p=0.5 -> 2.5.
	got, _ := Quantile([]float64{4, 1, 3, 2}, 0.5)
	if !almostEq(got, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestQuantileOutOfRange(t *testing.T) {
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Fatal("want error for p > 1")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("want error for p < 0")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := Clean(raw)
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			q, err := Quantile(xs, p)
			if err != nil {
				return false
			}
			if q < prev-1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRangeProperty(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		xs := Clean(raw)
		if len(xs) == 0 {
			return true
		}
		p := float64(p8) / 255
		q, err := Quantile(xs, p)
		if err != nil {
			return false
		}
		min, max, _ := MinMax(xs)
		return q >= min-1e-9 && q <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	d, err := Describe([]float64{1, 2, 3, 4, 5, math.NaN()})
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if d.Count != 5 || d.Mean != 3 || d.Median != 3 || d.Min != 1 || d.Max != 5 {
		t.Fatalf("Describe = %+v", d)
	}
	if !almostEq(d.Q1, 2, 1e-12) || !almostEq(d.Q3, 4, 1e-12) {
		t.Fatalf("quartiles = %v/%v", d.Q1, d.Q3)
	}
}

func TestFences(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	f, err := Fences(xs, 1.5)
	if err != nil {
		t.Fatalf("Fences: %v", err)
	}
	if f.Q1 >= f.Q3 {
		t.Fatalf("Q1 %v >= Q3 %v", f.Q1, f.Q3)
	}
	if 100 <= f.Upper {
		t.Fatalf("planted outlier 100 inside fence %v", f.Upper)
	}
	if 5 > f.Upper || 5 < f.Lower {
		t.Fatalf("central value outside fences [%v, %v]", f.Lower, f.Upper)
	}
}

func TestMAD(t *testing.T) {
	// median = 3; deviations {2,1,0,1,2} -> MAD = 1.
	mad, err := MAD([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("MAD: %v", err)
	}
	if mad != 1 {
		t.Fatalf("MAD = %v, want 1", mad)
	}
}

func TestModifiedZScores(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 50}
	zs, err := ModifiedZScores(xs)
	if err != nil {
		t.Fatalf("ModifiedZScores: %v", err)
	}
	if len(zs) != len(xs) {
		t.Fatalf("len = %d", len(zs))
	}
	if zs[5] <= 3.5 {
		t.Fatalf("planted outlier score %v not above 3.5 cutoff", zs[5])
	}
	if math.Abs(zs[2]) > 1 {
		t.Fatalf("central score too big: %v", zs[2])
	}
}

func TestModifiedZScoresZeroMAD(t *testing.T) {
	zs, err := ModifiedZScores([]float64{5, 5, 5, 5, 9})
	if err != nil {
		t.Fatalf("err: %v", err)
	}
	if zs[0] != 0 {
		t.Fatalf("score at median = %v, want 0", zs[0])
	}
	if !math.IsInf(zs[4], 1) {
		t.Fatalf("score away from median = %v, want +Inf", zs[4])
	}
}

func TestLogGamma(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
		{10, math.Log(362880)},
	}
	for _, c := range cases {
		if got := LogGamma(c.x); !almostEq(got, c.want, 1e-9) {
			t.Errorf("LogGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Fatalf("I_0 = %v", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Fatalf("I_1 = %v", got)
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	for _, nu := range []float64{1, 2, 5, 10, 30} {
		for _, x := range []float64{0.3, 1, 2.5} {
			p1 := StudentTCDF(x, nu)
			p2 := StudentTCDF(-x, nu)
			if !almostEq(p1+p2, 1, 1e-10) {
				t.Errorf("CDF(%v)+CDF(-%v) = %v for nu=%v", x, x, p1+p2, nu)
			}
		}
		if !almostEq(StudentTCDF(0, nu), 0.5, 1e-12) {
			t.Errorf("CDF(0) != 0.5 for nu=%v", nu)
		}
	}
}

func TestStudentTQuantileKnown(t *testing.T) {
	// Standard table values: t_{0.975, 10} = 2.228, t_{0.95, 5} = 2.015.
	q, err := StudentTQuantile(0.975, 10)
	if err != nil {
		t.Fatalf("quantile: %v", err)
	}
	if !almostEq(q, 2.228, 2e-3) {
		t.Fatalf("t(0.975,10) = %v, want ~2.228", q)
	}
	q, _ = StudentTQuantile(0.95, 5)
	if !almostEq(q, 2.015, 2e-3) {
		t.Fatalf("t(0.95,5) = %v, want ~2.015", q)
	}
}

func TestStudentTQuantileRoundTrip(t *testing.T) {
	for _, nu := range []float64{3, 8, 25} {
		for _, p := range []float64{0.05, 0.3, 0.5, 0.8, 0.99} {
			q, err := StudentTQuantile(p, nu)
			if err != nil {
				t.Fatalf("quantile: %v", err)
			}
			if back := StudentTCDF(q, nu); !almostEq(back, p, 1e-8) {
				t.Errorf("CDF(Q(%v)) = %v for nu=%v", p, back, nu)
			}
		}
	}
}

func TestGESDRosnerStyle(t *testing.T) {
	// Normal-looking data with three gross outliers appended.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 0, 53)
	for i := 0; i < 50; i++ {
		xs = append(xs, rng.NormFloat64())
	}
	xs = append(xs, 12, 14, -13)
	res, out, err := GESD(xs, 7, 0.05)
	if err != nil {
		t.Fatalf("GESD: %v", err)
	}
	if len(res) != 7 {
		t.Fatalf("iterations = %d, want 7", len(res))
	}
	if len(out) != 3 {
		t.Fatalf("outliers = %d (%v), want the 3 planted ones", len(out), out)
	}
	found := map[int]bool{}
	for _, i := range out {
		found[i] = true
	}
	for _, want := range []int{50, 51, 52} {
		if !found[want] {
			t.Errorf("planted outlier index %d not detected; got %v", want, out)
		}
	}
}

func TestGESDNoOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	_, out, err := GESD(xs, 5, 0.01)
	if err != nil {
		t.Fatalf("GESD: %v", err)
	}
	if len(out) > 1 {
		t.Fatalf("false positives: %v", out)
	}
}

func TestGESDErrors(t *testing.T) {
	if _, _, err := GESD([]float64{1, 2}, 1, 0.05); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
	if _, _, err := GESD([]float64{1, 2, 3, 4}, 0, 0.05); err == nil {
		t.Fatal("want error for maxOutliers < 1")
	}
	if _, _, err := GESD([]float64{1, 2, 3, 4}, 1, 1.5); err == nil {
		t.Fatal("want error for alpha out of range")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonConstant(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if r != 0 {
		t.Fatalf("r = %v, want 0 for constant input", r)
	}
}

func TestPearsonSymmetryProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n < 3 {
			return true
		}
		xs, ys := Clean(a[:n]), Clean(b[:n])
		if len(xs) != n || len(ys) != n {
			return true // skip inputs with non-finite values
		}
		for i := 0; i < n; i++ {
			// Avoid float64 overflow in the sums, which is out of scope here.
			if math.Abs(xs[i]) > 1e150 || math.Abs(ys[i]) > 1e150 {
				return true
			}
		}
		r1, e1 := Pearson(xs, ys)
		r2, e2 := Pearson(ys, xs)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return true
		}
		return almostEq(r1, r2, 1e-12) && r1 >= -1 && r1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	cols := [][]float64{
		{1, 2, 3, 4, 5},
		{2, 4, 6, 8, 10},
		{5, 3, 8, 1, 9},
	}
	m, err := NewCorrelationMatrix([]string{"a", "b", "c"}, cols)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	for i := 0; i < 3; i++ {
		if m.Coef[i][i] != 1 {
			t.Fatalf("diagonal not 1: %v", m.Coef[i][i])
		}
		for j := 0; j < 3; j++ {
			if !almostEq(m.Coef[i][j], m.Coef[j][i], 1e-12) {
				t.Fatalf("asymmetric at %d,%d", i, j)
			}
		}
	}
	if !almostEq(m.Coef[0][1], 1, 1e-12) {
		t.Fatalf("coef[0][1] = %v, want 1", m.Coef[0][1])
	}
	if m.WeaklyCorrelated(0.9) {
		t.Fatal("matrix with perfect pair reported weakly correlated")
	}
}

func TestCorrelationMatrixMismatch(t *testing.T) {
	if _, err := NewCorrelationMatrix([]string{"a"}, nil); err == nil {
		t.Fatal("want error on names/cols mismatch")
	}
}

func TestHistogramBasic(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatalf("histogram: %v", err)
	}
	if len(h.Counts) != 5 || len(h.Edges) != 6 {
		t.Fatalf("shape = %d bins / %d edges", len(h.Counts), len(h.Edges))
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 || h.Total != 10 {
		t.Fatalf("total = %d/%d", total, h.Total)
	}
	for _, c := range h.Counts {
		if c != 2 {
			t.Fatalf("uniform data unevenly binned: %v", h.Counts)
		}
	}
}

func TestHistogramConstant(t *testing.T) {
	h, err := NewHistogram([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatalf("histogram: %v", err)
	}
	if len(h.Counts) != 1 || h.Counts[0] != 3 {
		t.Fatalf("constant histogram = %+v", h)
	}
}

func TestHistogramCountConservationProperty(t *testing.T) {
	f := func(raw []float64, b8 uint8) bool {
		xs := Clean(raw)
		if len(xs) == 0 {
			return true
		}
		bins := int(b8)%20 + 1
		h, err := NewHistogram(xs, bins)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		// Non-finite values are skipped in place, as if cleaned first.
		dirty := []float64{math.NaN()}
		for _, x := range xs {
			dirty = append(dirty, x, math.Inf(1), math.Inf(-1))
		}
		hd, err := NewHistogram(dirty, bins)
		return total == len(xs) && err == nil && fmt.Sprint(*hd) == fmt.Sprint(*h) // NaN edges print alike
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeCategorical(t *testing.T) {
	vs := []string{"a", "b", "a", "c", "a", "b"}
	d := DescribeCategorical(vs, 2)
	if d.Count != 6 || d.Distinct != 3 {
		t.Fatalf("d = %+v", d)
	}
	if d.Mode != "a" || d.ModeFreq != 3 {
		t.Fatalf("mode = %v/%v", d.Mode, d.ModeFreq)
	}
	if len(d.TopK) != 2 || d.TopK[0].Value != "a" || d.TopK[1].Value != "b" {
		t.Fatalf("topk = %+v", d.TopK)
	}
}

func TestDescribeCategoricalEmpty(t *testing.T) {
	d := DescribeCategorical(nil, 3)
	if d.Count != 0 || d.Distinct != 0 || len(d.TopK) != 0 {
		t.Fatalf("d = %+v", d)
	}
}

func BenchmarkQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 25000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quantile(xs, 0.75); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGESD(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	xs[0], xs[1] = 40, -35
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GESD(xs, 10, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Perfect monotone nonlinear relation: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	rs, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rs, 1, 1e-12) {
		t.Fatalf("spearman = %v, want 1", rs)
	}
	rp, _ := Pearson(xs, ys)
	if rp >= 1-1e-9 {
		t.Fatalf("pearson = %v, expected < 1 for nonlinear relation", rp)
	}
	// Reversed: -1.
	rev := []float64{6, 5, 4, 3, 2, 1}
	rs, _ = Spearman(xs, rev)
	if !almostEq(rs, -1, 1e-12) {
		t.Fatalf("spearman = %v, want -1", rs)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties the average-rank convention keeps |rho| <= 1.
	xs := []float64{1, 1, 2, 2, 3}
	ys := []float64{2, 2, 4, 4, 6}
	rs, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rs, 1, 1e-12) {
		t.Fatalf("spearman with ties = %v", rs)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Spearman([]float64{1, math.NaN()}, []float64{1, 2}); err != ErrShort {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestSpearmanRangeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n < 3 {
			return true
		}
		xs, ys := Clean(a[:n]), Clean(b[:n])
		if len(xs) != n || len(ys) != n {
			return true
		}
		rs, err := Spearman(xs, ys)
		if err != nil {
			return false
		}
		return rs >= -1-1e-9 && rs <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRanks(t *testing.T) {
	got := ranks([]float64{10, 30, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v", got)
		}
	}
	// Ties average: {5, 5, 9} -> {1.5, 1.5, 3}.
	got = ranks([]float64{5, 5, 9})
	if got[0] != 1.5 || got[1] != 1.5 || got[2] != 3 {
		t.Fatalf("tied ranks = %v", got)
	}
}
