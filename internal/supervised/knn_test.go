package supervised

import (
	"math"
	"testing"
	"testing/quick"

	"indice/internal/epc"
	"indice/internal/synth"
)

func TestNewKNNValidation(t *testing.T) {
	if _, err := NewKNN(0); err == nil {
		t.Fatal("want error for k=0")
	}
	m, err := NewKNN(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FitRegression(nil, nil); err == nil {
		t.Fatal("want error for empty training set")
	}
	if err := m.FitRegression([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("want error for length mismatch")
	}
	if err := m.FitRegression([][]float64{{1}, {2}}, []float64{1, 2}); err == nil {
		t.Fatal("want error for k > n")
	}
	if err := m.FitRegression([][]float64{{1}, {math.NaN()}, {3}}, []float64{1, 2, 3}); err == nil {
		t.Fatal("want error for NaN feature")
	}
	if err := m.FitRegression([][]float64{{1}, {2}, {3}}, []float64{1, math.Inf(1), 3}); err == nil {
		t.Fatal("want error for Inf target")
	}
}

func TestKNNRegressionExact(t *testing.T) {
	// y = 2x; 1-NN on a training point reproduces its target.
	m, _ := NewKNN(1)
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{2, 4, 6, 8}
	if err := m.FitRegression(X, y); err != nil {
		t.Fatal(err)
	}
	got, err := m.PredictValue([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("predict = %v", got)
	}
	// 2-NN between points averages.
	m2, _ := NewKNN(2)
	if err := m2.FitRegression(X, y); err != nil {
		t.Fatal(err)
	}
	got, _ = m2.PredictValue([]float64{2.5})
	if got != 5 {
		t.Fatalf("2-NN predict = %v", got)
	}
}

func TestSplitIndices(t *testing.T) {
	train, test, err := SplitIndices(100, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatal("index duplicated across split")
		}
		seen[i] = true
	}
	if len(seen) != 100 {
		t.Fatalf("covered %d indices", len(seen))
	}
	// Deterministic.
	train2, _, _ := SplitIndices(100, 0.2, 7)
	for i := range train {
		if train[i] != train2[i] {
			t.Fatal("split not deterministic")
		}
	}
	if _, _, err := SplitIndices(1, 0.5, 1); err == nil {
		t.Fatal("want error for n<2")
	}
	if _, _, err := SplitIndices(10, 0, 1); err == nil {
		t.Fatal("want error for frac=0")
	}
}

func TestMetrics(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	perfect := []float64{1, 2, 3, 4}
	r2, err := R2(truth, perfect)
	if err != nil || r2 != 1 {
		t.Fatalf("R2 = %v, %v", r2, err)
	}
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	r2, _ = R2(truth, meanPred)
	if math.Abs(r2) > 1e-12 {
		t.Fatalf("R2 of mean predictor = %v, want 0", r2)
	}
	mae, _ := MAE(truth, []float64{2, 3, 4, 5})
	if mae != 1 {
		t.Fatalf("MAE = %v", mae)
	}
	if _, err := R2(truth, truth[:2]); err == nil {
		t.Fatal("want error for length mismatch")
	}
}

func TestR2RangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		truth := make([]float64, len(raw))
		pred := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
			truth[i] = v
			pred[i] = v * 0.9 // systematically biased predictor
		}
		r2, err := R2(truth, pred)
		if err != nil {
			return false
		}
		return r2 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestKNNOnSyntheticEPCs is the energy-scientist benchmarking flow:
// predict EPH from the five thermo-physical attributes and the energy
// class from the same features.
func TestKNNOnSyntheticEPCs(t *testing.T) {
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 40, 10
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 2500
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		t.Fatal(err)
	}
	X, rows, err := ds.Table.Matrix(epc.CaseStudyAttributes...)
	if err != nil {
		t.Fatal(err)
	}
	eph, _ := ds.Table.Floats(epc.AttrEPH)
	y := make([]float64, len(rows))
	for i, r := range rows {
		y[i] = eph[r]
	}

	train, test, err := SplitIndices(len(X), 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(idx []int) ([][]float64, []float64) {
		xs := make([][]float64, len(idx))
		ys := make([]float64, len(idx))
		for i, r := range idx {
			xs[i], ys[i] = X[r], y[r]
		}
		return xs, ys
	}
	trX, trY := pick(train)
	teX, teY := pick(test)

	// Regression: EPH is physically determined by the features up to
	// noise, so kNN must clearly beat the mean predictor.
	reg, _ := NewKNN(8)
	if err := reg.FitRegression(trX, trY); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(teX))
	for i, x := range teX {
		p, err := reg.PredictValue(x)
		if err != nil {
			t.Fatal(err)
		}
		pred[i] = p
	}
	r2, err := R2(teY, pred)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.5 {
		t.Fatalf("kNN regression R2 = %.3f, want > 0.5", r2)
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	ccfg := synth.DefaultCityConfig()
	ccfg.Streets, ccfg.CivicsPerStreet = 40, 10
	city, err := synth.GenerateCity(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := synth.DefaultConfig()
	gcfg.Certificates = 5000
	ds, err := synth.Generate(gcfg, city)
	if err != nil {
		b.Fatal(err)
	}
	X, rows, err := ds.Table.Matrix(epc.CaseStudyAttributes...)
	if err != nil {
		b.Fatal(err)
	}
	eph, _ := ds.Table.Floats(epc.AttrEPH)
	y := make([]float64, len(rows))
	for i, r := range rows {
		y[i] = eph[r]
	}
	m, _ := NewKNN(8)
	if err := m.FitRegression(X, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictValue(X[i%len(X)]); err != nil {
			b.Fatal(err)
		}
	}
}
