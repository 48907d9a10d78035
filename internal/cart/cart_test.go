package cart

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// stepData builds a piecewise-constant response with jumps at the given
// breakpoints over x in [0, 1).
func stepData(seed int64, n int, breaks []float64, levels []float64, noise float64) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		xs[i] = x
		lvl := levels[0]
		for j, b := range breaks {
			if x >= b {
				lvl = levels[j+1]
			}
		}
		ys[i] = lvl + rng.NormFloat64()*noise
	}
	return xs, ys
}

func TestFitRecoversSingleStep(t *testing.T) {
	xs, ys := stepData(1, 2000, []float64{0.5}, []float64{0, 10}, 0.5)
	tree, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	splits := tree.SplitPoints()
	if len(splits) == 0 {
		t.Fatal("no splits found")
	}
	// The dominant split must be near 0.5.
	found := false
	for _, s := range splits {
		if math.Abs(s-0.5) < 0.05 {
			found = true
		}
	}
	if !found {
		t.Fatalf("splits = %v, want one near 0.5", splits)
	}
	// Predictions approximate the two levels.
	if p := tree.Predict(0.2); math.Abs(p-0) > 1 {
		t.Fatalf("Predict(0.2) = %v", p)
	}
	if p := tree.Predict(0.9); math.Abs(p-10) > 1 {
		t.Fatalf("Predict(0.9) = %v", p)
	}
}

func TestFitRecoversThreeLevels(t *testing.T) {
	xs, ys := stepData(2, 4000, []float64{0.33, 0.66}, []float64{0, 5, 12}, 0.4)
	tree, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() < 3 {
		t.Fatalf("leaves = %d, want >= 3", tree.Leaves())
	}
	near := func(target float64) bool {
		for _, s := range tree.SplitPoints() {
			if math.Abs(s-target) < 0.06 {
				return true
			}
		}
		return false
	}
	if !near(0.33) || !near(0.66) {
		t.Fatalf("splits = %v", tree.SplitPoints())
	}
}

func TestFitConstantResponse(t *testing.T) {
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 7
	}
	tree, err := Fit(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Fatal("constant response should not split")
	}
	if tree.Predict(50) != 7 {
		t.Fatalf("Predict = %v", tree.Predict(50))
	}
}

func TestFitRespectsMaxDepthAndMinLeaf(t *testing.T) {
	xs, ys := stepData(3, 3000, []float64{0.2, 0.4, 0.6, 0.8}, []float64{0, 3, 6, 9, 12}, 0.2)
	cfg := Config{MaxDepth: 2, MinLeaf: 50, MinImprove: 1e-4}
	tree, err := Fit(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() > 4 {
		t.Fatalf("leaves = %d, exceeds depth-2 maximum of 4", tree.Leaves())
	}
	var checkLeafSize func(*Node)
	checkLeafSize = func(n *Node) {
		if n.IsLeaf() {
			if n.N < cfg.MinLeaf {
				t.Fatalf("leaf with %d samples < MinLeaf %d", n.N, cfg.MinLeaf)
			}
			return
		}
		checkLeafSize(n.Left)
		checkLeafSize(n.Right)
	}
	checkLeafSize(tree.Root)
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("want too-few-samples error")
	}
}

func TestFitDropsNonFinite(t *testing.T) {
	xs, ys := stepData(4, 500, []float64{0.5}, []float64{0, 8}, 0.3)
	xs[0], ys[1] = math.NaN(), math.Inf(1)
	if _, err := Fit(xs, ys, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestBinningAssign(t *testing.T) {
	b, err := NewBinning("u_windows", []float64{2.05, 2.45, 3.35}, 1.1, 5.5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Classes() != 4 {
		t.Fatalf("classes = %d", b.Classes())
	}
	cases := map[float64]string{
		1.5:  "Low",
		2.05: "Low", // closed right edge
		2.2:  "Medium",
		3.0:  "High",
		4.0:  "Very high",
		9.0:  "Very high", // above max clamps to last
		0.5:  "Low",       // below min clamps to first
	}
	for x, want := range cases {
		if got := b.Assign(x); got != want {
			t.Errorf("Assign(%v) = %q, want %q", x, got, want)
		}
	}
	if got := b.Assign(math.NaN()); got != "" {
		t.Fatalf("Assign(NaN) = %q", got)
	}
}

func TestBinningIntervalNotation(t *testing.T) {
	// Footnote 4: Low = [1.1, 2.05], Medium = (2.05, 2.45], ...
	b, err := NewBinning("u_windows", []float64{2.05, 2.45, 3.35}, 1.1, 5.5)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := b.Interval("Low")
	if !ok || iv != "[1.1, 2.05]" {
		t.Fatalf("Low interval = %q", iv)
	}
	iv, _ = b.Interval("Medium")
	if iv != "(2.05, 2.45]" {
		t.Fatalf("Medium interval = %q", iv)
	}
	iv, _ = b.Interval("Very high")
	if iv != "(3.35, 5.5]" {
		t.Fatalf("Very high interval = %q", iv)
	}
	if _, ok := b.Interval("Nope"); ok {
		t.Fatal("unknown class found")
	}
	if s := b.String(); !strings.Contains(s, "4 classes for u_windows") {
		t.Fatalf("String = %q", s)
	}
}

func TestBinningDropsDegenerateEdges(t *testing.T) {
	b, err := NewBinning("x", []float64{0.5, 0.5, -1, 99}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Classes() != 2 || len(b.Edges) != 1 || b.Edges[0] != 0.5 {
		t.Fatalf("binning = %+v", b)
	}
	if _, err := NewBinning("", nil, 0, 1); err == nil {
		t.Fatal("want error for empty attr")
	}
}

func TestDiscretizeEndToEnd(t *testing.T) {
	// Response rises with x in steps: the discretization must produce
	// ordered classes whose means rise.
	xs, ys := stepData(5, 3000, []float64{0.4, 0.7}, []float64{50, 120, 250}, 10)
	b, err := Discretize("eph_driver", xs, ys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.Classes() < 3 {
		t.Fatalf("classes = %d, want >= 3", b.Classes())
	}
	// Class means of the response must be monotone in class order.
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for i, x := range xs {
		c := b.Assign(x)
		sums[c] += ys[i]
		counts[c]++
	}
	// Allow slack well below the smallest true level gap (70): spurious
	// splits inside a flat region yield near-equal class means.
	prev := math.Inf(-1)
	for _, l := range b.Labels {
		if counts[l] == 0 {
			continue
		}
		m := sums[l] / float64(counts[l])
		if m < prev-10 {
			t.Fatalf("class %q mean %v below previous %v", l, m, prev)
		}
		if m > prev {
			prev = m
		}
	}
}

func TestDiscretizeError(t *testing.T) {
	if _, err := Discretize("x", []float64{1, 2}, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("want error for too-small input")
	}
}

func BenchmarkFit(b *testing.B) {
	xs, ys := stepData(6, 25000, []float64{0.3, 0.6}, []float64{40, 90, 200}, 15)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, ys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// DefaultConfig returns the growth defaults.
func DefaultConfig() Config {
	return Config{MaxDepth: 3, MinLeaf: 30, MinImprove: 1e-3}
}

// Predict returns the leaf mean for x.
func (t *Tree) Predict(x float64) float64 {
	n := t.Root
	for !n.IsLeaf() {
		if x < n.Split {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Mean
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int {
	var count func(*Node) int
	count = func(n *Node) int {
		if n.IsLeaf() {
			return 1
		}
		return count(n.Left) + count(n.Right)
	}
	return count(t.Root)
}
