package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randRows(rng *rand.Rand, n, dim int, scale float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for d := range rows[i] {
			rows[i][d] = (rng.Float64()*2 - 1) * scale
		}
	}
	return rows
}

func TestFromRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randRows(rng, 17, 5, 3)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 17 || m.Cols() != 5 || m.stride != 5 {
		t.Fatalf("shape %dx%d stride %d", m.Rows(), m.Cols(), m.stride)
	}
	for i, r := range rows {
		got := m.Row(i)
		for d := range r {
			if got[d] != r[d] {
				t.Fatalf("(%d,%d) = %v want %v", i, d, got[d], r[d])
			}
		}
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
}

func TestRowIsCapped(t *testing.T) {
	m, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Row(1)
	if len(r) != 4 || cap(r) != 4 {
		t.Fatalf("row len/cap = %d/%d", len(r), cap(r))
	}
}

func TestFromDataValidation(t *testing.T) {
	data := make([]float64, 10)
	cases := []struct {
		rows, cols, stride int
		ok                 bool
	}{
		{2, 3, 5, true},  // needs (2-1)*5+3 = 8 <= 10
		{2, 3, 3, true},  // needs 6
		{3, 3, 4, false}, // needs 11 > 10
		{2, 3, 2, false}, // stride < cols
		{-1, 3, 3, false},
		{2, -1, 3, false},
		{0, 3, 3, true},
		{4, 0, 0, true}, // zero-width rows need no storage
	}
	for _, c := range cases {
		_, err := FromData(data, c.rows, c.cols, c.stride)
		if (err == nil) != c.ok {
			t.Fatalf("FromData(%d,%d,%d): err=%v want ok=%v", c.rows, c.cols, c.stride, err, c.ok)
		}
	}
}

func TestStrideView(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randRows(rng, 23, 3, 1)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.StrideView(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 5 {
		t.Fatalf("view rows = %d", v.Rows())
	}
	for i := 0; i < v.Rows(); i++ {
		want := rows[i*4]
		got := v.Row(i)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("view row %d col %d = %v want %v", i, d, got[d], want[d])
			}
		}
	}
	// Uncapped: ceil(23/4) = 6 rows.
	v, err = m.StrideView(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows() != 6 {
		t.Fatalf("uncapped view rows = %d", v.Rows())
	}
	if _, err := m.StrideView(0, 1); err == nil {
		t.Fatal("want error for step 0")
	}
}

func TestFinite(t *testing.T) {
	m, _ := New(3, 2)
	if got := m.Finite(); got != -1 {
		t.Fatalf("Finite = %d", got)
	}
	m.Row(2)[1] = math.NaN()
	if got := m.Finite(); got != 2 {
		t.Fatalf("Finite = %d", got)
	}
	m.Row(2)[1] = 0
	m.Row(1)[0] = math.Inf(-1)
	if got := m.Finite(); got != 1 {
		t.Fatalf("Finite = %d", got)
	}
}

// TestSqDistsToWithinBound is the property test the screening trick
// depends on: the expanded kernel diverges from the exact loop by less
// than SqDistErrorBound for every pair.
func TestSqDistsToWithinBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(16)
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(12)
		scale := math.Pow(10, float64(rng.Intn(7))-3) // 1e-3 .. 1e3
		x, _ := FromRows(randRows(rng, n, dim, scale))
		c, _ := FromRows(randRows(rng, k, dim, scale))
		xn := x.RowNorms(nil)
		cn := c.RowNorms(nil)
		var dbuf []float64
		for i := 0; i < n; i++ {
			dbuf = SqDistsTo(dbuf, x.Row(i), xn[i], c, cn)
			for j := 0; j < k; j++ {
				exact := SqDist(x.Row(i), c.Row(j))
				bound := SqDistErrorBound(dim, xn[i], cn[j])
				if diff := math.Abs(dbuf[j] - exact); diff > bound {
					t.Logf("seed %d: |approx-exact| = %g > bound %g (dim %d scale %g)",
						seed, diff, bound, dim, scale)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestColReductionsMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randRows(rng, 50, 6, 5)
	m, _ := FromRows(rows)
	mask := make([]bool, 50)
	for i := range mask {
		mask[i] = rng.Intn(3) != 0
	}
	mins, maxs := m.ColMinMax(nil, nil, mask)
	for d := 0; d < 6; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range rows {
			if !mask[i] {
				continue
			}
			if r[d] < lo {
				lo = r[d]
			}
			if r[d] > hi {
				hi = r[d]
			}
		}
		if mins[d] != lo || maxs[d] != hi {
			t.Fatalf("col %d: got (%v,%v) want (%v,%v)", d, mins[d], maxs[d], lo, hi)
		}
	}
}

// TestNormalizeColumnsMatchesReference pins Normalize against the
// historical [][]float64 implementation bitwise, bounds included.
func TestNormalizeColumnsMatchesReference(t *testing.T) {
	normalizeRef := func(mat [][]float64) (out [][]float64, mins, maxs []float64) {
		if len(mat) == 0 {
			return nil, nil, nil
		}
		dim := len(mat[0])
		mins = make([]float64, dim)
		maxs = make([]float64, dim)
		for d := range mins {
			mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
		}
		for _, r := range mat {
			for d, v := range r {
				if v < mins[d] {
					mins[d] = v
				}
				if v > maxs[d] {
					maxs[d] = v
				}
			}
		}
		out = make([][]float64, len(mat))
		for i, r := range mat {
			nr := make([]float64, dim)
			for d, v := range r {
				if span := maxs[d] - mins[d]; span > 0 {
					nr[d] = (v - mins[d]) / span
				}
			}
			out[i] = nr
		}
		return out, mins, maxs
	}
	rng := rand.New(rand.NewSource(13))
	rows := randRows(rng, 40, 5, 100)
	for i := range rows { // make one column constant
		rows[i][2] = 7
	}
	m, _ := FromRows(rows)
	mins, maxs := m.Normalize()
	want, wantMins, wantMaxs := normalizeRef(rows)
	if !slices.Equal(mins, wantMins) || !slices.Equal(maxs, wantMaxs) {
		t.Fatalf("bounds (%v, %v) want (%v, %v)", mins, maxs, wantMins, wantMaxs)
	}
	for i := range want {
		for d, w := range want[i] {
			if got := m.Row(i)[d]; got != w {
				t.Fatalf("(%d,%d) = %v want %v", i, d, got, w)
			}
		}
	}
	if mins, maxs := (&Matrix{}).Normalize(); mins != nil || maxs != nil {
		t.Fatalf("empty matrix bounds (%v, %v)", mins, maxs)
	}
}

// FuzzFromDataShape fuzzes the shape/stride validation: no accepted
// combination may permit an out-of-range Row access, and no input may
// panic the constructor.
func FuzzFromDataShape(f *testing.F) {
	f.Add(10, 2, 3, 5)
	f.Add(0, 0, 0, 0)
	f.Add(8, 3, 3, 2)
	f.Add(4, -1, 2, 2)
	f.Add(16, 1<<30, 1<<30, 1<<30)
	f.Fuzz(func(t *testing.T, n, rows, cols, stride int) {
		if n < 0 || n > 1<<16 {
			n %= 1 << 16
			if n < 0 {
				n = -n
			}
		}
		data := make([]float64, n)
		m, err := FromData(data, rows, cols, stride)
		if err != nil {
			return
		}
		if m.Rows() != rows || m.Cols() != cols {
			t.Fatalf("accepted shape mutated: %dx%d vs %dx%d", m.Rows(), m.Cols(), rows, cols)
		}
		for i := 0; i < m.Rows(); i++ {
			r := m.Row(i) // must not panic for any accepted shape
			if len(r) != cols {
				t.Fatalf("row %d has len %d, want %d", i, len(r), cols)
			}
		}
	})
}

func BenchmarkSqDistsTo(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, _ := FromRows(randRows(rng, 1000, 5, 1))
	c, _ := FromRows(randRows(rng, 8, 5, 1))
	xn := x.RowNorms(nil)
	cn := c.RowNorms(nil)
	dbuf := make([]float64, c.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i % x.Rows()
		SqDistsTo(dbuf, x.Row(row), xn[row], c, cn)
	}
}
