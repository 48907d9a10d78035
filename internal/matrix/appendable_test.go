package matrix

import (
	"testing"
)

func TestAppendableGrowsAndViews(t *testing.T) {
	a, err := NewAppendable(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAppendable(0); err == nil {
		t.Fatal("want error for zero columns")
	}
	if err := a.AppendRow([]float64{1, 2}); err == nil {
		t.Fatal("want error for short row")
	}
	for i := 0; i < 100; i++ {
		if err := a.AppendRow([]float64{float64(i), float64(2 * i), float64(3 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	if a.rows != 100 || a.Cols() != 3 {
		t.Fatalf("shape = %dx%d", a.rows, a.Cols())
	}
	m := a.Matrix()
	if m.Rows() != 100 || m.Cols() != 3 {
		t.Fatalf("view shape = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 100; i++ {
		if m.At(i, 1) != float64(2*i) {
			t.Fatalf("view (%d,1) = %v", i, m.At(i, 1))
		}
	}
}

// TestAppendableEarlierViewSurvivesAppends pins the lineage invariant:
// a Matrix view taken at epoch N keeps its exact contents while later
// appends extend (and possibly reallocate) the buffer.
func TestAppendableEarlierViewSurvivesAppends(t *testing.T) {
	a, err := NewAppendable(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.AppendRow([]float64{float64(i), -float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	early := a.Matrix()
	// Append far past any plausible capacity so at least one reallocation
	// happens while the early view is live.
	for i := 10; i < 5000; i++ {
		if err := a.AppendRow([]float64{float64(i), -float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if early.Rows() != 10 {
		t.Fatalf("early view rows = %d", early.Rows())
	}
	for i := 0; i < 10; i++ {
		if early.At(i, 0) != float64(i) || early.At(i, 1) != -float64(i) {
			t.Fatalf("early view row %d = (%v, %v)", i, early.At(i, 0), early.At(i, 1))
		}
	}
	late := a.Matrix()
	if late.Rows() != 5000 || late.At(4999, 0) != 4999 {
		t.Fatalf("late view = %dx%d, last = %v", late.Rows(), late.Cols(), late.At(4999, 0))
	}
}

func TestAppendableAmortizedGrowth(t *testing.T) {
	row := []float64{1, 2, 3, 4}
	// With capacity doubling, 100k appends reallocate only O(log n) times;
	// measure allocations per append and require them to be far below one
	// per call (a linear-copy regression would push this toward O(n)).
	const n = 100_000
	allocs := testing.AllocsPerRun(1, func() {
		a, err := NewAppendable(4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := a.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 64 {
		t.Fatalf("%v allocations for %d appends; capacity doubling regressed", allocs, n)
	}
}
