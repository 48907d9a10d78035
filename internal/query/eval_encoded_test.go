package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indice/internal/table"
)

// encEquivTable builds tables that hit every encoded layout and every
// Kleene edge: dict and raw strings, packed and raw floats, NULLs, NaN,
// empty strings (valid and invalid), duplicate-heavy columns.
func encEquivTable(t testing.TB, rng *rand.Rand, rows int) *table.Table {
	t.Helper()
	tab := table.New()
	classes := []string{"A", "B", "C", "", "D", "E", "F"}
	cls := make([]string, rows)
	clsValid := make([]bool, rows)
	ids := make([]string, rows)
	year := make([]float64, rows)
	yearValid := make([]bool, rows)
	eph := make([]float64, rows)
	for i := 0; i < rows; i++ {
		cls[i] = classes[rng.Intn(len(classes))]
		clsValid[i] = rng.Intn(8) != 0
		if !clsValid[i] {
			cls[i] = ""
		}
		ids[i] = fmt.Sprintf("id-%05d", rng.Intn(rows*2))
		year[i] = float64(1950 + rng.Intn(80))
		yearValid[i] = rng.Intn(6) != 0
		eph[i] = rng.Float64()*500 - 50
		if rng.Intn(9) == 0 {
			eph[i] = math.NaN()
		}
	}
	if err := tab.AddStringsValid("class", cls, clsValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddStrings("cert_id", ids); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloatsValid("year", year, yearValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("eph", eph); err != nil {
		t.Fatal(err)
	}
	return tab
}

func randEncPredicate(rng *rand.Rand, depth int) Predicate {
	if depth > 0 && rng.Intn(2) == 0 {
		n := 2 + rng.Intn(2)
		kids := make([]Predicate, n)
		for i := range kids {
			kids[i] = randEncPredicate(rng, depth-1)
		}
		switch rng.Intn(3) {
		case 0:
			return And(kids)
		case 1:
			return Or(kids)
		default:
			return Not{P: randEncPredicate(rng, depth-1)}
		}
	}
	switch rng.Intn(4) {
	case 0:
		vals := []string{"A", "B", "C", "D", "E", "F", ""}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		return In{Attr: "class", Values: vals[:1+rng.Intn(4)]}
	case 1:
		return In{Attr: "cert_id", Values: []string{fmt.Sprintf("id-%05d", rng.Intn(600)), "absent"}}
	case 2:
		lo := float64(1950 + rng.Intn(80))
		return NumRange{Attr: "year", Min: lo - 0.5, Max: lo + float64(rng.Intn(30))}
	default:
		lo := rng.Float64()*400 - 50
		return NumRange{Attr: "eph", Min: lo, Max: lo + rng.Float64()*200}
	}
}

// TestMaskEncodedMatchesMaskBitwise pins the encoded evaluation path
// bitwise against both the compiled raw-table path and the naive
// Predicate.Mask reference.
func TestMaskEncodedMatchesMaskBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		rows := 1 + rng.Intn(300)
		tab := encEquivTable(t, rng, rows)
		enc := table.Encode(tab)
		p := randEncPredicate(rng, 2)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		wantRef, err := p.Mask(tab)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.MaskEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantRef) {
			t.Fatalf("trial %d (%s): mask length %d vs %d", trial, p, len(got), len(wantRef))
		}
		for i := range got {
			if got[i] != wantRef[i] {
				t.Fatalf("trial %d (%s): row %d: encoded=%v reference=%v", trial, p, i, got[i], wantRef[i])
			}
		}
		// Same evaluator, raw path, to confirm the shared buffers don't
		// leak state between the two entry points.
		gotRaw, err := ev.Mask(tab)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gotRaw {
			if gotRaw[i] != wantRef[i] {
				t.Fatalf("trial %d (%s): row %d: raw-after-encoded=%v reference=%v", trial, p, i, gotRaw[i], wantRef[i])
			}
		}
	}
}

// TestMaskEncodedRowsMatchesFullMask pins the sparse candidate re-check
// against the full encoded evaluation: mask[j] for ordinal rows[j] must
// equal bit rows[j] of the full mask, for random predicates, random
// ordinal subsets (duplicates and re-visits included), and both entry
// orders (sparse-then-full and full-then-sparse share node buffers).
func TestMaskEncodedRowsMatchesFullMask(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		rows := 1 + rng.Intn(300)
		tab := encEquivTable(t, rng, rows)
		enc := table.Encode(tab)
		p := randEncPredicate(rng, 2)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		ords := make([]int, rng.Intn(rows+1))
		for i := range ords {
			ords[i] = rng.Intn(rows)
		}
		sparse, err := ev.MaskEncodedRows(enc, ords)
		if err != nil {
			t.Fatal(err)
		}
		if len(sparse) != len(ords) {
			t.Fatalf("trial %d (%s): sparse mask has %d entries, want %d", trial, p, len(sparse), len(ords))
		}
		// Copy before the second evaluation: sparse aliases a buffer the
		// full path will overwrite.
		got := make([]bool, len(sparse))
		copy(got, sparse)
		full, err := ev.MaskEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range ords {
			if got[j] != full[r] {
				t.Fatalf("trial %d (%s): ordinal %d (row %d): sparse=%v full=%v", trial, p, j, r, got[j], full[r])
			}
		}
	}
}

func TestMaskEncodedRowsOpaqueAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := encEquivTable(t, rng, 120)
	enc := table.Encode(tab)
	p := Not{P: Or{opaquePred{attr: "class"}, NumRange{Attr: "year", Min: 1990, Max: 2000}}}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Mask(tab)
	if err != nil {
		t.Fatal(err)
	}
	ords := []int{119, 0, 60, 60, 3}
	got, err := ev.MaskEncodedRows(enc, ords)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range ords {
		if got[j] != want[r] {
			t.Fatalf("ordinal %d (row %d): %v vs %v", j, r, got[j], want[r])
		}
	}
	for _, bad := range []Predicate{
		In{Attr: "missing", Values: []string{"x"}},
		NumRange{Attr: "class", Min: 0, Max: 1}, // type mismatch
		opaquePred{attr: "missing"},
	} {
		ev, err := NewEvaluator(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.MaskEncodedRows(enc, ords); err == nil {
			t.Errorf("%v: want error", bad)
		}
	}
	if ev, err = NewEvaluator(opaquePred{attr: "class"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.MaskEncodedRows(enc, []int{120}); err == nil {
		t.Error("out-of-range ordinal against an opaque predicate: want error")
	}
}

// opaquePred is a Predicate implementation outside this package's known
// types: MaskEncoded must decode and fall back.
type opaquePred struct{ attr string }

func (o opaquePred) Mask(t *table.Table) ([]bool, error) {
	vals, err := t.Strings(o.attr)
	if err != nil {
		return nil, err
	}
	m := make([]bool, len(vals))
	for i, v := range vals {
		m[i] = v == "A"
	}
	return m, nil
}

func (o opaquePred) String() string { return "opaque" }

func TestMaskEncodedOpaqueFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := encEquivTable(t, rng, 200)
	enc := table.Encode(tab)
	p := And{opaquePred{attr: "class"}, NumRange{Attr: "year", Min: 1960, Max: 2010}}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Mask(tab)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.MaskEncoded(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestMaskEncodedErrors(t *testing.T) {
	tab := table.New()
	if err := tab.AddStrings("c", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	enc := table.Encode(tab)
	for _, p := range []Predicate{
		In{Attr: "missing", Values: []string{"x"}},
		NumRange{Attr: "c", Min: 0, Max: 1}, // type mismatch
		NumRange{Attr: "missing", Min: 0, Max: 1},
	} {
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.MaskEncoded(enc); err == nil {
			t.Errorf("%s: want error", p)
		}
	}
}

// MaskEncoded is MaskEncodedBits expanded to the []bool shape of Mask,
// for callers (and equivalence tests) that compare the two paths
// row-wise. The returned slice aliases an evaluator buffer.
func (e *Evaluator) MaskEncoded(enc *table.Encoded) ([]bool, error) {
	words, err := e.MaskEncodedBits(enc)
	if err != nil {
		return nil, err
	}
	rows := enc.NumRows()
	n := e.root
	// t and f resize as a pair — grow assumes equal capacity.
	if cap(n.t) < rows {
		n.t = make([]bool, rows)
		n.f = make([]bool, rows)
	}
	n.t = n.t[:rows]
	for i := range n.t {
		n.t[i] = words[i>>6]&(1<<(uint(i)&63)) != 0
	}
	return n.t, nil
}
