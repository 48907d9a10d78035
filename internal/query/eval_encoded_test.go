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
// bitwise against the naive Predicate.Mask reference.
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
		if len(sparse) != (len(ords)+63)/64 {
			t.Fatalf("trial %d (%s): sparse mask has %d words for %d ordinals", trial, p, len(sparse), len(ords))
		}
		// Copy before the second evaluation: sparse aliases a buffer the
		// full path will overwrite.
		got := append([]uint64(nil), sparse...)
		if tail := uint(len(ords) & 63); tail != 0 && got[len(got)-1]>>tail != 0 {
			t.Fatalf("trial %d (%s): bits set beyond %d ordinals", trial, p, len(ords))
		}
		full, err := ev.MaskEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range ords {
			if bitAt(got, j) != full[r] {
				t.Fatalf("trial %d (%s): ordinal %d (row %d): sparse=%v full=%v", trial, p, j, r, bitAt(got, j), full[r])
			}
		}
	}
}

func TestMaskEncodedRowsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := encEquivTable(t, rng, 120)
	enc := table.Encode(tab)
	p := Not{P: Or{In{Attr: "class", Values: []string{"A"}}, NumRange{Attr: "year", Min: 1990, Max: 2000}}}
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
		if bitAt(got, j) != want[r] {
			t.Fatalf("ordinal %d (row %d): %v vs %v", j, r, bitAt(got, j), want[r])
		}
	}
	if got, err := ev.MaskEncodedRows(enc, nil); err != nil || len(got) != 0 {
		t.Fatalf("no ordinals: %d words, %v", len(got), err)
	}
	for _, bad := range []Predicate{
		In{Attr: "missing", Values: []string{"x"}},
		NumRange{Attr: "class", Min: 0, Max: 1}, // type mismatch
	} {
		ev, err := NewEvaluator(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.MaskEncodedRows(enc, ords); err == nil {
			t.Errorf("%v: want error", bad)
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

// MaskEncoded is MaskEncodedBits expanded to the []bool shape of
// Predicate.Mask, for equivalence tests that compare the two row-wise.
// The result is freshly allocated.
func (e *Evaluator) MaskEncoded(enc *table.Encoded) ([]bool, error) {
	words, err := e.MaskEncodedBits(enc)
	if err != nil {
		return nil, err
	}
	out := make([]bool, enc.NumRows())
	for i := range out {
		out[i] = bitAt(words, i)
	}
	return out, nil
}

// FuzzEvaluatorMatchesMask parses a DSL predicate from the fuzz input and
// evaluates it over one fixed table with invalid cells in every column
// type, a dictionary and a raw string column, and a packed and a raw
// float column. The compiled evaluator's whole-segment bits and its
// sparse re-check at every ordinal (visited in reverse, so bit j is row
// rows-1-j) must equal Predicate.Mask bit for bit, and a predicate the
// reference refuses (unknown attribute, wrong type) must be refused.
func FuzzEvaluatorMatchesMask(f *testing.F) {
	tab := encEquivTable(f, rand.New(rand.NewSource(5)), 150)
	enc := table.Encode(tab)
	kinds := map[table.ColKind]bool{}
	for _, fld := range enc.Schema() {
		kinds[enc.Column(fld.Name).Kind()] = true
	}
	if len(kinds) != 4 {
		f.Fatalf("the fuzz table encodes to column kinds %v, want all four", kinds)
	}
	ords := make([]int, tab.NumRows())
	for j := range ords {
		ords[j] = len(ords) - 1 - j
	}
	for _, s := range []string{
		"class in {A, B, \"\"} and not (year in [1970, 1999])",
		"cert_id = id-00042 or eph >= 120.5",
		"not (class != C) or (year <= 1960 and eph in [-50, 0])",
		"eph in [-Inf, +Inf] and class in {D, E, F}",
		"missing = x",
		"class >= 3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := Parse(in)
		if err != nil {
			return
		}
		want, wantErr := p.Mask(tab)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatalf("%q: compile: %v", in, err)
		}
		words, err := ev.MaskEncodedBits(enc)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: evaluator error %v, Mask error %v", in, err, wantErr)
		}
		if wantErr != nil {
			if _, err := ev.MaskEncodedRows(enc, ords); err == nil {
				t.Fatalf("%q: sparse evaluation accepts what Mask refuses (%v)", in, wantErr)
			}
			return
		}
		for i := range want {
			if bitAt(words, i) != want[i] {
				t.Fatalf("%q: row %d: bits %v, Mask %v", in, i, bitAt(words, i), want[i])
			}
		}
		sparse, err := ev.MaskEncodedRows(enc, ords)
		if err != nil {
			t.Fatalf("%q: sparse: %v", in, err)
		}
		for j, r := range ords {
			if bitAt(sparse, j) != want[r] {
				t.Fatalf("%q: ordinal %d (row %d): sparse %v, Mask %v", in, j, r, bitAt(sparse, j), want[r])
			}
		}
	})
}
