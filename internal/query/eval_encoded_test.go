package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indice/internal/table"
)

// encEquivTable builds tables that hit every encoded layout and every
// Kleene edge: dict and raw strings, packed (integral year, two-decimal
// u) and raw floats, NULLs, NaN, empty strings (valid and invalid),
// duplicate-heavy columns.
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
	u := make([]float64, rows)
	uValid := make([]bool, rows)
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
		u[i] = float64(100+rng.Intn(300)) / 100
		uValid[i] = rng.Intn(7) != 0
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
	if err := tab.AddFloatsValid("u", u, uValid); err != nil {
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
	switch rng.Intn(5) {
	case 0:
		vals := []string{"A", "B", "C", "D", "E", "F", ""}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		return In{Attr: "class", Values: vals[:1+rng.Intn(4)]}
	case 1:
		return In{Attr: "cert_id", Values: []string{fmt.Sprintf("id-%05d", rng.Intn(600)), "absent"}}
	case 2:
		lo := float64(1950 + rng.Intn(80))
		return NumRange{Attr: "year", Min: lo - 0.5, Max: lo + float64(rng.Intn(30))}
	case 3:
		// Bounds on one of u's decimals, or the double just beside it.
		lo := float64(90+rng.Intn(320)) / 100
		hi := lo + float64(rng.Intn(120))/100
		if rng.Intn(2) == 0 {
			lo = math.Nextafter(lo, float64(rng.Intn(2)*4-2))
		}
		return NumRange{Attr: "u", Min: lo, Max: hi}
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
// against the full encoded evaluation: bit r must be bit r of the full
// mask for a candidate row and clear for any other, for random
// predicates, random candidate words over segments of any length, and
// both entry orders (sparse-then-full and full-then-sparse share node
// buffers).
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
		cand := randCand(rng, rows)
		sparse, err := ev.MaskEncodedBits(enc, cand)
		if err != nil {
			t.Fatal(err)
		}
		if len(sparse) != (rows+63)/64 {
			t.Fatalf("trial %d (%s): sparse mask has %d words for %d rows", trial, p, len(sparse), rows)
		}
		// Copy before the second evaluation: sparse aliases a buffer the
		// full path will overwrite.
		got := append([]uint64(nil), sparse...)
		full, err := ev.MaskEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if got[w]&^cand[w] != 0 {
				t.Fatalf("trial %d (%s): word %d sets rows that are no candidates", trial, p, w)
			}
		}
		for r := range full {
			if bitAt(cand, r) && bitAt(got, r) != full[r] {
				t.Fatalf("trial %d (%s): row %d: sparse=%v full=%v", trial, p, r, bitAt(got, r), full[r])
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
	cand := []uint64{1<<60 | 1<<3 | 1, 1 << (119 - 64)}
	got, err := ev.MaskEncodedBits(enc, cand)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 3, 60, 119} {
		if bitAt(got, r) != want[r] {
			t.Fatalf("row %d: %v vs %v", r, bitAt(got, r), want[r])
		}
	}
	got, err = ev.MaskEncodedBits(enc, []uint64{0, 0})
	if err != nil || len(got) != 2 || got[0]|got[1] != 0 {
		t.Fatalf("no candidates: %x, %v", got, err)
	}
	for _, bad := range []Predicate{
		In{Attr: "missing", Values: []string{"x"}},
		NumRange{Attr: "class", Min: 0, Max: 1}, // type mismatch
	} {
		ev, err := NewEvaluator(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.MaskEncodedBits(enc, cand); err == nil {
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
	words, err := e.MaskEncodedBits(enc, nil)
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
// evaluates it over a table with invalid cells in every column type, a
// dictionary and a raw string column, and an integral packed, a
// two-decimal packed (scaled) and a raw float column: the first n rows of
// a 150-row table, n from the input, so most segments end inside a word.
// The compiled evaluator's whole-segment bits must equal Predicate.Mask
// bit for bit, and so must its sparse re-check at candidate words drawn
// from the input's seed (every row, none, or a random subset), clear
// wherever a row is no candidate; a predicate the reference refuses
// (unknown attribute, wrong type) must be refused by both.
func FuzzEvaluatorMatchesMask(f *testing.F) {
	full := encEquivTable(f, rand.New(rand.NewSource(5)), 150)
	kinds := map[table.ColKind]bool{}
	fullEnc := table.Encode(full)
	for _, fld := range fullEnc.Schema() {
		kinds[fullEnc.Column(fld.Name).Kind()] = true
	}
	if len(kinds) != 4 || fullEnc.Column("u").Kind() != table.KindPacked {
		f.Fatalf("the fuzz table encodes to column kinds %v (u %v), want all four and u scaled", kinds, fullEnc.Column("u").Kind())
	}
	for i, s := range []string{
		"class in {A, B, \"\"} and not (year in [1970, 1999])",
		"cert_id = id-00042 or eph >= 120.5",
		"not (class != C) or (year <= 1960 and eph in [-50, 0])",
		"eph in [-Inf, +Inf] and class in {D, E, F}",
		"missing = x",
		"class >= 3",
		"u in [1.005, 2.5]",
		"u >= 1.1 and u <= 1.1 or u in [2.999999999, 3.01]",
		"not (u <= 1.5) and class in {A, C}",
		"u in [-Inf, 1.2] or u >= 3.98",
	} {
		f.Add(s, uint8(149-i*13), int64(i))
	}
	f.Fuzz(func(t *testing.T, in string, rows uint8, seed int64) {
		p, err := Parse(in)
		if err != nil {
			return
		}
		tab, err := full.View(0, 1+int(rows)%full.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		enc := table.Encode(tab)
		cand := randCand(rand.New(rand.NewSource(seed)), tab.NumRows())
		want, wantErr := p.Mask(tab)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatalf("%q: compile: %v", in, err)
		}
		words, err := ev.MaskEncodedBits(enc, nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: evaluator error %v, Mask error %v", in, err, wantErr)
		}
		if wantErr != nil {
			if _, err := ev.MaskEncodedBits(enc, cand); err == nil {
				t.Fatalf("%q: sparse evaluation accepts what Mask refuses (%v)", in, wantErr)
			}
			return
		}
		for i := range want {
			if bitAt(words, i) != want[i] {
				t.Fatalf("%q: row %d: bits %v, Mask %v", in, i, bitAt(words, i), want[i])
			}
		}
		sparse, err := ev.MaskEncodedBits(enc, cand)
		if err != nil {
			t.Fatalf("%q: sparse: %v", in, err)
		}
		if len(sparse) != len(cand) {
			t.Fatalf("%q: %d sparse words over %d rows", in, len(sparse), tab.NumRows())
		}
		for w := range sparse {
			if sparse[w]&^cand[w] != 0 {
				t.Fatalf("%q: word %d sets rows that are no candidates", in, w)
			}
		}
		for r := range want {
			if bitAt(cand, r) && bitAt(sparse, r) != want[r] {
				t.Fatalf("%q: candidate row %d: sparse %v, Mask %v", in, r, bitAt(sparse, r), want[r])
			}
		}
	})
}
