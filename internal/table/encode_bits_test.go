package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refTruthPair builds the expected Kleene truth bitsets row-by-row from
// a per-row oracle — the naive reference the word-wise leaves must match
// bit-for-bit, tail words included.
func refTruthPair(rows int, oracle func(i int) (in, valid bool)) (t, f []uint64) {
	nw := (rows + 63) / 64
	t = make([]uint64, nw)
	f = make([]uint64, nw)
	for i := 0; i < rows; i++ {
		in, valid := oracle(i)
		if !valid {
			continue
		}
		if in {
			t[i>>6] |= 1 << (uint(i) & 63)
		} else {
			f[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return t, f
}

func assertWordsEqual(t *testing.T, want, got []uint64, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d words vs %d", ctx, len(got), len(want))
	}
	for w := range want {
		if want[w] != got[w] {
			t.Fatalf("%s: word %d: got %064b want %064b", ctx, w, got[w], want[w])
		}
	}
}

// TestFloatRangeBitsMatchesRowWise pins the word-wise range leaf against
// a row-wise oracle over every float layout: packed (wide and
// single-valued width-0), raw with NaN, with and without validity, and
// row counts straddling the 64-bit word boundary.
func TestFloatRangeBitsMatchesRowWise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 63, 64, 65, 200, 511} {
		tab := New()
		year := make([]float64, rows)
		yearValid := make([]bool, rows)
		single := make([]float64, rows)
		eph := make([]float64, rows)
		for i := range year {
			year[i] = float64(1950 + rng.Intn(80))
			yearValid[i] = rng.Intn(5) != 0
			single[i] = 42
			eph[i] = rng.Float64()*500 - 50
			if rng.Intn(7) == 0 {
				eph[i] = math.NaN()
			}
		}
		if err := tab.AddFloatsValid("year", year, yearValid); err != nil {
			t.Fatal(err)
		}
		if err := tab.AddFloats("single", single); err != nil {
			t.Fatal(err)
		}
		if err := tab.AddFloats("eph", eph); err != nil {
			t.Fatal(err)
		}
		// Two-decimal columns at widths whose codes straddle words in
		// every pattern.
		names := []string{"year", "single", "eph"}
		for _, width := range []int{1, 5, 13, 16, 27, 32} {
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = float64(rng.Int63n(1<<width)) / 100
			}
			vals[0], vals[rows-1] = 0.01, float64(int64(1)<<width-1)/100
			name := fmt.Sprintf("w%d", width)
			if err := tab.AddFloats(name, vals); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		e := Encode(tab)
		if k := e.Column("single").Kind(); k != KindPacked {
			t.Fatalf("single-valued column encoded as %v, want %v", k, KindPacked)
		}
		nw := (rows + 63) / 64
		gt, gf := make([]uint64, nw), make([]uint64, nw)
		for trial := 0; trial < 20; trial++ {
			lo := rng.Float64()*200 - 60
			hi := lo + rng.Float64()*2100 // wide enough to sometimes cover everything
			if trial%4 == 3 {
				lo, hi = rng.Float64()*1e7, rng.Float64()*4e7
			}
			for _, name := range names {
				c := e.Column(name)
				c.FloatRangeBits(lo, hi, gt, gf)
				wt, wf := refTruthPair(rows, func(i int) (bool, bool) {
					v := c.FloatAt(i)
					return v >= lo && v <= hi, c.ValidAt(i)
				})
				ctx := fmt.Sprintf("rows=%d %s [%g,%g]", rows, name, lo, hi)
				assertWordsEqual(t, wt, gt, ctx+" t")
				assertWordsEqual(t, wf, gf, ctx+" f")
			}
		}
		// Non-overlapping range on a packed column: the clear(t) path.
		c := e.Column("year")
		c.FloatRangeBits(5000, 6000, gt, gf)
		wt, wf := refTruthPair(rows, func(i int) (bool, bool) { return false, c.ValidAt(i) })
		assertWordsEqual(t, wt, gt, "no-overlap t")
		assertWordsEqual(t, wf, gf, "no-overlap f")
	}
}

// TestSetBitsMatchRowWise pins DictSetBits (wide and width-0
// dictionaries) and StringSetBits against the row-wise oracle.
func TestSetBitsMatchRowWise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	classes := []string{"A", "B", "C", "D", "E"}
	for _, rows := range []int{1, 64, 65, 300} {
		tab := New()
		cls := make([]string, rows)
		clsValid := make([]bool, rows)
		one := make([]string, rows)
		ids := make([]string, rows)
		for i := range cls {
			cls[i] = classes[rng.Intn(len(classes))]
			clsValid[i] = rng.Intn(6) != 0
			if !clsValid[i] {
				cls[i] = ""
			}
			one[i] = "only"
			ids[i] = fmt.Sprintf("cert-%06d", i)
		}
		if err := tab.AddStringsValid("class", cls, clsValid); err != nil {
			t.Fatal(err)
		}
		if err := tab.AddStrings("one", one); err != nil {
			t.Fatal(err)
		}
		if err := tab.AddStrings("cert_id", ids); err != nil {
			t.Fatal(err)
		}
		e := Encode(tab)
		nw := (rows + 63) / 64
		gt, gf := make([]uint64, nw), make([]uint64, nw)
		for _, want := range [][]string{{"A", "C"}, {"absent"}, {}, {"only"}, {"A", "B", "C", "D", "E", "only"}} {
			set := make(map[string]bool, len(want))
			for _, v := range want {
				set[v] = true
			}
			for _, name := range []string{"class", "one"} {
				c := e.Column(name)
				if c.Kind() != KindDict {
					t.Fatalf("%s encoded as %v, want %v", name, c.Kind(), KindDict)
				}
				codeSet := make([]uint64, (c.DictLen()+63)/64+1)
				for v := range set {
					if code, ok := c.DictCode(v); ok {
						codeSet[code>>6] |= 1 << (code & 63)
					}
				}
				c.DictSetBits(codeSet, gt, gf)
				wt, wf := refTruthPair(rows, func(i int) (bool, bool) {
					return set[c.StringAt(i)], c.ValidAt(i)
				})
				ctx := fmt.Sprintf("rows=%d %s %v", rows, name, want)
				assertWordsEqual(t, wt, gt, ctx+" t")
				assertWordsEqual(t, wf, gf, ctx+" f")
			}
			c := e.Column("cert_id")
			if rows > 64 && c.Kind() != KindRawString {
				// Unique-per-row ids only clear the dictionary floor (16)
				// on tiny segments.
				t.Fatalf("cert_id encoded as %v, want %v", c.Kind(), KindRawString)
			}
			if c.Kind() != KindRawString {
				continue
			}
			c.StringSetBits(set, gt, gf)
			wt, wf := refTruthPair(rows, func(i int) (bool, bool) {
				return set[c.StringAt(i)], c.ValidAt(i)
			})
			assertWordsEqual(t, wt, gt, "cert_id t")
			assertWordsEqual(t, wf, gf, "cert_id f")
		}
	}
}

// TestTakeAppendMatchesTake pins the deferred-materialization append
// against Take + AppendTable over every column kind, duplicates and
// re-orderings included, plus the error contract.
func TestTakeAppendMatchesTake(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tab := encTestTable(t, 300, rng)
	e := Encode(tab)
	rows := []int{299, 0, 7, 7, 150, 13, 13, 13}

	want, err := NewWithSchema(tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tab.Take(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.AppendTable(sub); err != nil {
		t.Fatal(err)
	}

	got, err := NewWithSchema(tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.TakeAppend(got, nil); err != nil { // no-op append
		t.Fatal(err)
	}
	if err := e.TakeAppend(got, rows); err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, want, got, "encoded TakeAppend")

	// The raw-table sibling used for unsealed tail segments.
	got2, err := NewWithSchema(tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := got2.AppendTaken(tab, rows); err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, want, got2, "raw AppendTaken")

	// Error contract: out-of-range ordinals and mismatched schemas leave
	// the destination untouched.
	if err := e.TakeAppend(got, []int{300}); err == nil {
		t.Fatal("out-of-range TakeAppend did not error")
	}
	if err := got2.AppendTaken(tab, []int{-1}); err == nil {
		t.Fatal("negative-ordinal AppendTaken did not error")
	}
	other := New()
	if err := other.AddFloats("z", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := e.TakeAppend(other, []int{0}); err == nil {
		t.Fatal("schema-mismatch TakeAppend did not error")
	}
	if err := other.AppendTaken(tab, []int{0}); err == nil {
		t.Fatal("schema-mismatch AppendTaken did not error")
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("failed appends changed the destination: %d rows vs %d", got.NumRows(), want.NumRows())
	}
}

// TestAppendsMatchColumnsByName: a destination holding some of the
// source's columns, in another order, takes exactly those columns from
// every append — encoded or raw, taken rows or all of them — and a column
// the source lacks or types otherwise leaves the destination unchanged.
func TestAppendsMatchColumnsByName(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := encTestTable(t, 300, rng)
	e := Encode(tab)
	rows := []int{299, 0, 7, 7, 150}
	cols := []string{"year", "class"}
	taken, err := tab.Take(rows)
	if err != nil {
		t.Fatal(err)
	}
	wantTaken, err := taken.Select(cols...)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := tab.Select(cols...)
	if err != nil {
		t.Fatal(err)
	}
	narrow := func() *Table {
		d, err := NewWithSchema(wantAll.Schema())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for name, c := range map[string]struct {
		want   *Table
		append func(dst *Table) error
	}{
		"encoded TakeAppend": {wantTaken, func(d *Table) error { return e.TakeAppend(d, rows) }},
		"encoded AppendTo":   {wantAll, func(d *Table) error { return e.AppendTo(d) }},
		"raw AppendTaken":    {wantTaken, func(d *Table) error { return d.AppendTaken(tab, rows) }},
		"raw AppendTable":    {wantAll, func(d *Table) error { return d.AppendTable(tab) }},
	} {
		got := narrow()
		if err := c.append(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertBitwiseEqual(t, c.want, got, name)
	}

	retyped := New()
	if err := retyped.AddFloats("class", []float64{1}); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"TakeAppend":  e.TakeAppend(retyped, rows),
		"AppendTaken": retyped.AppendTaken(tab, rows),
		"AppendTable": retyped.AppendTable(tab),
	} {
		if err == nil || retyped.NumRows() != 1 {
			t.Errorf("%s onto a mistyped column: %v, %d rows", name, err, retyped.NumRows())
		}
	}
}

func TestColKindString(t *testing.T) {
	for k, want := range map[ColKind]string{
		KindRawFloat:  "raw-float",
		KindRawString: "raw-string",
		KindDict:      "dict",
		KindPacked:    "packed",
		ColKind(9):    "ColKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("ColKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestEncodedAccessors(t *testing.T) {
	tab := encTestTable(t, 100, rand.New(rand.NewSource(19)))
	e := Encode(tab)
	if e.NumRows() != 100 {
		t.Fatalf("NumRows = %d", e.NumRows())
	}
	c := e.Column("class")
	if c.name != "class" || c.Type() != String {
		t.Fatalf("accessors: name=%q type=%v", c.name, c.Type())
	}
	if c.valid == nil {
		t.Fatal("class has invalid cells, yet no validity bitset")
	}
	if y := e.Column("year"); y.Kind() == KindPacked {
		// value − code must be the same frame-of-reference base on every
		// valid row.
		base := math.Inf(1)
		for i := 0; i < 100; i++ {
			if !y.ValidAt(i) {
				continue
			}
			d := y.FloatAt(i) - float64(y.CodeAt(i))
			if math.IsInf(base, 1) {
				base = d
			} else if d != base {
				t.Fatalf("row %d: value-code delta %g, want constant %g", i, d, base)
			}
		}
	}
	if e.Column("absent") != nil {
		t.Fatal("absent column must be nil")
	}
}

// TestEncodeRowsRejoinsEveryKind pins EncodeRows against Encode over
// every column kind of the encoding tests' table: its two halves, encoded
// apart, gathered back in order, write the bytes of the whole encoded,
// and a schema that breaks the contract errors.
func TestEncodeRowsRejoinsEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := encTestTable(t, 1200, rng)
	head, err := tab.View(0, 600)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := tab.View(600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	g := &Gather{}
	g.AddRange(0, 0, 600)
	g.AddRange(1, 0, 600)
	srcs := []*Encoded{Encode(head), Encode(tail)}
	got, err := EncodeRows(tab.Schema(), srcs, g)
	if err != nil {
		t.Fatal(err)
	}
	var gb, wb bytes.Buffer
	if err := got.WriteBinary(&gb); err != nil {
		t.Fatal(err)
	}
	if err := Encode(tab).WriteBinary(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("the halves gathered differ from the whole encoded")
	}
	assertBitwiseEqual(t, tab, got.Decode(), "EncodeRows")

	dup := []Field{{Name: "a", Type: Float64}, {Name: "a", Type: String}}
	if _, err := EncodeRows(dup, nil, &Gather{}); err == nil {
		t.Fatal("a duplicate column did not error")
	}
	if _, err := EncodeRows([]Field{{Name: "a", Type: Type(7)}}, nil, &Gather{}); err == nil {
		t.Fatal("an unknown type did not error")
	}
}
