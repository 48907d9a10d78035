package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// assertBitwiseEqual pins two tables cell-for-cell: schemas, validity
// masks, exact float bits (NaN payloads included), exact strings.
func assertBitwiseEqual(t *testing.T, want, got *Table, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(want.Schema(), got.Schema()) {
		t.Fatalf("%s: schema mismatch: %+v vs %+v", ctx, want.Schema(), got.Schema())
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: rows %d vs %d", ctx, want.NumRows(), got.NumRows())
	}
	for _, f := range want.Schema() {
		wm, _ := want.ValidMask(f.Name)
		gm, _ := got.ValidMask(f.Name)
		if !reflect.DeepEqual(wm, gm) {
			t.Fatalf("%s: column %q validity mismatch", ctx, f.Name)
		}
		if f.Type == Float64 {
			wv, _ := want.Floats(f.Name)
			gv, _ := got.Floats(f.Name)
			for i := range wv {
				if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
					t.Fatalf("%s: column %q row %d: %x != %x", ctx, f.Name, i, math.Float64bits(wv[i]), math.Float64bits(gv[i]))
				}
			}
		} else {
			wv, _ := want.Strings(f.Name)
			gv, _ := got.Strings(f.Name)
			for i := range wv {
				if wv[i] != gv[i] {
					t.Fatalf("%s: column %q row %d: %q != %q", ctx, f.Name, i, wv[i], gv[i])
				}
			}
		}
	}
}

// encTestTable builds a table that exercises every encoding and every
// fallback: low-cardinality strings (dict), unique strings (raw),
// integral floats (packed), fractional floats (raw), NULLs, NaN, empty
// strings both valid and invalid, duplicate-heavy values.
func encTestTable(t testing.TB, rows int, rng *rand.Rand) *Table {
	t.Helper()
	classes := []string{"A", "B", "C", "D", "", "E"}
	tab := New()
	cls := make([]string, rows)
	clsValid := make([]bool, rows)
	ids := make([]string, rows)
	packable := make([]float64, rows)
	packValid := make([]bool, rows)
	frac := make([]float64, rows)
	for i := 0; i < rows; i++ {
		cls[i] = classes[rng.Intn(len(classes))]
		clsValid[i] = rng.Intn(10) != 0
		if !clsValid[i] {
			cls[i] = ""
		}
		ids[i] = fmt.Sprintf("cert-%06d", i)
		packable[i] = float64(rng.Intn(5000) - 1000)
		packValid[i] = rng.Intn(7) != 0
		frac[i] = rng.NormFloat64() * 100
		if rng.Intn(11) == 0 {
			frac[i] = math.NaN()
		}
	}
	if err := tab.AddStringsValid("class", cls, clsValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddStrings("cert_id", ids); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloatsValid("year", packable, packValid); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("eph", frac); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestEncodeChoosesExpectedKinds(t *testing.T) {
	tab := encTestTable(t, 500, rand.New(rand.NewSource(7)))
	e := Encode(tab)
	for name, want := range map[string]ColKind{
		"class":   KindDict,
		"cert_id": KindRawString, // unique per row: above the cardinality cap
		"year":    KindPacked,
		"eph":     KindRawFloat, // fractional values
	} {
		if got := e.Column(name).Kind(); got != want {
			t.Errorf("column %q encoded as %v, want %v", name, got, want)
		}
	}
	if e.SizeBytes() >= tab.SizeBytes() {
		t.Errorf("encoded %d bytes >= raw %d bytes", e.SizeBytes(), tab.SizeBytes())
	}
}

func TestEncodeDecodeRoundTripBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tab := encTestTable(t, 1+rng.Intn(700), rng)
		e := Encode(tab)
		assertBitwiseEqual(t, tab, e.Decode(), fmt.Sprintf("trial %d", trial))
	}
}

func TestEncodedTakeMatchesDecodeTake(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := encTestTable(t, 300, rng)
	e := Encode(tab)
	rows := []int{0, 7, 7, 299, 13, 150}
	want, err := tab.Take(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Take(rows)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, want, got, "take")
	if _, err := e.Take([]int{300}); err == nil {
		t.Fatal("out-of-range Take did not error")
	}
}

func TestEncodeFallsBackOnRoundTripViolations(t *testing.T) {
	// -0.0 is integral but reconstructs as +0.0: must stay raw.
	tab := New()
	if err := tab.AddFloats("z", []float64{1, math.Copysign(0, -1), 3}); err != nil {
		t.Fatal(err)
	}
	e := Encode(tab)
	if got := e.Column("z").Kind(); got != KindRawFloat {
		t.Fatalf("-0.0 column encoded as %v, want raw", got)
	}
	assertBitwiseEqual(t, tab, e.Decode(), "-0.0")

	// A non-canonical NaN in an invalid cell (e.g. smuggled through a
	// binary file) must stay raw so decode preserves the exact bits.
	odd := New()
	oddNaN := math.Float64frombits(0x7FF0000000000001)
	odd.push(&Column{
		Name:   "w",
		Typ:    Float64,
		Floats: []float64{1, oddNaN, 2},
		Valid:  []bool{true, false, true},
	})
	e = Encode(odd)
	if got := e.Column("w").Kind(); got != KindRawFloat {
		t.Fatalf("non-canonical NaN column encoded as %v, want raw", got)
	}
	assertBitwiseEqual(t, odd, e.Decode(), "odd NaN")

	// An invalid string cell with a non-empty payload (AddStringsValid
	// preserves it) must stay raw.
	s := New()
	if err := s.AddStringsValid("p", []string{"a", "ghost", "a"}, []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	e = Encode(s)
	if got := e.Column("p").Kind(); got != KindRawString {
		t.Fatalf("ghost-payload column encoded as %v, want raw", got)
	}
	assertBitwiseEqual(t, s, e.Decode(), "ghost payload")

	// A huge value range cannot bit-pack.
	wide := New()
	if err := wide.AddFloats("r", []float64{0, 1 << 40}); err != nil {
		t.Fatal(err)
	}
	if got := Encode(wide).Column("r").Kind(); got != KindRawFloat {
		t.Fatalf("wide-range column encoded as %v, want raw", got)
	}
}

func TestEncodeAllInvalidAndSingleValueColumns(t *testing.T) {
	tab := New()
	if err := tab.AddFloatsValid("dead", []float64{math.NaN(), math.NaN()}, []bool{false, false}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddStrings("one", []string{"x", "x"}); err != nil {
		t.Fatal(err)
	}
	e := Encode(tab)
	if got := e.Column("dead").Kind(); got != KindPacked {
		t.Fatalf("all-invalid column encoded as %v, want packed (width 0)", got)
	}
	if got := e.Column("one").Kind(); got != KindDict {
		t.Fatalf("single-value column encoded as %v, want dict", got)
	}
	if n := e.Column("one").DictLen(); n != 1 {
		t.Fatalf("dict size %d, want 1", n)
	}
	assertBitwiseEqual(t, tab, e.Decode(), "degenerate columns")
}

func TestDictCodePreservesStringOrder(t *testing.T) {
	tab := New()
	if err := tab.AddStrings("c", []string{"B", "A", "C", "A"}); err != nil {
		t.Fatal(err)
	}
	c := Encode(tab).Column("c")
	var prev uint64
	for i, s := range []string{"A", "B", "C"} {
		code, ok := c.DictCode(s)
		if !ok {
			t.Fatalf("%q not in dict", s)
		}
		if i > 0 && code <= prev {
			t.Fatalf("dict codes not ordered: %q=%d after %d", s, code, prev)
		}
		prev = code
	}
	if _, ok := c.DictCode("Z"); ok {
		t.Fatal("absent value found in dict")
	}
}

func TestCodeBounds(t *testing.T) {
	tab := New()
	if err := tab.AddFloats("v", []float64{100, 110, 131}); err != nil {
		t.Fatal(err)
	}
	c := Encode(tab).Column("v")
	if c.Kind() != KindPacked {
		t.Fatalf("kind %v", c.Kind())
	}
	cases := []struct {
		lo, hi   float64
		cLo, cHi uint64
		ok       bool
	}{
		{100, 131, 0, 31, true},
		{99.5, 110.2, 0, 10, true},
		{-1e9, 1e9, 0, 31, true},
		{132, 200, 0, 0, false},
		{0, 99, 0, 0, false},
		{110.1, 110.9, 0, 0, false}, // no integer inside
		{math.NaN(), 50, 0, 0, false},
		{math.Inf(-1), math.Inf(1), 0, 31, true},
	}
	for _, tc := range cases {
		cLo, cHi, ok := c.CodeBounds(tc.lo, tc.hi)
		if ok != tc.ok || (ok && (cLo != tc.cLo || cHi != tc.cHi)) {
			t.Errorf("CodeBounds(%v, %v) = (%d, %d, %v), want (%d, %d, %v)", tc.lo, tc.hi, cLo, cHi, ok, tc.cLo, tc.cHi, tc.ok)
		}
	}
}

func TestEncodedBinaryRoundTripV2(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		tab := encTestTable(t, 1+rng.Intn(400), rng)
		e := Encode(tab)
		var buf bytes.Buffer
		if err := e.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEncoded(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range e.Schema() {
			if got, want := back.Column(f.Name).Kind(), e.Column(f.Name).Kind(); got != want {
				t.Fatalf("column %q kind %v after round trip, want %v", f.Name, got, want)
			}
		}
		assertBitwiseEqual(t, tab, back.Decode(), fmt.Sprintf("v2 trial %d", trial))
	}
}

// TestReadEncodedRefusesV1Files: a raw (v1) table where an encoded
// segment is expected is an error that names the version, not a silent
// re-encode.
func TestReadEncodedRefusesV1Files(t *testing.T) {
	tab := encTestTable(t, 250, rand.New(rand.NewSource(19)))
	var buf bytes.Buffer
	if err := tab.WriteBinary(&buf); err != nil { // v1 writer
		t.Fatal(err)
	}
	e, err := ReadEncoded(bytes.NewReader(buf.Bytes()))
	if err == nil || e != nil {
		t.Fatalf("ReadEncoded took a v1 payload: %v, %v", e, err)
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error %q does not name the version", err)
	}
}

func TestReadEncodedRejectsCorruptV2(t *testing.T) {
	tab := encTestTable(t, 100, rand.New(rand.NewSource(23)))
	var buf bytes.Buffer
	if err := Encode(tab).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": append(append([]byte(nil), good[:4]...), 0x7F, 0x00),
		"truncated":   good[:len(good)-3],
		"half":        good[:len(good)/2],
	}
	for name, data := range cases {
		if _, err := ReadEncoded(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}

	// Out-of-range dict codes must be rejected, not panic in StringAt.
	mut := append([]byte(nil), good...)
	// Flip bytes near the end (code words of the last column) until the
	// reader objects or proves it stays memory safe.
	for i := len(mut) - 40; i < len(mut); i++ {
		mut[i] ^= 0xFF
	}
	if e, err := ReadEncoded(bytes.NewReader(mut)); err == nil {
		// If it happens to parse, decoding must not panic.
		_ = e.Decode()
	}
}

func FuzzReadEncoded(f *testing.F) {
	tab := New()
	_ = tab.AddStrings("c", []string{"a", "b", "a"})
	_ = tab.AddFloats("v", []float64{1, 2, 3})
	var v2 bytes.Buffer
	_ = Encode(tab).WriteBinary(&v2)
	f.Add(v2.Bytes())
	var v1 bytes.Buffer
	_ = tab.WriteBinary(&v1)
	f.Add(v1.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadEncoded(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must decode without panicking, and the decoded
		// table must re-encode and round-trip bitwise.
		dec := e.Decode()
		assertBitwiseEqual(t, dec, Encode(dec).Decode(), "fuzz re-encode")
	})
}
