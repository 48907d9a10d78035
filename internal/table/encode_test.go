package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
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
// integral and two-decimal floats (packed), random doubles (raw), NULLs, NaN, empty
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
	dec2 := make([]float64, rows)
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
		dec2[i] = float64(rng.Intn(90000)-2000) / 100
		if rng.Intn(13) == 0 {
			dec2[i] = math.NaN()
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
	if err := tab.AddFloats("u", dec2); err != nil {
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
		"eph":     KindRawFloat, // random doubles
		"u":       KindPacked,   // two decimals: scaled codes
	} {
		if got := e.Column(name).Kind(); got != want {
			t.Errorf("column %q encoded as %v, want %v", name, got, want)
		}
	}
	if got := e.Column("u").scale; got != 2 {
		t.Errorf("two-decimal column has scale %d, want 2", got)
	}
	if e.SizeBytes() >= tab.SizeBytes() {
		t.Errorf("encoded %d bytes >= raw %d bytes", e.SizeBytes(), tab.SizeBytes())
	}
}

// parseDecimal returns the double the text "m × 10^-digits" parses to:
// what a CSV cell holding that decimal becomes.
func parseDecimal(t testing.TB, m int64, digits int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(fmt.Sprintf("%de-%d", m, digits), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// encodeFloatColumn encodes vals (invalid where NaN, with the canonical
// NaN) as one column and checks that Decode and the binary round trip
// both return the exact bits.
func encodeFloatColumn(t *testing.T, label string, vals []float64) *EncodedColumn {
	t.Helper()
	tab := New()
	if err := tab.AddFloats("v", vals); err != nil {
		t.Fatal(err)
	}
	e := Encode(tab)
	assertBitwiseEqual(t, tab, e.Decode(), label)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEncoded(&buf)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertBitwiseEqual(t, tab, back.Decode(), label+" (binary)")
	return e.Column("v")
}

// TestDecimalColumnsRoundTrip is the decimal encoder's property test:
// whatever a float column holds decodes to the same bits, and a column of
// decimals parsed from text packs at exactly the scale its longest value
// needs, across every scale, mixed scales, and a longest value the
// encoder's sample does not see.
func TestDecimalColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	wantScale := func(label string, c *EncodedColumn, scale int) {
		t.Helper()
		if c.kind != KindPacked || int(c.scale) != scale {
			t.Errorf("%s: encoded as %v at scale %d, want packed at scale %d", label, c.kind, c.scale, scale)
		}
	}
	for digits := 0; digits <= maxScale; digits++ {
		for trial := 0; trial < 4; trial++ {
			// Mantissas below 2^50 with a 20-bit spread; the odd first one
			// needs every digit.
			m0 := rng.Int63n(1<<50-1<<21) - 1<<49
			vals := make([]float64, 300)
			for i := range vals {
				m := m0 + rng.Int63n(1<<20)
				if i == 0 {
					m |= 1
				}
				vals[i] = parseDecimal(t, m, digits)
				if rng.Intn(10) == 0 && i > 0 {
					vals[i] = math.NaN()
				}
			}
			label := fmt.Sprintf("%d digits, trial %d", digits, trial)
			wantScale(label, encodeFloatColumn(t, label, vals), digits)
		}
	}

	mixed := make([]float64, 500)
	for i := range mixed {
		mixed[i] = parseDecimal(t, rng.Int63n(200000)-100000, rng.Intn(4))
	}
	mixed[rng.Intn(len(mixed))] = 0.125
	wantScale("mixed scales", encodeFloatColumn(t, "mixed scales", mixed), 3)

	// One four-digit value at a row the 32-row sample skips: the code pass
	// finds it and starts over at scale 4.
	unsampled := make([]float64, 1000)
	for i := range unsampled {
		unsampled[i] = parseDecimal(t, rng.Int63n(5000), 1)
	}
	unsampled[7] = 12.3457
	wantScale("unsampled scale", encodeFloatColumn(t, "unsampled scale", unsampled), 4)

	random := make([]float64, 300)
	for i := range random {
		random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	if c := encodeFloatColumn(t, "random doubles", random); c.kind != KindRawFloat {
		t.Errorf("random doubles encoded as %v, want raw", c.kind)
	}

	// Edges beside ordinary decimals: each column round-trips whatever its
	// layout; the ones listed as raw must not pack.
	for _, tc := range []struct {
		name string
		edge float64
		raw  bool
	}{
		{"-0.0", math.Copysign(0, -1), true},
		{"smallest subnormal", math.SmallestNonzeroFloat64, true},
		{"negative subnormal", -math.SmallestNonzeroFloat64 * 3, true},
		{"largest subnormal", math.Float64frombits(0x000fffffffffffff), true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
		{"max float", math.MaxFloat64, true},
		{"2^52", 1 << 52, false},
		{"-2^52", -(1 << 52), true}, // a span wider than 32 bits from 1.25
		{"2^52+1", 1<<52 + 1, true},
		{"2^53", 1 << 53, true},
		{"decimal at 2^52", parseDecimal(t, 1<<52-1, 3), false},
		{"16 digits", 0.1234567890123456, true},
		{"0.1+0.2 in doubles", math.Float64frombits(0x3fd3333333333334), true},
	} {
		vals := []float64{1.25, 2.5, tc.edge, math.NaN(), 3.75}
		if tc.name == "2^52" || tc.name == "decimal at 2^52" {
			vals = []float64{tc.edge, tc.edge - 1, tc.edge, math.NaN(), tc.edge}
		}
		c := encodeFloatColumn(t, tc.name, vals)
		if tc.raw != (c.kind == KindRawFloat) {
			t.Errorf("%s: encoded as %v, raw want %v", tc.name, c.kind, tc.raw)
		}
	}

	// A valid NaN cell, and a NaN payload in an invalid one, keep the
	// column raw so their bits survive.
	for name, col := range map[string]*Column{
		"valid NaN":           {Name: "v", Typ: Float64, Floats: []float64{1.5, math.NaN(), 2.25, 3.5}, Valid: []bool{true, true, true, true}},
		"invalid NaN payload": {Name: "v", Typ: Float64, Floats: []float64{1.5, math.Float64frombits(0x7ff8000000000002), 2.25, 3.5}, Valid: []bool{true, false, true, true}},
	} {
		tab := New()
		tab.push(col)
		e := Encode(tab)
		if got := e.Column("v").kind; got != KindRawFloat {
			t.Errorf("%s: encoded as %v, want raw", name, got)
		}
		assertBitwiseEqual(t, tab, e.Decode(), name)
	}

	// A scaled column must be smaller than its raw form, so one- and
	// two-row decimal columns (a one-row WAL part) stay raw; integral
	// columns keep the layout they always had.
	for rows, want := range map[int]ColKind{1: KindRawFloat, 2: KindRawFloat, 3: KindPacked} {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = 1.5 + float64(i)
		}
		if c := encodeFloatColumn(t, "small", vals); c.kind != want {
			t.Errorf("%d-row decimal column encoded as %v, want %v", rows, c.kind, want)
		}
	}
	if c := encodeFloatColumn(t, "one integer", []float64{7}); c.kind != KindPacked {
		t.Errorf("one-row integral column encoded as %v, want packed", c.kind)
	}
}

// TestCodeBoundsMatchesEveryCode holds CodeBounds against a scan of every
// code a column can hold, on integral and scaled columns, with bounds on
// the column's values, beside them, between two adjacent ones, random,
// infinite and NaN.
func TestCodeBoundsMatchesEveryCode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, digits := range []int{0, 1, 2, 3, 5, 9, 15} {
		for trial := 0; trial < 6; trial++ {
			width := rng.Intn(11)
			m0 := rng.Int63n(1<<40) - 1<<39
			vals := make([]float64, 64)
			for i := range vals {
				vals[i] = parseDecimal(t, m0+rng.Int63n(int64(1)<<width), digits)
			}
			vals[0] = parseDecimal(t, m0|1, digits)
			label := fmt.Sprintf("%d digits, width %d", digits, width)
			c := encodeFloatColumn(t, label, vals)
			if c.kind != KindPacked {
				t.Fatalf("%s: encoded as %v", label, c.kind)
			}
			maxCode := uint64(0)
			if c.codes.width > 0 {
				maxCode = 1<<uint(c.codes.width) - 1
			}
			var cands []float64
			for k := uint64(0); k <= maxCode+1; k++ {
				v := c.dec(k)
				cands = append(cands, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), (v+c.dec(k+1))/2)
			}
			lo, hi := c.dec(0), c.dec(maxCode)
			for i := 0; i < 20; i++ {
				cands = append(cands, lo+(hi-lo)*(rng.Float64()*1.4-0.2))
			}
			cands = append(cands, math.Inf(1), math.Inf(-1), math.NaN(), -1e300, 1e300, 0)
			for i := 0; i < 400; i++ {
				a, b := cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))]
				wantOK := false
				var wantLo, wantHi uint64
				for k := uint64(0); k <= maxCode; k++ {
					if v := c.dec(k); v >= a && v <= b {
						if !wantOK {
							wantLo, wantOK = k, true
						}
						wantHi = k
					}
				}
				gotLo, gotHi, ok := c.CodeBounds(a, b)
				if ok != wantOK || ok && (gotLo != wantLo || gotHi != wantHi) {
					t.Fatalf("%s: CodeBounds(%v, %v) = (%d, %d, %v), every code says (%d, %d, %v)", label, a, b, gotLo, gotHi, ok, wantLo, wantHi, wantOK)
				}
			}
		}
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

// TestReadEncodedRefusesV1Files: a body whose header says version 1 (the
// raw per-cell layout) is an error that names the version, not a silent
// misread.
func TestReadEncodedRefusesV1Files(t *testing.T) {
	tab := encTestTable(t, 250, rand.New(rand.NewSource(19)))
	var buf bytes.Buffer
	if err := Encode(tab).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := mutate(buf.Bytes(), 4, 1) // the u16 version after "INDT"
	e, err := ReadEncoded(bytes.NewReader(data))
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

// scaledSeedBody is the v2 body of one scaled column, d = {1.25, 2.5,
// 3.75, 5}: a 14-byte file header, then at 14 u16 nameLen, 'd', type at
// 17, kind 4 at 18, validity flag 1 at 19, scale 2 at 20, u64 base 125 at
// 21, width 9 at 29 and one code word (ends at 38).
func scaledSeedBody(tb testing.TB) []byte {
	tb.Helper()
	tab := New()
	if err := tab.AddFloats("d", []float64{1.25, 2.5, 3.75, 5}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(tab).WriteBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadEncodedScaledColumns(t *testing.T) {
	good := scaledSeedBody(t)
	if len(good) != 38 || good[18] != wireScaled || good[20] != 2 || good[29] != 9 {
		t.Fatalf("scaled seed body is laid out as % x", good)
	}
	e, err := ReadEncoded(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if c := e.Column("d"); c.Kind() != KindPacked || c.scale != 2 || c.FloatAt(1) != 2.5 {
		t.Fatalf("scaled column read back as %v at scale %d", c.Kind(), c.scale)
	}
	overflow := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(overflow[21:], math.MaxInt64-100)
	for name, data := range map[string][]byte{
		"scale 0":         mutate(good, 20, 0),
		"scale 16":        mutate(good, 20, 16),
		"scale 255":       mutate(good, 20, 255),
		"width 33":        mutate(good, 29, 33),
		"base overflows":  overflow,
		"string typed":    mutate(good, 17, byte(String)),
		"kind 5":          mutate(good, 18, 5),
		"truncated scale": good[:20],
	} {
		if _, err := ReadEncoded(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// FuzzReadEncoded feeds arbitrary bytes to the one table decoder. Every
// table body the process reads — ingest socket, WAL, segment file,
// replication frame — goes through it, so it must never panic, and
// whatever it accepts must decode and round-trip bitwise.
func FuzzReadEncoded(f *testing.F) {
	tab := New()
	_ = tab.AddStrings("c", []string{"a", "b", "a"})
	_ = tab.AddFloats("v", []float64{1, 2, 3})
	var v2 bytes.Buffer
	_ = Encode(tab).WriteBinary(&v2)
	f.Add(v2.Bytes())
	f.Add(mutate(v2.Bytes(), 4, 1)) // a version-1 header
	var seed bytes.Buffer
	if err := Encode(fuzzSeedTable(f)).WriteBinary(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(nil))
	f.Add([]byte("INDT"))
	f.Add([]byte("INDT\x02\x00\xff\xff\xff\xff\x01\x00\x00\x00"))
	// Header claiming one valid empty-named string column and zero rows.
	f.Add([]byte("INDT\x02\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x01"))
	scaled := scaledSeedBody(f)
	f.Add(scaled)
	f.Add(mutate(scaled, 20, 15)) // the largest scale
	f.Add(mutate(scaled, 20, 16))
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
