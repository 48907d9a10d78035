package table

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// binaryRoundTrip writes tab in the binary format and reads it back.
func binaryRoundTrip(t testing.TB, tab *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(tab).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEncoded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back.Decode()
}

func TestBinaryRoundTrip(t *testing.T) {
	tab := sample(t)
	if err := tab.SetInvalid("class", 2); err != nil {
		t.Fatal(err)
	}
	back := binaryRoundTrip(t, tab)
	if !reflect.DeepEqual(back.Schema(), tab.Schema()) {
		t.Fatalf("schema = %+v", back.Schema())
	}
	for _, name := range tab.NumericColumns() {
		ov, _ := tab.Floats(name)
		bv, _ := back.Floats(name)
		for i := range ov {
			if math.IsNaN(ov[i]) != math.IsNaN(bv[i]) {
				t.Fatalf("%s row %d NaN mismatch", name, i)
			}
			if !math.IsNaN(ov[i]) && ov[i] != bv[i] {
				t.Fatalf("%s row %d: %v != %v", name, i, ov[i], bv[i])
			}
		}
		om, _ := tab.ValidMask(name)
		bm, _ := back.ValidMask(name)
		if !reflect.DeepEqual(om, bm) {
			t.Fatalf("%s mask mismatch", name)
		}
	}
	for _, name := range tab.CategoricalColumns() {
		ov, _ := tab.Strings(name)
		bv, _ := back.Strings(name)
		if !reflect.DeepEqual(ov, bv) {
			t.Fatalf("%s values mismatch: %v vs %v", name, ov, bv)
		}
		om, _ := tab.ValidMask(name)
		bm, _ := back.ValidMask(name)
		if !reflect.DeepEqual(om, bm) {
			t.Fatalf("%s mask mismatch", name)
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(vals []float64, labels []uint16) bool {
		n := len(vals)
		if len(labels) < n {
			n = len(labels)
		}
		if n == 0 {
			return true
		}
		fs := make([]float64, n)
		ss := make([]string, n)
		for i := 0; i < n; i++ {
			fs[i] = vals[i]
			// Arbitrary strings, including empty and multi-byte.
			ss[i] = strings.Repeat("é", int(labels[i])%4)
		}
		tab := New()
		if err := tab.AddFloats("v", fs); err != nil {
			return false
		}
		if err := tab.AddStrings("l", ss); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Encode(tab).WriteBinary(&buf); err != nil {
			return false
		}
		enc, err := ReadEncoded(&buf)
		if err != nil {
			return false
		}
		back := enc.Decode()
		bv, _ := back.Floats("v")
		bl, _ := back.Strings("l")
		for i := 0; i < n; i++ {
			if math.IsNaN(fs[i]) != math.IsNaN(bv[i]) {
				return false
			}
			if !math.IsNaN(fs[i]) && fs[i] != bv[i] {
				return false
			}
			if ss[i] != bl[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEmptyTable(t *testing.T) {
	back := binaryRoundTrip(t, New())
	if back.NumRows() != 0 || back.NumCols() != 0 {
		t.Fatalf("shape = %dx%d", back.NumRows(), back.NumCols())
	}
}

func TestBinaryCorruptInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(sample(t)).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":        {},
		"short magic":  good[:2],
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"bad version":  append(append([]byte(nil), good[:4]...), 0xFF, 0xFF),
		"truncated":    good[:len(good)/2],
		"missing cols": good[:12],
	}
	for name, data := range cases {
		if _, err := ReadEncoded(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestBinaryVsCSVAgreement(t *testing.T) {
	tab := sample(t)
	var cbuf bytes.Buffer
	if err := tab.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	fromBin := binaryRoundTrip(t, tab)
	fromCSV, err := ReadCSV(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin.Schema(), fromCSV.Schema()) {
		t.Fatal("schemas differ between codecs")
	}
	a, _ := fromBin.Floats("epc")
	b, _ := fromCSV.Floats("epc")
	for i := range a {
		if math.IsNaN(a[i]) != math.IsNaN(b[i]) || (!math.IsNaN(a[i]) && a[i] != b[i]) {
			t.Fatalf("row %d differs across codecs: %v vs %v", i, a[i], b[i])
		}
	}
}

func bigTable(b *testing.B, rows int) *Table {
	b.Helper()
	tab := New()
	fs := make([]float64, rows)
	ss := make([]string, rows)
	for i := range fs {
		fs[i] = float64(i) * 1.5
		ss[i] = "class-" + string(rune('A'+i%7))
	}
	for c := 0; c < 10; c++ {
		if err := tab.AddFloats("f"+string(rune('0'+c)), fs); err != nil {
			b.Fatal(err)
		}
	}
	for c := 0; c < 5; c++ {
		if err := tab.AddStrings("s"+string(rune('0'+c)), ss); err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

func BenchmarkWriteBinary(b *testing.B) {
	tab := bigTable(b, 25000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(tab).WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	tab := bigTable(b, 25000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadEncoded(b *testing.B) {
	tab := bigTable(b, 25000)
	var buf bytes.Buffer
	if err := Encode(tab).WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadEncoded(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	tab := bigTable(b, 25000)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
