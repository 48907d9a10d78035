package table

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample(t *testing.T) *Table {
	t.Helper()
	tab := New()
	if err := tab.AddFloats("epc", []float64{120, 80, 200, math.NaN(), 95}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddStrings("class", []string{"D", "B", "G", "C", "C"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloats("area", []float64{70, 55, 140, 90, 62}); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBasicShape(t *testing.T) {
	tab := sample(t)
	if tab.NumRows() != 5 || tab.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tab.NumRows(), tab.NumCols())
	}
	want := []Field{{"epc", Float64}, {"class", String}, {"area", Float64}}
	if got := tab.Schema(); !reflect.DeepEqual(got, want) {
		t.Fatalf("schema = %+v", got)
	}
	if !tab.HasColumn("area") || tab.HasColumn("nope") {
		t.Fatal("HasColumn wrong")
	}
	typ, err := tab.TypeOf("class")
	if err != nil || typ != String {
		t.Fatalf("TypeOf = %v, %v", typ, err)
	}
	if _, err := tab.TypeOf("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestNaNBecomesInvalid(t *testing.T) {
	tab := sample(t)
	mask, err := tab.ValidMask("epc")
	if err != nil {
		t.Fatal(err)
	}
	if mask[3] {
		t.Fatal("NaN cell should be invalid")
	}
	vf, _ := tab.ValidFloats("epc")
	if len(vf) != 4 {
		t.Fatalf("ValidFloats = %v", vf)
	}
}

func TestDuplicateAndLengthErrors(t *testing.T) {
	tab := sample(t)
	if err := tab.AddFloats("epc", []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("want duplicate-column error")
	}
	if err := tab.AddFloats("short", []float64{1}); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if err := tab.AddFloats("", []float64{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("want empty-name error")
	}
	if err := tab.AddFloatsValid("bad", []float64{1}, []bool{true, false}); err == nil {
		t.Fatal("want values/mask mismatch error")
	}
}

func TestTypedAccessErrors(t *testing.T) {
	tab := sample(t)
	if _, err := tab.Floats("class"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tab.Strings("epc"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tab.Floats("missing"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetAndInvalidate(t *testing.T) {
	tab := sample(t)
	if err := tab.SetFloat("epc", 3, 111); err != nil {
		t.Fatal(err)
	}
	vals, _ := tab.Floats("epc")
	mask, _ := tab.ValidMask("epc")
	if vals[3] != 111 || !mask[3] {
		t.Fatal("SetFloat did not validate cell")
	}
	if err := tab.SetInvalid("class", 0); err != nil {
		t.Fatal(err)
	}
	cm, _ := tab.ValidMask("class")
	if cm[0] {
		t.Fatal("SetInvalid did not invalidate")
	}
	if err := tab.SetFloat("epc", 99, 1); err == nil {
		t.Fatal("want out-of-range error")
	}
	if err := tab.SetString("class", -1, "x"); err == nil {
		t.Fatal("want out-of-range error")
	}
	if err := tab.SetFloat("class", 0, 1); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestSelect(t *testing.T) {
	tab := sample(t)
	sub, err := tab.Select("area", "class")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 2 || sub.NumRows() != 5 {
		t.Fatalf("shape = %dx%d", sub.NumRows(), sub.NumCols())
	}
	if got := sub.ColumnNames(); !reflect.DeepEqual(got, []string{"area", "class"}) {
		t.Fatalf("names = %v", got)
	}
	// Deep copy: mutating the selection must not affect the original.
	if err := sub.SetFloat("area", 0, -1); err != nil {
		t.Fatal(err)
	}
	orig, _ := tab.Floats("area")
	if orig[0] == -1 {
		t.Fatal("Select is not a deep copy")
	}
	if _, err := tab.Select("missing"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v", err)
	}
}

func TestTakeAndFilter(t *testing.T) {
	tab := sample(t)
	got, err := tab.Take([]int{4, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := got.Floats("area")
	if !reflect.DeepEqual(vals, []float64{62, 70, 70}) {
		t.Fatalf("take vals = %v", vals)
	}
	if _, err := tab.Take([]int{9}); err == nil {
		t.Fatal("want out-of-range error")
	}

	m, err := tab.FilterMask([]bool{true, false, false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 2 {
		t.Fatalf("masked rows = %d", m.NumRows())
	}
	if _, err := tab.FilterMask([]bool{true}); err == nil {
		t.Fatal("want mask length error")
	}
}

func TestDropRows(t *testing.T) {
	tab := sample(t)
	got, err := tab.DropRows([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	cls, _ := got.Strings("class")
	if !reflect.DeepEqual(cls, []string{"D", "G", "C"}) {
		t.Fatalf("classes = %v", cls)
	}
	if _, err := tab.DropRows([]int{-1}); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestGroupByString(t *testing.T) {
	tab := sample(t)
	groups, err := tab.GroupByString("class")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %v", groups)
	}
	if !reflect.DeepEqual(groups["C"], []int{3, 4}) {
		t.Fatalf("C rows = %v", groups["C"])
	}
}

func TestMatrix(t *testing.T) {
	tab := sample(t)
	mat, rows, err := tab.Matrix("epc", "area")
	if err != nil {
		t.Fatal(err)
	}
	if len(mat) != 4 { // row 3 has NaN epc
		t.Fatalf("matrix rows = %d", len(mat))
	}
	if !reflect.DeepEqual(rows, []int{0, 1, 2, 4}) {
		t.Fatalf("row map = %v", rows)
	}
	if mat[0][0] != 120 || mat[0][1] != 70 {
		t.Fatalf("mat[0] = %v", mat[0])
	}
	if _, _, err := tab.Matrix("class"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestNumericCategoricalColumns(t *testing.T) {
	tab := sample(t)
	if got := tab.NumericColumns(); !reflect.DeepEqual(got, []string{"epc", "area"}) {
		t.Fatalf("numeric = %v", got)
	}
	if got := tab.CategoricalColumns(); !reflect.DeepEqual(got, []string{"class"}) {
		t.Fatalf("categorical = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tab := sample(t)
	cl := tab.Clone()
	if err := cl.SetString("class", 0, "Z"); err != nil {
		t.Fatal(err)
	}
	orig, _ := tab.Strings("class")
	if orig[0] == "Z" {
		t.Fatal("Clone shares storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := sample(t)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
		t.Fatalf("shape = %dx%d", back.NumRows(), back.NumCols())
	}
	if !reflect.DeepEqual(back.Schema(), tab.Schema()) {
		t.Fatalf("schema = %+v", back.Schema())
	}
	ov, _ := tab.Floats("epc")
	bv, _ := back.Floats("epc")
	for i := range ov {
		if math.IsNaN(ov[i]) != math.IsNaN(bv[i]) {
			t.Fatalf("row %d NaN mismatch", i)
		}
		if !math.IsNaN(ov[i]) && ov[i] != bv[i] {
			t.Fatalf("row %d: %v != %v", i, ov[i], bv[i])
		}
	}
	om, _ := tab.ValidMask("epc")
	bm, _ := back.ValidMask("epc")
	if !reflect.DeepEqual(om, bm) {
		t.Fatalf("mask mismatch: %v vs %v", om, bm)
	}
	oc, _ := tab.Strings("class")
	bc, _ := back.Strings("class")
	if !reflect.DeepEqual(oc, bc) {
		t.Fatalf("class mismatch: %v vs %v", oc, bc)
	}
}

// TestCSVOneColumnKeepsMissingCells: a one-column table's missing cell is
// a record with one empty field, which must not be written as the blank
// line encoding/csv's reader skips.
func TestCSVOneColumnKeepsMissingCells(t *testing.T) {
	roundTrip := func(tab *Table, want string) *Table {
		t.Helper()
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("wrote %q, want %q", buf.String(), want)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumRows() != tab.NumRows() {
			t.Fatalf("%q read back as %d rows, want %d", want, back.NumRows(), tab.NumRows())
		}
		return back
	}

	floats := New()
	if err := floats.AddFloats("v", []float64{1, math.NaN(), 3}); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(floats, "v:f\n1\n\"\"\n3\n")
	vs, _ := back.Floats("v")
	valid, _ := back.ValidMask("v")
	if vs[0] != 1 || vs[2] != 3 || !reflect.DeepEqual(valid, []bool{true, false, true}) {
		t.Fatalf("read back %v, valid %v", vs, valid)
	}

	strs := New()
	if err := strs.AddStrings("s", []string{"a", "", "c"}); err != nil {
		t.Fatal(err)
	}
	back = roundTrip(strs, "s:s\na\n\"\"\nc\n")
	if ss, _ := back.Strings("s"); !reflect.DeepEqual(ss, []string{"a", "", "c"}) {
		t.Fatalf("read back %q", ss)
	}
}

func TestCSVHeaderOnly(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("a:f,b:s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumCols() != 2 {
		t.Fatalf("shape = %dx%d", got.NumRows(), got.NumCols())
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"noType\n1\n",
		"a:x\n1\n",
		"a:f\nnot-a-number\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q): want error", in)
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(vals []float64, labels []uint8) bool {
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
			if math.IsInf(fs[i], 0) {
				fs[i] = 0 // Inf round-trips but is outside EPC semantics
			}
			ss[i] = strings.Repeat("x", int(labels[i])%5+1)
		}
		tab := New()
		if err := tab.AddFloats("v", fs); err != nil {
			return false
		}
		if err := tab.AddStrings("l", ss); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
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

func TestEmptyTable(t *testing.T) {
	tab := New()
	if tab.NumRows() != 0 || tab.NumCols() != 0 {
		t.Fatal("empty table has rows")
	}
	got, err := tab.Take(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Fatal("take on empty table")
	}
}

func TestTableReset(t *testing.T) {
	tab, err := NewWithSchema([]Field{{Name: "x", Type: Float64}, {Name: "s", Type: String}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		err := tab.AppendRow([]Cell{{Float: float64(i), Valid: true}, {Str: "v", Valid: true}})
		if err != nil {
			t.Fatal(err)
		}
	}
	tab.Reset()
	if tab.NumRows() != 0 {
		t.Fatalf("rows after reset = %d", tab.NumRows())
	}
	// Refill after reset must behave like a fresh table.
	err = tab.AppendRow([]Cell{{Float: math.NaN(), Valid: true}, {Valid: false}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("rows after refill = %d", tab.NumRows())
	}
	mask, err := tab.ValidMask("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(mask) != 1 || mask[0] {
		t.Fatalf("NaN refill mask = %v", mask)
	}
}

// TestDenseMatrixKeepsCompleteRows pins the clustering input's shape:
// DenseMatrix keeps exactly the rows valid in every selected column, in
// table order, and maps each matrix row back to its table row.
func TestDenseMatrixKeepsCompleteRows(t *testing.T) {
	const n = 137
	a, b := make([]float64, n), make([]float64, n)
	valid := make([]bool, n)
	for i := range a {
		a[i], b[i] = float64(i), -float64(i)
		valid[i] = i%5 != 3
	}
	a[11] = math.NaN() // AddFloats reads a NaN as missing
	tab := New()
	if err := tab.AddFloats("a", a); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddFloatsValid("b", b, valid); err != nil {
		t.Fatal(err)
	}
	m, rowIdx, err := tab.DenseMatrix("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := range a {
		if valid[i] && i != 11 {
			want = append(want, i)
		}
	}
	if m.Rows() != len(want) || m.Cols() != 2 || !reflect.DeepEqual(rowIdx, want) {
		t.Fatalf("%dx%d matrix, row index %v; want %d rows %v", m.Rows(), m.Cols(), rowIdx, len(want), want)
	}
	for i, r := range want {
		if row := m.Row(i); row[0] != b[r] || row[1] != a[r] {
			t.Fatalf("row %d (table row %d) = %v, want [%v %v]", i, r, row, b[r], a[r])
		}
	}
	if _, _, err := tab.DenseMatrix("a", "missing"); err == nil {
		t.Fatal("want an error for an unknown column")
	}
}
