package table

import (
	"math"
	"reflect"
	"testing"
)

func epcLikeSchema() []Field {
	return []Field{
		{Name: "id", Type: String},
		{Name: "eph", Type: Float64},
		{Name: "class", Type: String},
	}
}

func TestNewWithSchema(t *testing.T) {
	tab, err := NewWithSchema(epcLikeSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 0 || tab.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tab.NumRows(), tab.NumCols())
	}
	if !reflect.DeepEqual(tab.Schema(), epcLikeSchema()) {
		t.Fatalf("schema = %+v", tab.Schema())
	}
	if _, err := NewWithSchema([]Field{{Name: "", Type: Float64}}); err == nil {
		t.Fatal("want error for empty name")
	}
	if _, err := NewWithSchema([]Field{{Name: "a", Type: Float64}, {Name: "a", Type: String}}); err == nil {
		t.Fatal("want error for duplicate name")
	}
	if _, err := NewWithSchema([]Field{{Name: "a", Type: Type(9)}}); err == nil {
		t.Fatal("want error for unknown type")
	}
}

func TestAppendRow(t *testing.T) {
	tab, err := NewWithSchema(epcLikeSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]Cell{
		{{Str: "c1", Valid: true}, {Float: 120, Valid: true}, {Str: "D", Valid: true}},
		{{Str: "c2", Valid: true}, {Valid: false}, {Str: "", Valid: false}},
		{{Str: "c3", Valid: true}, {Float: math.NaN(), Valid: true}, {Str: "B", Valid: true}},
	}
	for _, r := range rows {
		if err := tab.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	eph, _ := tab.Floats("eph")
	mask, _ := tab.ValidMask("eph")
	if eph[0] != 120 || !mask[0] {
		t.Fatalf("row 0 = %v valid=%v", eph[0], mask[0])
	}
	// Explicitly-invalid and NaN-carrying cells both land invalid with NaN.
	for _, r := range []int{1, 2} {
		if mask[r] || !math.IsNaN(eph[r]) {
			t.Fatalf("row %d = %v valid=%v", r, eph[r], mask[r])
		}
	}
	cmask, _ := tab.ValidMask("class")
	if cmask[1] {
		t.Fatal("invalid string cell marked valid")
	}
	// Wrong arity.
	if err := tab.AppendRow([]Cell{{Str: "x", Valid: true}}); err == nil {
		t.Fatal("want error for short row")
	}
	if tab.NumRows() != 3 {
		t.Fatalf("failed append changed row count to %d", tab.NumRows())
	}
}

func TestAppendTableAndConcat(t *testing.T) {
	mk := func(ids []string, ephs []float64) *Table {
		tab, err := NewWithSchema(epcLikeSchema())
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if err := tab.AppendRow([]Cell{
				{Str: ids[i], Valid: true},
				{Float: ephs[i], Valid: true},
				{Str: "C", Valid: true},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	a := mk([]string{"a1", "a2"}, []float64{10, 20})
	b := mk([]string{"b1"}, []float64{30})

	if err := a.AppendTable(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 3 {
		t.Fatalf("rows = %d", a.NumRows())
	}
	ids, _ := a.Strings("id")
	if !reflect.DeepEqual(ids, []string{"a1", "a2", "b1"}) {
		t.Fatalf("ids = %v", ids)
	}
	// Source unchanged.
	if b.NumRows() != 1 {
		t.Fatalf("source rows = %d", b.NumRows())
	}

	// Schema mismatch leaves the target untouched.
	other := New()
	if err := other.AddFloats("eph", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendTable(other); err == nil {
		t.Fatal("want schema mismatch error")
	}
	if a.NumRows() != 3 {
		t.Fatalf("failed append changed rows to %d", a.NumRows())
	}
}

func TestSlice(t *testing.T) {
	tab, err := NewWithSchema(epcLikeSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := tab.AppendRow([]Cell{
			{Str: "r", Valid: true},
			{Float: float64(i), Valid: true},
			{Str: "C", Valid: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	part, err := tab.Slice(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := part.Floats("eph")
	if !reflect.DeepEqual(vals, []float64{2, 3, 4}) {
		t.Fatalf("slice = %v", vals)
	}
	if empty, err := tab.Slice(3, 3); err != nil || empty.NumRows() != 0 {
		t.Fatalf("empty slice = %v rows, %v", empty.NumRows(), err)
	}
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 8}} {
		if _, err := tab.Slice(bad[0], bad[1]); err == nil {
			t.Fatalf("slice [%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestPartition(t *testing.T) {
	tab, err := NewWithSchema(epcLikeSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tab.AppendRow([]Cell{
			{Str: string(rune('a' + i)), Valid: true},
			{Float: float64(i), Valid: true},
			{Str: "C", Valid: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	parts, err := tab.Partition(3, func(row int) int { return row % 3 })
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for k, p := range parts {
		total += p.NumRows()
		vals, _ := p.Floats("eph")
		for _, v := range vals {
			if int(v)%3 != k {
				t.Fatalf("row with key %d landed in part %d", int(v)%3, k)
			}
		}
	}
	if total != 10 {
		t.Fatalf("partition lost rows: %d", total)
	}
	// Empty parts keep the schema.
	parts, err = tab.Partition(2, func(int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if parts[1].NumRows() != 0 || parts[1].NumCols() != 3 {
		t.Fatalf("empty part shape = %dx%d", parts[1].NumRows(), parts[1].NumCols())
	}
	// Out-of-range keys are an error.
	if _, err := tab.Partition(2, func(int) int { return 2 }); err == nil {
		t.Fatal("want error for out-of-range key")
	}
	if _, err := tab.Partition(0, nil); err == nil {
		t.Fatal("want error for zero parts")
	}
	// Growth after partition must not corrupt the parts (deep copies).
	if err := tab.AppendRow([]Cell{{Str: "k", Valid: true}, {Float: 99, Valid: true}, {Str: "C", Valid: true}}); err != nil {
		t.Fatal(err)
	}
	if parts[0].NumRows() != 10 {
		t.Fatalf("part aliased source growth: %d rows", parts[0].NumRows())
	}
}
