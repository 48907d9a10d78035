package table

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// viewSource builds an n-row table with one numeric and one categorical
// column (every seventh numeric cell NULL) and room for spare more rows in
// every column.
func viewSource(t *testing.T, n, spare int) *Table {
	t.Helper()
	tab, err := NewWithSchema([]Field{{Name: "v", Type: Float64}, {Name: "s", Type: String}})
	if err != nil {
		t.Fatal(err)
	}
	tab.Grow(n + spare)
	appendViewRows(t, tab, n)
	return tab
}

// appendViewRows appends n rows whose cells encode their row index.
func appendViewRows(t *testing.T, tab *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := tab.NumRows()
		err := tab.AppendRow([]Cell{
			{Float: float64(r) + 0.5, Valid: r%7 != 0},
			{Str: fmt.Sprintf("s-%04d", r), Valid: true},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mustBePinned fails unless every column of the view has cap == len, its
// dictionary included.
func mustBePinned(t *testing.T, label string, view *Table) {
	t.Helper()
	for _, c := range view.cols {
		if cap(c.Valid) != len(c.Valid) || cap(c.Floats) != len(c.Floats) || cap(c.Codes) != len(c.Codes) || cap(c.Dict) != len(c.Dict) {
			t.Fatalf("%s: column %q has spare capacity (valid %d/%d, floats %d/%d, codes %d/%d, dict %d/%d)", label, c.Name,
				len(c.Valid), cap(c.Valid), len(c.Floats), cap(c.Floats), len(c.Codes), cap(c.Codes), len(c.Dict), cap(c.Dict))
		}
		if c.index != nil {
			t.Fatalf("%s: column %q inherited a value index", label, c.Name)
		}
	}
}

// TestViewSharesStorageAndSurvivesAppends is the aliasing contract: a view
// of n rows costs no row copy, and stays bitwise what it was while the
// source appends — first within its capacity (same backing arrays, writes
// land beyond the view's length), then past it (the source reallocates,
// the view keeps the old arrays).
func TestViewSharesStorageAndSurvivesAppends(t *testing.T) {
	const n, spare = 40, 24
	src := viewSource(t, n, spare)
	want := src.Clone()
	view, err := src.View(0, n)
	if err != nil {
		t.Fatal(err)
	}
	mustBePinned(t, "view", view)
	for i, c := range src.cols {
		v := view.cols[i]
		if &v.Valid[0] != &c.Valid[0] || (c.Typ == Float64 && &v.Floats[0] != &c.Floats[0]) || (c.Typ == String && (&v.Codes[0] != &c.Codes[0] || &v.Dict[0] != &c.Dict[0])) {
			t.Fatalf("column %q: the view copied its rows", c.Name)
		}
	}
	assertBitwiseEqual(t, want, view, "fresh view")

	floats := &src.cols[0].Floats[0]
	appendViewRows(t, src, spare)
	if &src.cols[0].Floats[0] != floats {
		t.Fatal("appends within capacity reallocated: the test no longer covers in-place growth")
	}
	assertBitwiseEqual(t, want, view, "view after appends within capacity")

	appendViewRows(t, src, 4*n)
	if &src.cols[0].Floats[0] == floats {
		t.Fatal("appends past capacity did not reallocate: the test no longer covers reallocation")
	}
	assertBitwiseEqual(t, want, view, "view after a reallocating append")
	if src.NumRows() != n+spare+4*n {
		t.Fatalf("source holds %d rows", src.NumRows())
	}
}

// TestAppendThroughViewNeverWritesSource: cap == len forces an append on a
// view onto fresh arrays, so the cell the source would write next stays
// untouched and the source's own next row is not disturbed.
func TestAppendThroughViewNeverWritesSource(t *testing.T) {
	const n = 20
	src := viewSource(t, n, 8)
	if sc := src.cols[1]; cap(sc.Dict) == n {
		t.Fatal("the source's dictionary has no spare capacity: the test no longer covers a shared array")
	}
	view, err := src.View(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.AppendRow([]Cell{{Float: -1, Valid: true}, {Str: "through-view", Valid: true}}); err != nil {
		t.Fatal(err)
	}
	if err := view.AppendTable(view); err != nil {
		t.Fatal(err)
	}
	if next := src.cols[0].Floats[:n+1][n]; next != 0 {
		t.Fatalf("the append through the view wrote %v into the source's spare capacity", next)
	}
	sc := src.cols[1]
	if code, entry := sc.Codes[:n+1][n], sc.Dict[:n+1][n]; code != 0 || entry != "" {
		t.Fatalf("the append through the view wrote code %d / entry %q into the source's spare capacity", code, entry)
	}
	appendViewRows(t, src, 1)
	if got := sc.Dict[sc.Codes[n]]; got != fmt.Sprintf("s-%04d", n) {
		t.Fatalf("source row %d reads %q after its own append", n, got)
	}
	vc := view.cols[1]
	if got := vc.Dict[vc.Codes[n]]; got != "through-view" {
		t.Fatalf("view row %d reads %q after the source's append", n, got)
	}
}

// TestViewReaderRacesAppenderOfNewValues is the contract under -race: a
// reader walks the string cells of a view while the source appends rows
// whose values its dictionary has never held, first into spare capacity
// (the same arrays the view reads a prefix of) and then past it.
func TestViewReaderRacesAppenderOfNewValues(t *testing.T) {
	const n = 200
	src := viewSource(t, n, 50)
	sc := src.cols[1]
	spare := min(cap(sc.Dict)-len(sc.Dict), cap(sc.Codes)-len(sc.Codes))
	if spare < 10 {
		t.Fatalf("the source has room for %d more values in place: the test no longer covers a shared array", spare)
	}
	view, err := src.View(0, n)
	if err != nil {
		t.Fatal(err)
	}
	mustBePinned(t, "view", view)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			codes, dict, _ := view.StringCodes("s")
			vals, _ := view.Strings("s")
			for r, k := range codes {
				if want := fmt.Sprintf("s-%04d", r); dict[k] != want || vals[r] != want {
					errs <- fmt.Errorf("view row %d reads %q / %q, want %q", r, dict[k], vals[r], want)
					return
				}
			}
		}
	}()
	dict := &sc.Dict[0]
	appendViewRows(t, src, spare)
	if &sc.Dict[0] != dict {
		t.Fatal("appends within capacity reallocated the dictionary")
	}
	appendViewRows(t, src, 4*n)
	if &sc.Dict[0] == dict {
		t.Fatal("appends past capacity did not reallocate the dictionary")
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestViewRangesAndSliceCopies covers inner ranges, the empty view, the
// bounds check, and Slice as the copying form of the same range.
func TestViewRangesAndSliceCopies(t *testing.T) {
	src := viewSource(t, 30, 0)
	want, err := src.Take([]int{10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	view, err := src.View(10, 15)
	if err != nil {
		t.Fatal(err)
	}
	mustBePinned(t, "inner view", view)
	assertBitwiseEqual(t, want, view, "inner view")
	if v, err := view.Floats("v"); err != nil || &v[0] != &src.cols[0].Floats[10] {
		t.Fatalf("inner view does not alias row 10 of the source (err %v)", err)
	}

	part, err := src.Slice(10, 15)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, want, part, "slice")
	if err := part.SetFloat("v", 0, -99); err != nil {
		t.Fatal(err)
	}
	if src.cols[0].Floats[10] == -99 {
		t.Fatal("Slice shares storage with its source")
	}

	empty, err := src.View(7, 7)
	if err != nil || empty.NumRows() != 0 || empty.NumCols() != 2 {
		t.Fatalf("empty view: %v rows, err %v", empty.NumRows(), err)
	}
	for _, bad := range [][2]int{{-1, 2}, {5, 4}, {0, 31}} {
		if _, err := src.View(bad[0], bad[1]); err == nil {
			t.Fatalf("View(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// TestReadCSVCellsDoNotPinTheirLine: string cells must not keep the CSV
// line they were parsed from alive. Lines here are ~1 KB of numeric text
// around one short identifier and one categorical; once only the two
// string columns are kept, the heap may hold a small fraction of the CSV
// (substring cells would pin all of it).
func TestReadCSVCellsDoNotPinTheirLine(t *testing.T) {
	const rows, numeric = 3000, 60
	fields := []Field{{Name: "id", Type: String}, {Name: "class", Type: String}}
	for i := 0; i < numeric; i++ {
		fields = append(fields, Field{Name: fmt.Sprintf("n%02d", i), Type: Float64})
	}
	src, err := NewWithSchema(fields)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]Cell, len(fields))
	for r := 0; r < rows; r++ {
		cells[0] = Cell{Str: fmt.Sprintf("cert-%06d", r), Valid: true}
		cells[1] = Cell{Str: []string{"A", "B", "", "C"}[r%4], Valid: r%4 != 2}
		for i := 0; i < numeric; i++ {
			cells[2+i] = Cell{Float: float64(r) + float64(i)/7, Valid: true}
		}
		if err := src.AppendRow(cells); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	got, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, src, got, "parsed")
	kept, err := got.Select("id", "class")
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(data)
	runtime.KeepAlive(src)
	t.Logf("%d B of CSV; the two string columns retain %d B", len(data), retained)
	if retained > int64(len(data))/8 {
		t.Fatalf("two string columns of a %d B CSV retain %d B: cells pin their lines", len(data), retained)
	}
	if ids, _ := kept.Strings("id"); ids[rows-1] != fmt.Sprintf("cert-%06d", rows-1) {
		t.Fatalf("last id reads %q", ids[rows-1])
	}
}
