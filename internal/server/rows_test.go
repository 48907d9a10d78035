package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"indice/internal/store"
	"indice/internal/table"
)

// queryResponse is an /api/query answer as a Go value: what the tests
// decode bodies into and, with rowPage, the map-based renderer the
// serving path used before it appended rows straight into the body — the
// oracle encodeAnswer and the row encoder are compared against.
type queryResponse struct {
	queryHead
	Rows *[]map[string]any `json:"rows,omitempty"`
	queryTail
}

// rowPage renders rows [offset, offset+limit) of tab as attribute/value
// objects; invalid cells render as null. The result is never nil.
func rowPage(tab *table.Table, offset, limit int) []map[string]any {
	n := tab.NumRows()
	if offset >= n {
		return []map[string]any{}
	}
	end := offset + limit
	if end > n {
		end = n
	}
	schema := tab.Schema()
	rows := make([]map[string]any, 0, end-offset)
	for r := offset; r < end; r++ {
		row := make(map[string]any, len(schema))
		for _, f := range schema {
			valid, _ := tab.ValidMask(f.Name)
			switch {
			case !valid[r]:
				row[f.Name] = nil
			case f.Type == table.Float64:
				floats, _ := tab.Floats(f.Name)
				if v := floats[r]; math.IsNaN(v) || math.IsInf(v, 0) {
					row[f.Name] = nil
				} else {
					row[f.Name] = v
				}
			default:
				strs, _ := tab.Strings(f.Name)
				row[f.Name] = strs[r]
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// oracleRows is the "rows" array the map renderer and encoding/json
// produce for rows [offset, offset+limit) of tab.
func oracleRows(t testing.TB, tab *table.Table, offset, limit int) []byte {
	t.Helper()
	enc, err := json.Marshal(rowPage(tab, offset, limit))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, enc); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return compact.Bytes()
}

// encodedRows is the same array rendered from the encodings: tab encoded
// in parts of 3 rows, the page cut out of them as runs.
func encodedRows(tab *table.Table, offset, limit int) []byte {
	return append(appendRows([]byte{'['}, pageOf(tab, offset, limit)), ']')
}

// pageOf returns rows [offset, offset+limit) of tab as runs of encodings
// of 3 rows each, the way a store hands a page over.
func pageOf(tab *table.Table, offset, limit int) []store.PageRun {
	page := []store.PageRun{}
	for lo := 0; lo < tab.NumRows(); lo += 3 {
		part, err := tab.View(lo, min(lo+3, tab.NumRows()))
		if err != nil {
			panic(err)
		}
		run := store.PageRun{Enc: table.Encode(part), Words: []uint64{0}}
		for r := lo; r < lo+part.NumRows(); r++ {
			if r >= offset && r < offset+limit {
				run.Words[0] |= 1 << (r - lo)
			}
		}
		page = append(page, run)
	}
	return page
}

var (
	awkwardFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		1e20, 9.999999999999999e20, 1e21, 1.5e21, -1e21, 1e22, 1e300, math.MaxFloat64,
		1e-5, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 5e-324, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	awkwardStrings = []string{
		"", "plain", "E.1.1", "Via Roma 12", `say "hi"`, `back\slash`, "tab\there", "nl\nhere", "cr\rhere",
		"bell\a", "bs\bff\f", "nul\x00", "\x1f", "\x7f", "<script>&amp;</script>", "a\u2028b\u2029c",
		"caffè", "日本語", "\xff\xfe", "half\xc3", "\xed\xa0\x80", "😀",
	}
)

// awkwardTable holds one row per awkward value in a numeric and a
// categorical column, a NULL-heavy pair beside them, and column names
// that themselves need escaping and sorting.
func awkwardTable(t testing.TB) *table.Table {
	t.Helper()
	n := len(awkwardFloats)
	if len(awkwardStrings) > n {
		n = len(awkwardStrings)
	}
	floats, strs := make([]float64, n), make([]string, n)
	sparse, sparseValid := make([]float64, n), make([]bool, n)
	sparseStr, sparseStrValid := make([]string, n), make([]bool, n)
	for i := 0; i < n; i++ {
		floats[i] = awkwardFloats[i%len(awkwardFloats)]
		strs[i] = awkwardStrings[i%len(awkwardStrings)]
		sparse[i], sparseValid[i] = float64(i)/7, i%5 == 0
		sparseStr[i], sparseStrValid[i] = strs[i], i%4 == 0
	}
	tab := table.New()
	// Valid cells holding NaN and ±Inf must still render null.
	allValid := make([]bool, n)
	for i := range allValid {
		allValid[i] = true
	}
	for _, err := range []error{
		tab.AddFloatsValid("zeta", floats, allValid),
		tab.AddStrings("alpha", strs),
		tab.AddFloatsValid("mid<&>", sparse, sparseValid),
		tab.AddStringsValid(`q"uote`, sparseStr, sparseStrValid),
		tab.AddStrings("Alpha", strs),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestRowEncoderMatchesEncodingJSON: the columnar encoder's bytes equal
// json.Compact(json.Marshal(rowPage(...))) over the awkward corners of
// both cell types, every page window included.
func TestRowEncoderMatchesEncodingJSON(t *testing.T) {
	tab := awkwardTable(t)
	n := tab.NumRows()
	for _, w := range [][2]int{{0, n}, {0, 1}, {3, 4}, {n - 1, 5}, {n, 5}, {n + 10, 1}, {0, n + 10}} {
		got, want := encodedRows(tab, w[0], w[1]), oracleRows(t, tab, w[0], w[1])
		if !bytes.Equal(got, want) {
			t.Fatalf("rows [%d,+%d):\n got %s\nwant %s", w[0], w[1], got, want)
		}
	}
	if got := encodedRows(tab, n, 5); string(got) != "[]" {
		t.Fatalf("empty page renders %s, want []", got)
	}

	// A leg's per-row encoding is the same objects, one message each.
	rows := encodeRows(pageOf(tab, 0, n))
	if len(rows) != n {
		t.Fatalf("encodeRows: %d messages for %d rows", len(rows), n)
	}
	joined := []byte{'['}
	for i, row := range rows {
		if i > 0 {
			joined = append(joined, ',')
		}
		joined = append(joined, row...)
	}
	if joined = append(joined, ']'); !bytes.Equal(joined, oracleRows(t, tab, 0, n)) {
		t.Fatalf("encodeRows differs from the oracle:\n got %s", joined)
	}
}

// TestRowEncoderRandomized draws tables of random shape and content.
func TestRowEncoderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		tab := randomRowTable(rng)
		offset, limit := rng.Intn(tab.NumRows()+2), 1+rng.Intn(tab.NumRows()+2)
		got, want := encodedRows(tab, offset, limit), oracleRows(t, tab, offset, limit)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d rows [%d,+%d):\n got %s\nwant %s", trial, offset, limit, got, want)
		}
	}
}

func randomRowTable(rng *rand.Rand) *table.Table {
	n := 1 + rng.Intn(12)
	tab := table.New()
	for c, cols := 0, 1+rng.Intn(6); c < cols; c++ {
		name := string(rune('a'+rng.Intn(26))) + string(rune('A'+c))
		valid := make([]bool, n)
		for i := range valid {
			valid[i] = rng.Intn(3) > 0
		}
		if rng.Intn(2) == 0 {
			vals := make([]float64, n)
			for i := range vals {
				switch rng.Intn(4) {
				case 0:
					vals[i] = awkwardFloats[rng.Intn(len(awkwardFloats))]
				case 1:
					vals[i] = math.Float64frombits(rng.Uint64())
				default:
					vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
				}
			}
			tab.AddFloatsValid(name, vals, valid)
		} else {
			vals := make([]string, n)
			for i := range vals {
				if rng.Intn(2) == 0 {
					vals[i] = awkwardStrings[rng.Intn(len(awkwardStrings))]
				} else {
					b := make([]byte, rng.Intn(8))
					rng.Read(b)
					vals[i] = string(b)
				}
			}
			tab.AddStringsValid(name, vals, valid)
		}
	}
	return tab
}

// FuzzRowEncoder: one numeric and one categorical cell under a fuzzed
// column name, valid and not, against encoding/json.
func FuzzRowEncoder(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add("attr", s, awkwardFloats[i%len(awkwardFloats)], true)
		f.Add(s, "v", awkwardFloats[(i+7)%len(awkwardFloats)], i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, name, s string, v float64, valid bool) {
		tab := table.New()
		if err := tab.AddFloatsValid(name+"#", []float64{v, -v}, []bool{valid, true}); err != nil {
			t.Skip()
		}
		if err := tab.AddStringsValid(name, []string{s, s + name}, []bool{true, valid}); err != nil {
			t.Skip()
		}
		got, want := encodedRows(tab, 0, 2), oracleRows(t, tab, 0, 2)
		if !bytes.Equal(got, want) {
			t.Fatalf("name %q s %q v %v valid %v:\n got %s\nwant %s", name, s, v, valid, got, want)
		}
	})
}

// FuzzRowEncoderDecimals: packed decimal cells — a fuzzed integer over a
// fuzzed power of ten, as a CSV field carries them — print from their
// integers exactly as encoding/json prints the decoded floats.
func FuzzRowEncoderDecimals(f *testing.F) {
	for _, seed := range []struct {
		n     int64
		scale uint8
	}{{0, 0}, {1, 6}, {-1, 7}, {5, 15}, {999999999999999, 3}, {1000000000000000, 0}, {12345, 2}, {-120, 1}, {7, 12}} {
		f.Add(seed.n, seed.scale, int64(3))
	}
	f.Fuzz(func(t *testing.T, n int64, scale uint8, step int64) {
		if n > 1<<52 || n < -(1<<52) || step > 1<<40 || step < -(1<<40) {
			t.Skip()
		}
		p := math.Pow10(int(scale % 16))
		vals := make([]float64, 5)
		for i := range vals {
			vals[i] = float64(n+int64(i)*step) / p
		}
		tab := table.New()
		if err := tab.AddFloats("v", vals); err != nil {
			t.Fatal(err)
		}
		got, want := encodedRows(tab, 0, len(vals)), oracleRows(t, tab, 0, len(vals))
		if !bytes.Equal(got, want) {
			t.Fatalf("n %d scale %d step %d:\n got %s\nwant %s", n, scale%16, step, got, want)
		}
	})
}
