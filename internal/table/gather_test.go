package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gatherCase draws 2–3 encoded sources of one schema and a gather taking
// their rows in random runs. Each source is encoded on its own, so a
// column's layout, dictionary, scale and base differ between sources:
//
//   - d: decimals at a scale of the source's own (0–3), some invalid;
//   - m: like d, except that a source may hold a value with no decimal
//     scale, a −0, an integer range too wide to pack, or an invalid cell
//     whose NaN is not the canonical one — each of which forces the raw
//     layout somewhere;
//   - k: one integral value, or none valid;
//   - c: values drawn from a pool about dictMaxCardinality of the rows,
//     so the taken rows fall on either side of the dictionary ceiling;
//   - u: identifiers, unique but for a few repeats, invalid cells with a
//     payload now and then;
//   - e: three levels.
func gatherCase(rng *rand.Rand) ([]Field, []*Encoded, *Gather) {
	schema := []Field{{"d", Float64}, {"m", Float64}, {"k", Float64}, {"c", String}, {"u", String}, {"e", String}}
	nsrc := 2 + rng.Intn(2)
	srcs := make([]*Encoded, nsrc)
	total := 0
	sizes := make([]int, nsrc)
	for s := range sizes {
		sizes[s] = rng.Intn(160)
		if rng.Intn(8) == 0 {
			sizes[s] = 0
		}
		total += sizes[s]
	}
	pool := max(1, dictMaxCardinality(total)+rng.Intn(9)-4)
	for s, n := range sizes {
		t := New()
		scale := rng.Intn(4)
		p := math.Pow(10, float64(scale))
		shift := float64(rng.Intn(2000) - 1000)
		d, m, k := make([]float64, n), make([]float64, n), make([]float64, n)
		dv, mv, kv := make([]bool, n), make([]bool, n), make([]bool, n)
		c, u, e := make([]string, n), make([]string, n), make([]string, n)
		cv, uv, ev := make([]bool, n), make([]bool, n), make([]bool, n)
		konst := float64(rng.Intn(5))
		mKind := rng.Intn(6)
		for i := 0; i < n; i++ {
			d[i] = (shift + float64(rng.Intn(100000))) / p
			dv[i] = rng.Intn(10) != 0
			m[i] = math.Round(rng.NormFloat64()*1e4) / p
			mv[i] = rng.Intn(6) != 0
			k[i], kv[i] = konst, mKind != 0
			c[i] = fmt.Sprintf("c%04d", rng.Intn(pool))
			cv[i] = rng.Intn(12) != 0
			u[i] = fmt.Sprintf("id-%d-%d", s, i)
			if rng.Intn(10) == 0 {
				u[i] = "id-shared"
			}
			uv[i] = rng.Intn(15) != 0
			if !uv[i] && rng.Intn(3) != 0 {
				u[i] = ""
			}
			e[i] = []string{"A", "B", "C"}[rng.Intn(3)]
			ev[i] = true
		}
		if n > 0 {
			switch i := rng.Intn(n); mKind {
			case 1:
				m[i], mv[i] = 1.0/3, true
			case 2:
				m[i], mv[i] = math.Copysign(0, -1), true
			case 3:
				m[i], mv[i] = float64(int64(1)<<40), true
			}
		}
		for _, err := range []error{
			t.AddFloatsValid("d", d, dv), t.AddFloatsValid("m", m, mv), t.AddFloatsValid("k", k, kv),
			t.AddStringsValid("c", c, cv), t.AddStringsValid("u", u, uv), t.AddStringsValid("e", e, ev),
		} {
			if err != nil {
				panic(err)
			}
		}
		if mKind == 4 && n > 0 {
			// An invalid cell carrying a NaN other than the canonical one.
			i := rng.Intn(n)
			t.cols[1].Valid[i], t.cols[1].Floats[i] = false, math.Float64frombits(nanBits^1)
		}
		srcs[s] = Encode(t)
	}
	g := &Gather{}
	for runs := rng.Intn(12); runs > 0; runs-- {
		s := rng.Intn(nsrc)
		if sizes[s] == 0 {
			continue
		}
		lo := rng.Intn(sizes[s])
		hi := min(sizes[s], lo+1+rng.Intn(40))
		for r := lo; r < hi; r++ {
			switch rng.Intn(4) {
			case 0: // skip the row
			case 1:
				g.Add(s, rng.Intn(sizes[s])) // any row, maybe again
			default:
				g.Add(s, r)
			}
		}
	}
	return schema, srcs, g
}

// checkGather fails unless EncodeRows writes the bytes Encode writes for
// the gathered rows decoded.
func checkGather(t *testing.T, schema []Field, srcs []*Encoded, g *Gather) {
	t.Helper()
	dec, err := NewWithSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range g.spans {
		for r := sp.from; r < sp.from+sp.n; r++ {
			if err := srcs[sp.src].TakeAppend(dec, []int{r}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want, got bytes.Buffer
	if err := Encode(dec).WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeRows(schema, srcs, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		want := Encode(dec)
		for i, c := range enc.cols {
			w := want.cols[i]
			t.Errorf("column %s: %v scale %d base %d width %d dict %d, Encode: %v scale %d base %d width %d dict %d",
				c.name, c.kind, c.scale, c.base, c.codes.width, len(c.dict), w.kind, w.scale, w.base, w.codes.width, len(w.dict))
		}
		t.Fatalf("EncodeRows of %d rows differs from Encode of them decoded", g.rows)
	}
}

func TestEncodeRowsMatchesEncode(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		schema, srcs, g := gatherCase(rand.New(rand.NewSource(seed)))
		checkGather(t, schema, srcs, g)
	}
}

// FuzzEncodeRows checks EncodeRows against Encode of the decoded rows on
// gathers drawn from the seed (gatherCase).
func FuzzEncodeRows(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		schema, srcs, g := gatherCase(rand.New(rand.NewSource(seed)))
		checkGather(t, schema, srcs, g)
	})
}

// TestEncodeRowsKeepsLayouts pins that the common cases stay in code
// space, not in the decode fallback: a packed column keeps its scale, a
// dictionary its sorted values, across sources at different scales.
func TestEncodeRowsKeepsLayouts(t *testing.T) {
	a, b := New(), New()
	if err := a.AddFloats("x", []float64{1.25, 2.5, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFloats("x", []float64{7, 8.5}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStrings("s", []string{"b", "a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddStrings("s", []string{"c", "a"}); err != nil {
		t.Fatal(err)
	}
	g := &Gather{}
	g.Add(1, 1)
	g.Add(0, 0)
	g.Add(0, 2)
	g.Add(1, 0)
	enc, err := EncodeRows(a.Schema(), []*Encoded{Encode(a), Encode(b)}, g)
	if err != nil {
		t.Fatal(err)
	}
	x, s := enc.Column("x"), enc.Column("s")
	if x.kind != KindPacked || x.scale != 2 || x.base != 125 {
		t.Fatalf("x: %v at scale %d base %d, want packed at 2 from 125", x.kind, x.scale, x.base)
	}
	if s.kind != KindDict || fmt.Sprint(s.dict) != "[a b c]" {
		t.Fatalf("s: %v %v, want the dictionary [a b c]", s.kind, s.dict)
	}
	got, err := enc.Decode().Floats("x")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[8.5 1.25 3 7]" {
		t.Fatalf("x decodes to %v", got)
	}
	checkGather(t, a.Schema(), []*Encoded{Encode(a), Encode(b)}, g)
}

func TestEncodeRowsErrors(t *testing.T) {
	a := New()
	if err := a.AddFloats("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	srcs := []*Encoded{Encode(a)}
	for name, g := range map[string]*Gather{
		"row out of range":    {spans: []span{{0, 2, 1}}, rows: 1},
		"source out of range": {spans: []span{{1, 0, 1}}, rows: 1},
	} {
		if _, err := EncodeRows(a.Schema(), srcs, g); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	g := &Gather{}
	g.Add(0, 1)
	if _, err := EncodeRows([]Field{{"y", Float64}}, srcs, g); err == nil {
		t.Error("a column no source holds: no error")
	}
	// A source no row is taken from need not hold the column.
	if enc, err := EncodeRows([]Field{{"x", Float64}}, []*Encoded{srcs[0], Encode(New())}, g); err != nil || enc.NumRows() != 1 {
		t.Errorf("unused source without the column: %v", err)
	}
}

func TestJoin(t *testing.T) {
	a, b := New(), New()
	if err := a.AddFloats("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddStrings("s", []string{"p", "q"}); err != nil {
		t.Fatal(err)
	}
	schema := []Field{{"s", String}, {"x", Float64}}
	ea, eb := Encode(a), Encode(b)
	j, err := Join(schema, ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 || j.Column("x") != ea.Column("x") || j.Column("s") != eb.Column("s") {
		t.Fatalf("join holds %d rows, columns %v", j.NumRows(), j.Schema())
	}
	c := New()
	if err := c.AddStrings("s", []string{"p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Join(schema, Encode(c), ea); err == nil {
		t.Error("parts of different row counts joined")
	}
	if _, err := Join([]Field{{"x", String}}, ea); err == nil {
		t.Error("a column of another type joined")
	}
}

// TestUnpackMatchesAt pins the word-at-a-time read of consecutive codes
// to the one-code read, at every width, from every start.
func TestUnpackMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for width := 0; width <= 64; width++ {
		const n = 200
		p := newPacked(n, width)
		for i := 0; i < n; i++ {
			p.set(i, rng.Uint64()&(uint64(1)<<uint(width)-1))
		}
		for from := 0; from < n; from += 1 + rng.Intn(7) {
			dst := make([]uint64, 1+rng.Intn(n-from))
			p.unpack(from, dst)
			for i, v := range dst {
				if v != p.at(from+i) {
					t.Fatalf("width %d: row %d unpacks to %d, at reads %d", width, from+i, v, p.at(from+i))
				}
			}
		}
	}
}
