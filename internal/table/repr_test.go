package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The representation-equivalence suite: every table operation is applied
// to a Table and to a plain oracle that holds string cells the way tables
// did before they were dictionary coded — one []string and one []bool per
// column, every derived table a deep copy. After every operation every
// live pair must agree cell for cell, so a derived table still reads what
// it read when it was cut whatever its source or its siblings have done
// since.

// plainCol is one oracle column.
type plainCol struct {
	floats []float64
	strs   []string
	valid  []bool
}

// plain is the oracle table.
type plain struct {
	schema []Field
	cols   []plainCol
}

func newPlain(schema []Field) *plain {
	return &plain{schema: schema, cols: make([]plainCol, len(schema))}
}

func (p *plain) rows() int {
	if len(p.cols) == 0 {
		return 0
	}
	return len(p.cols[0].valid)
}

func (p *plain) appendCell(c int, cell Cell) {
	col := &p.cols[c]
	if p.schema[c].Type == Float64 {
		valid := cell.Valid && !math.IsNaN(cell.Float)
		v := cell.Float
		if !valid {
			v = math.NaN()
		}
		col.floats = append(col.floats, v)
		col.valid = append(col.valid, valid)
		return
	}
	s := cell.Str
	if !cell.Valid {
		s = ""
	}
	col.strs = append(col.strs, s)
	col.valid = append(col.valid, cell.Valid)
}

// take returns a deep copy of the given rows.
func (p *plain) take(rows []int) *plain {
	out := newPlain(p.schema)
	for c := range p.cols {
		src, dst := &p.cols[c], &out.cols[c]
		for _, r := range rows {
			if p.schema[c].Type == Float64 {
				dst.floats = append(dst.floats, src.floats[r])
			} else {
				dst.strs = append(dst.strs, src.strs[r])
			}
			dst.valid = append(dst.valid, src.valid[r])
		}
	}
	return out
}

func (p *plain) appendTaken(o *plain, rows []int) {
	part := o.take(rows) // a copy first: o may be p
	for c := range p.cols {
		p.cols[c].floats = append(p.cols[c].floats, part.cols[c].floats...)
		p.cols[c].strs = append(p.cols[c].strs, part.cols[c].strs...)
		p.cols[c].valid = append(p.cols[c].valid, part.cols[c].valid...)
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// throughCSV is what a typed-CSV round trip keeps: a valid empty string
// comes back missing, a payload under an invalid cell is not written.
func (p *plain) throughCSV() *plain {
	out := p.take(seq(0, p.rows()))
	for c := range out.cols {
		if p.schema[c].Type != String {
			continue
		}
		col := &out.cols[c]
		for i := range col.strs {
			if !col.valid[i] || col.strs[i] == "" {
				col.strs[i], col.valid[i] = "", false
			}
		}
	}
	return out
}

// mustAgree fails unless tab reads exactly what the oracle holds, through
// Strings and through StringCodes alike.
func mustAgree(t *testing.T, label string, tab *Table, want *plain) {
	t.Helper()
	if tab.NumRows() != want.rows() || tab.NumCols() != len(want.schema) {
		t.Fatalf("%s: table is %d x %d, oracle %d x %d", label, tab.NumRows(), tab.NumCols(), want.rows(), len(want.schema))
	}
	for c, f := range want.schema {
		col := &want.cols[c]
		valid, err := tab.ValidMask(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range col.valid {
			if valid[i] != col.valid[i] {
				t.Fatalf("%s: column %q row %d: valid %v, oracle %v", label, f.Name, i, valid[i], col.valid[i])
			}
		}
		if f.Type == Float64 {
			vals, err := tab.Floats(f.Name)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, v := range col.floats {
				if math.Float64bits(vals[i]) != math.Float64bits(v) {
					t.Fatalf("%s: column %q row %d: %v, oracle %v", label, f.Name, i, vals[i], v)
				}
			}
			continue
		}
		vals, err := tab.Strings(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, s := range col.strs {
			if vals[i] != s {
				t.Fatalf("%s: column %q row %d: %q, oracle %q", label, f.Name, i, vals[i], s)
			}
		}
		codes, dict, _ := tab.StringCodes(f.Name)
		for i, k := range codes {
			if int(k) >= len(dict) || dict[k] != col.strs[i] {
				t.Fatalf("%s: column %q row %d: code %d of a dictionary of %d, oracle %q", label, f.Name, i, k, len(dict), col.strs[i])
			}
		}
	}
}

var reprSchema = []Field{
	{Name: "f", Type: Float64},
	{Name: "few", Type: String},  // a handful of levels, "" among them
	{Name: "some", Type: String}, // more levels than a small-dictionary shortcut would hold
	{Name: "id", Type: String},   // nearly unique
}

func reprCells(rng *rand.Rand) []Cell {
	few := []string{"A", "B", "", "C", "D"}
	return []Cell{
		{Float: float64(rng.Intn(50)) / 4, Valid: rng.Intn(8) != 0},
		{Str: few[rng.Intn(len(few))], Valid: rng.Intn(6) != 0},
		{Str: fmt.Sprintf("level-%02d", rng.Intn(40)), Valid: rng.Intn(10) != 0},
		{Str: fmt.Sprintf("id-%05d", rng.Intn(3000)), Valid: true},
	}
}

// pair is a table, its oracle, and whether a View shares its cells (such a
// table may only append: Set* and Reset would write what the view reads).
type pair struct {
	tab    *Table
	want   *plain
	viewed bool
	isView bool
	label  string
}

func randomRows(rng *rand.Rand, n int) []int {
	if n == 0 {
		return nil
	}
	rows := make([]int, rng.Intn(2*n+1))
	for i := range rows {
		rows[i] = rng.Intn(n)
	}
	return rows
}

func TestRepresentationMatchesPlainOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runReprSequence(t, seed, 260) })
	}
}

func runReprSequence(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	var pool []*pair
	add := func(label string, tab *Table, want *plain) *pair {
		p := &pair{tab: tab, want: want, label: fmt.Sprintf("%s#%d", label, len(pool))}
		pool = append(pool, p)
		return p
	}
	fresh := func() *pair {
		tab, err := NewWithSchema(reprSchema)
		if err != nil {
			t.Fatal(err)
		}
		return add("fresh", tab, newPlain(reprSchema))
	}
	// withPayloads builds a table whose invalid string cells carry values:
	// what a foreign binary body decodes to, reachable through
	// AddStringsValid only.
	withPayloads := func() *pair {
		n := 5 + rng.Intn(30)
		want := newPlain(reprSchema)
		tab := New()
		for c, f := range reprSchema {
			col := &want.cols[c]
			for i := 0; i < n; i++ {
				cell := reprCells(rng)[c]
				if f.Type == Float64 {
					want.appendCell(c, cell)
					continue
				}
				col.strs = append(col.strs, cell.Str)
				col.valid = append(col.valid, cell.Valid)
			}
			var err error
			if f.Type == Float64 {
				err = tab.AddFloatsValid(f.Name, col.floats, col.valid)
			} else {
				err = tab.AddStringsValid(f.Name, col.strs, col.valid)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return add("payloads", tab, want)
	}
	pick := func() *pair { return pool[rng.Intn(len(pool))] }
	fresh()
	for step := 0; step < steps; step++ {
		if len(pool) > 14 {
			// Forget one at random: its rows stay reachable only through
			// whatever was derived from it.
			i := rng.Intn(len(pool))
			pool = append(pool[:i], pool[i+1:]...)
		}
		p := pick()
		n := p.tab.NumRows()
		op := rng.Intn(22)
		desc := fmt.Sprintf("seed %d step %d op %d on %s", seed, step, op, p.label)
		switch op {
		case 0, 1, 2: // AppendRow, a few at a time
			for k := rng.Intn(12); k >= 0 && p.tab.NumRows() < 600; k-- {
				cells := reprCells(rng)
				if err := p.tab.AppendRow(cells); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				for c, cell := range cells {
					p.want.appendCell(c, cell)
				}
			}
		case 3: // AppendTable, itself included
			src := pick()
			if n+src.tab.NumRows() > 900 {
				continue
			}
			desc += " from " + src.label
			if err := p.tab.AppendTable(src.tab); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			p.want.appendTaken(src.want, seq(0, src.want.rows()))
		case 4: // AppendTaken
			src := pick()
			rows := randomRows(rng, src.tab.NumRows())
			if n+len(rows) > 900 {
				continue
			}
			desc += " from " + src.label
			if err := p.tab.AppendTaken(src.tab, rows); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			p.want.appendTaken(src.want, rows)
		case 5: // self-append through a view
			if n == 0 || n > 400 {
				continue
			}
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			v, err := p.tab.View(lo, hi)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			if err := p.tab.AppendTable(v); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			p.want.appendTaken(p.want, seq(lo, hi))
			p.viewed = true
			add("selfview", v, p.want.take(seq(lo, hi))).isView = true
		case 6: // Take
			rows := randomRows(rng, n)
			got, err := p.tab.Take(rows)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			add("take", got, p.want.take(rows))
		case 7: // FilterMask
			keep := make([]bool, n)
			var rows []int
			for i := range keep {
				if keep[i] = rng.Intn(3) != 0; keep[i] {
					rows = append(rows, i)
				}
			}
			got, err := p.tab.FilterMask(keep)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			add("filter", got, p.want.take(rows))
		case 8: // View
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			v, err := p.tab.View(lo, hi)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			p.viewed = true
			add("view", v, p.want.take(seq(lo, hi))).isView = true
		case 9: // Clone
			add("clone", p.tab.Clone(), p.want.take(seq(0, n)))
		case 10: // Select: checked on the spot, and that it is its own table
			got, err := p.tab.Select("id", "few")
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			all := p.want.take(seq(0, n))
			sel := &plain{schema: []Field{reprSchema[3], reprSchema[1]}, cols: []plainCol{all.cols[3], all.cols[1]}}
			if n > 0 {
				r := rng.Intn(n)
				if err := got.SetString("few", r, "only-in-the-selection"); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				sel.cols[1].strs[r], sel.cols[1].valid[r] = "only-in-the-selection", true
			}
			mustAgree(t, desc+": selection", got, sel)
		case 11: // Partition
			parts := 1 + rng.Intn(4)
			keys := make([]int, n)
			for i := range keys {
				keys[i] = rng.Intn(parts)
			}
			got, err := p.tab.Partition(parts, func(r int) int { return keys[r] })
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			for k, part := range got {
				var rows []int
				for r, key := range keys {
					if key == k {
						rows = append(rows, r)
					}
				}
				add("part", part, p.want.take(rows))
			}
		case 12: // several tables appended onto an empty one
			ins := []*pair{p, pick(), pick()}[:1+rng.Intn(3)]
			want := newPlain(reprSchema)
			for _, in := range ins {
				want.appendTaken(in.want, seq(0, in.want.rows()))
			}
			if want.rows() > 900 {
				continue
			}
			got, err := NewWithSchema(reprSchema)
			for _, in := range ins {
				if err == nil {
					err = got.AppendTable(in.tab)
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			add("concat", got, want)
		case 13, 14: // SetString / SetInvalid
			if p.viewed || p.isView || n == 0 {
				continue
			}
			for k := rng.Intn(6); k >= 0; k-- {
				r, c := rng.Intn(n), 1+rng.Intn(3)
				name := reprSchema[c].Name
				if op == 14 && rng.Intn(2) == 0 {
					if err := p.tab.SetInvalid(name, r); err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					p.want.cols[c].strs[r], p.want.cols[c].valid[r] = "", false
					continue
				}
				v := reprCells(rng)[c].Str
				if rng.Intn(4) == 0 {
					v = fmt.Sprintf("rewritten-%d-%d", step, k)
				}
				if err := p.tab.SetString(name, r, v); err != nil {
					t.Fatalf("%s: %v", desc, err)
				}
				p.want.cols[c].strs[r], p.want.cols[c].valid[r] = v, true
			}
		case 15: // Reset, then the table is refilled by later steps
			if p.viewed || p.isView {
				continue
			}
			p.tab.Reset()
			p.want = newPlain(reprSchema)
		case 16: // Encode → Decode
			enc := Encode(p.tab)
			add("decoded", enc.Decode(), p.want.take(seq(0, n)))
		case 17: // Encode → Take
			rows := randomRows(rng, n)
			got, err := Encode(p.tab).Take(rows)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			add("enctake", got, p.want.take(rows))
		case 18: // Encode → TakeAppend / AppendTo onto another table, p itself included
			dst := pick()
			rows, all := randomRows(rng, n), rng.Intn(3) == 0
			if all {
				rows = seq(0, n)
			}
			if dst.tab.NumRows()+len(rows) > 900 {
				continue
			}
			desc += " onto " + dst.label
			enc, src := Encode(p.tab), p.want.take(rows)
			var err error
			if all {
				err = enc.AppendTo(dst.tab)
			} else {
				err = enc.TakeAppend(dst.tab, rows)
			}
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			dst.want.appendTaken(src, seq(0, src.rows()))
		case 19: // typed CSV round trip
			var buf bytes.Buffer
			if err := p.tab.WriteCSV(&buf); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			got, err := ReadCSV(&buf)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			add("csv", got, p.want.throughCSV())
		case 20: // binary round trip: payloads under invalid cells survive
			var buf bytes.Buffer
			if err := Encode(p.tab).WriteBinary(&buf); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			got, err := ReadEncoded(&buf)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			add("binary", got.Decode(), p.want.take(seq(0, n)))
		case 21: // the value index goes; cells never notice
			if rng.Intn(2) == 0 {
				withPayloads()
			} else {
				p.tab.DropIndex()
			}
		}
		for _, q := range pool {
			mustAgree(t, desc+": "+q.label, q.tab, q.want)
		}
	}
}

// TestRepresentationPastSixteenBitCodes takes a column through more than
// 65 536 distinct values — past anything a one- or two-byte code could
// hold — and across every road cells travel between dictionaries.
func TestRepresentationPastSixteenBitCodes(t *testing.T) {
	const n = 70_000
	schema := []Field{{Name: "id", Type: String}, {Name: "few", Type: String}}
	tab, err := NewWithSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	want := newPlain(schema)
	for i := 0; i < n; i++ {
		cells := []Cell{{Str: fmt.Sprintf("id-%06d", i), Valid: true}, {Str: fmt.Sprintf("l%d", i%17), Valid: i%5 != 0}}
		if err := tab.AppendRow(cells); err != nil {
			t.Fatal(err)
		}
		want.appendCell(0, cells[0])
		want.appendCell(1, cells[1])
	}
	mustAgree(t, "built", tab, want)
	if _, dict, _ := tab.StringCodes("id"); len(dict) != n {
		t.Fatalf("dictionary holds %d values, want %d", len(dict), n)
	}

	// The tail end, whose codes are all past 65 535, into a table that has
	// a dictionary of its own: translated, not copied.
	tail := seq(n-3000, n)
	other, err := NewWithSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AppendRow([]Cell{{Str: "id-069999", Valid: true}, {Str: "elsewhere", Valid: true}}); err != nil {
		t.Fatal(err)
	}
	if err := other.AppendTaken(tab, tail); err != nil {
		t.Fatal(err)
	}
	otherWant := newPlain(schema)
	otherWant.appendCell(0, Cell{Str: "id-069999", Valid: true})
	otherWant.appendCell(1, Cell{Str: "elsewhere", Valid: true})
	otherWant.appendTaken(want, tail)
	mustAgree(t, "translated", other, otherWant)

	enc := Encode(tab)
	if kind := enc.Column("id").Kind(); kind != KindRawString {
		t.Fatalf("a unique column encoded as %v", kind)
	}
	mustAgree(t, "decoded", enc.Decode(), want)
	got, err := enc.Take(tail)
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, "taken from the encoding", got, want.take(tail))

	var buf bytes.Buffer
	if err := enc.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEncoded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mustAgree(t, "binary round trip", back.Decode(), want)
}
