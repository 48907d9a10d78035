package table

import (
	"bytes"
	"math"
	"testing"
)

// TestBinaryEdgeCases pins the binary round trip (Encode + WriteBinary,
// ReadEncoded + Decode) bit for bit on the degenerate shapes the durable
// store's WAL and segment files depend on: zero-row tables that still
// carry a schema (an empty shard checkpoint), columns that are entirely
// NULL, empty-but-valid strings (which must stay distinguishable from
// NULL), NaN and -0.0 cells, and invalid cells that carry a payload.
func TestBinaryEdgeCases(t *testing.T) {
	schema := []Field{
		{Name: "id", Type: String},
		{Name: "v", Type: Float64},
	}
	build := func(t *testing.T, mutate func(*Table)) *Table {
		t.Helper()
		tab, err := NewWithSchema(schema)
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(tab)
		}
		return tab
	}
	addRow := func(t *testing.T, tab *Table, id string, idValid bool, v float64, vValid bool) {
		t.Helper()
		if err := tab.AppendRow([]Cell{
			{Str: id, Valid: idValid},
			{Float: v, Valid: vValid},
		}); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name  string
		build func(t *testing.T) *Table
	}{
		{"zero rows with schema", func(t *testing.T) *Table {
			return build(t, nil)
		}},
		{"single row", func(t *testing.T) *Table {
			tab := build(t, nil)
			addRow(t, tab, "a", true, 1.5, true)
			return tab
		}},
		{"all-NULL numeric column", func(t *testing.T) *Table {
			tab := build(t, nil)
			for i := 0; i < 5; i++ {
				addRow(t, tab, "x", true, 0, false)
			}
			return tab
		}},
		{"all-NULL string column", func(t *testing.T) *Table {
			tab := build(t, nil)
			for i := 0; i < 5; i++ {
				addRow(t, tab, "", false, float64(i), true)
			}
			return tab
		}},
		{"every cell NULL", func(t *testing.T) *Table {
			tab := build(t, nil)
			for i := 0; i < 3; i++ {
				addRow(t, tab, "", false, 0, false)
			}
			return tab
		}},
		{"empty-but-valid strings", func(t *testing.T) *Table {
			tab := build(t, nil)
			addRow(t, tab, "", true, 1, true)
			addRow(t, tab, "", false, 2, true)
			addRow(t, tab, "x", true, 3, true)
			return tab
		}},
		{"NaN payload in a valid cell", func(t *testing.T) *Table {
			// AddFloats treats NaN as missing on the typed-append path, but
			// a NULL float cell is stored as NaN internally — the validity
			// mask alone must carry the distinction through the trip.
			tab := build(t, nil)
			addRow(t, tab, "n", true, math.NaN(), false)
			addRow(t, tab, "m", true, 4, true)
			return tab
		}},
		{"negative zero", func(t *testing.T) *Table {
			// -0.0 is integral but cannot be packed (its round trip would
			// give +0.0): the column must stay raw and keep the sign bit.
			tab := build(t, nil)
			addRow(t, tab, "z", true, math.Copysign(0, -1), true)
			addRow(t, tab, "o", true, 1, true)
			return tab
		}},
		{"invalid cells carrying payloads", func(t *testing.T) *Table {
			// What a foreign body may hold under NULL: a string and a
			// float that are not the canonical "" and NaN.
			tab := New()
			if err := tab.AddStringsValid("id", []string{"payload", "x", "y"}, []bool{false, true, true}); err != nil {
				t.Fatal(err)
			}
			if err := tab.AddFloatsValid("v", []float64{7, 2, 3}, []bool{false, true, true}); err != nil {
				t.Fatal(err)
			}
			return tab
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := tc.build(t)
			var buf bytes.Buffer
			if err := Encode(tab).WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			enc, err := ReadEncoded(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			back := enc.Decode()
			assertBitwiseEqual(t, tab, back, tc.name)
			if !back.SchemaMatches(tab.Schema()) {
				t.Fatal("SchemaMatches is false after round trip")
			}
			// A second trip is byte-stable: serialization is canonical.
			var buf2 bytes.Buffer
			if err := Encode(back).WriteBinary(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("serialization is not canonical across a round trip")
			}
		})
	}
}
