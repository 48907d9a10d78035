package epc

import (
	"slices"
	"testing"

	"indice/internal/table"
)

func TestSchemaCardinalities(t *testing.T) {
	// The paper's dataset has 132 attributes: 89 categorical, 43 numeric.
	if got := len(Schema()); got != 132 {
		t.Fatalf("schema has %d attributes, want 132", got)
	}
	if got := len(NumericNames()); got != 43 {
		t.Fatalf("numeric attributes = %d, want 43", got)
	}
	if got := len(CategoricalNames()); got != 89 {
		t.Fatalf("categorical attributes = %d, want 89", got)
	}
}

func TestSchemaUniqueNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range Schema() {
		if s.Name == "" {
			t.Fatal("empty attribute name")
		}
		if seen[s.Name] {
			t.Fatalf("duplicate attribute %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestSchemaNumericRanges(t *testing.T) {
	for _, s := range Schema() {
		if s.Kind != Numeric {
			continue
		}
		if s.Min >= s.Max {
			t.Errorf("%s: Min %v >= Max %v", s.Name, s.Min, s.Max)
		}
	}
}

func TestSchemaCategoricalLevels(t *testing.T) {
	for _, s := range Schema() {
		if s.Kind != Categorical {
			continue
		}
		seen := map[string]bool{}
		for _, l := range s.Levels {
			if l == "" {
				t.Errorf("%s: empty level", s.Name)
			}
			if seen[l] {
				t.Errorf("%s: duplicate level %q", s.Name, l)
			}
			seen[l] = true
		}
	}
}

func TestSpecLookup(t *testing.T) {
	s, ok := Spec(AttrEPH)
	if !ok || s.Name != AttrEPH || s.Kind != Numeric {
		t.Fatalf("Spec(eph) = %+v, %v", s, ok)
	}
	s, ok = Spec(AttrEnergyClass)
	if !ok || s.Kind != Categorical || len(s.Levels) != len(EnergyClasses) {
		t.Fatalf("Spec(energy_class) = %+v", s)
	}
	if _, ok := Spec("made_up"); ok {
		t.Fatal("Spec found a non-existent attribute")
	}
}

func TestCaseStudyAttributesExist(t *testing.T) {
	for _, name := range CaseStudyAttributes {
		s, ok := Spec(name)
		if !ok || s.Kind != Numeric {
			t.Fatalf("case study attribute %q missing or non-numeric", name)
		}
	}
	if len(CaseStudyAttributes) != 5 {
		t.Fatalf("case study uses %d attributes, want 5 (S/V, Uo, Uw, Sr, ETAH)", len(CaseStudyAttributes))
	}
}

func TestClassForEPHMonotone(t *testing.T) {
	prevRank := -1
	for eph := 5.0; eph < 400; eph += 5 {
		rank := slices.Index(EnergyClasses, ClassForEPH(eph))
		if rank < 0 {
			t.Fatalf("unknown class for eph=%v", eph)
		}
		if rank < prevRank {
			t.Fatalf("class rank decreased at eph=%v", eph)
		}
		prevRank = rank
	}
	if ClassForEPH(10) != "A4" || ClassForEPH(500) != "G" {
		t.Fatal("extreme classes wrong")
	}
}

func TestValidateTableMissingColumns(t *testing.T) {
	issues := ValidateTable(table.New())
	if len(issues) != 132 {
		t.Fatalf("issues = %d, want one per missing attribute", len(issues))
	}
	if issues[0].String() == "" {
		t.Fatal("issue stringer empty")
	}
}

func TestValidateTableDetectsProblems(t *testing.T) {
	tab := table.New()
	n := 3
	for _, spec := range Schema() {
		if spec.Kind == Numeric {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = (spec.Min + spec.Max) / 2
			}
			if err := tab.AddFloats(spec.Name, vals); err != nil {
				t.Fatal(err)
			}
		} else {
			vals := make([]string, n)
			lvl := "free-text"
			if len(spec.Levels) > 0 {
				lvl = spec.Levels[0]
			}
			for i := range vals {
				vals[i] = lvl
			}
			if err := tab.AddStrings(spec.Name, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	if issues := ValidateTable(tab); len(issues) != 0 {
		t.Fatalf("valid table reported issues: %v", issues)
	}

	// Out-of-range numeric value.
	if err := tab.SetFloat(AttrEPH, 0, 99999); err != nil {
		t.Fatal(err)
	}
	// Unknown categorical level.
	if err := tab.SetString(AttrEnergyClass, 1, "H"); err != nil {
		t.Fatal(err)
	}
	issues := ValidateTable(tab)
	if len(issues) != 2 {
		t.Fatalf("issues = %v, want 2", issues)
	}

	// Invalid cells are exempt from range checks.
	if err := tab.SetInvalid(AttrEPH, 0); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetInvalid(AttrEnergyClass, 1); err != nil {
		t.Fatal(err)
	}
	if issues := ValidateTable(tab); len(issues) != 0 {
		t.Fatalf("invalid cells still flagged: %v", issues)
	}
}

func TestValidateTableTypeMismatch(t *testing.T) {
	tab := table.New()
	if err := tab.AddStrings(AttrEPH, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	issues := ValidateTable(tab)
	found := false
	for _, is := range issues {
		if is.Attr == AttrEPH && is.Msg == "expected numeric column" {
			found = true
		}
	}
	if !found {
		t.Fatalf("type mismatch not reported: %v", issues)
	}
}
