package epc

import (
	"fmt"

	"indice/internal/table"
)

// ClassForEPH maps a normalized primary heating energy demand to the
// energy-class ladder with the simplified threshold scheme used by the
// synthetic generator (real APE classification also weighs the reference
// building; the monotone mapping is what the dashboards rely on).
func ClassForEPH(eph float64) string {
	switch {
	case eph < 15:
		return "A4"
	case eph < 25:
		return "A3"
	case eph < 35:
		return "A2"
	case eph < 45:
		return "A1"
	case eph < 60:
		return "B"
	case eph < 90:
		return "C"
	case eph < 130:
		return "D"
	case eph < 180:
		return "E"
	case eph < 250:
		return "F"
	default:
		return "G"
	}
}

// ValidationIssue reports one schema-conformance problem of a table.
type ValidationIssue struct {
	Attr string
	Msg  string
}

// String implements fmt.Stringer.
func (v ValidationIssue) String() string {
	return fmt.Sprintf("%s: %s", v.Attr, v.Msg)
}

// ValidateTable checks that t conforms to the canonical EPC schema:
// every attribute present with the right type, numeric values within the
// spec's plausible range (invalid cells are exempt), categorical values
// drawn from the spec's levels when the spec enumerates them. It returns
// the (possibly empty) list of issues found; hard errors (missing columns)
// also surface as issues rather than aborting, so callers get a complete
// report in one pass.
func ValidateTable(t *table.Table) []ValidationIssue {
	var issues []ValidationIssue
	for _, spec := range Schema() {
		if !t.HasColumn(spec.Name) {
			issues = append(issues, ValidationIssue{spec.Name, "missing column"})
			continue
		}
		typ, _ := t.TypeOf(spec.Name)
		if spec.Kind == Numeric {
			if typ != table.Float64 {
				issues = append(issues, ValidationIssue{spec.Name, "expected numeric column"})
				continue
			}
			vals, _ := t.Floats(spec.Name)
			mask, _ := t.ValidMask(spec.Name)
			bad := 0
			for i, v := range vals {
				if !mask[i] {
					continue
				}
				if v < spec.Min || v > spec.Max {
					bad++
				}
			}
			if bad > 0 {
				issues = append(issues, ValidationIssue{
					spec.Name,
					fmt.Sprintf("%d values outside plausible range [%g, %g]", bad, spec.Min, spec.Max),
				})
			}
			continue
		}
		if typ != table.String {
			issues = append(issues, ValidationIssue{spec.Name, "expected categorical column"})
			continue
		}
		if len(spec.Levels) == 0 {
			continue
		}
		allowed := make(map[string]bool, len(spec.Levels))
		for _, l := range spec.Levels {
			allowed[l] = true
		}
		vals, _ := t.Strings(spec.Name)
		mask, _ := t.ValidMask(spec.Name)
		bad := 0
		for i, v := range vals {
			if mask[i] && !allowed[v] {
				bad++
			}
		}
		if bad > 0 {
			issues = append(issues, ValidationIssue{
				spec.Name,
				fmt.Sprintf("%d values outside the admissible levels", bad),
			})
		}
	}
	return issues
}
