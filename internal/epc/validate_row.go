package epc

import (
	"fmt"

	"indice/internal/table"
)

// TableSchema returns the canonical 132-attribute schema as table fields,
// numeric attributes first — the column layout the live store uses for its
// shards and the ingestion endpoints expect of incoming batches.
func TableSchema() []table.Field {
	specs := Schema()
	out := make([]table.Field, len(specs))
	for i, s := range specs {
		typ := table.String
		if s.Kind == Numeric {
			typ = table.Float64
		}
		out[i] = table.Field{Name: s.Name, Type: typ}
	}
	return out
}

// RowValidator checks individual rows of a table against the EPC schema —
// the per-record counterpart of ValidateTable, built for streaming
// ingestion where each appended certificate is screened before it enters
// the store. Construction resolves and caches the column views once, so
// Validate is O(schema attributes) per row with no map lookups.
type RowValidator struct {
	cols []rvCol
}

type rvCol struct {
	spec   AttrSpec
	floats []float64
	codes  []uint32 // categorical cells: dict[codes[row]]
	dict   []string
	valid  []bool
	// outside[k] marks dictionary entry k as outside the admissible levels;
	// nil when the attribute admits any value.
	outside []bool
}

// NewRowValidator prepares a validator over t. Schema attributes missing
// from the table are skipped (ValidateTable reports those once per table);
// attributes present with the wrong type are also skipped here for the
// same reason. The validator reads t's backing slices, so t must not
// change shape while the validator is in use.
func NewRowValidator(t *table.Table) *RowValidator {
	v := &RowValidator{}
	for _, spec := range Schema() {
		if !t.HasColumn(spec.Name) {
			continue
		}
		typ, _ := t.TypeOf(spec.Name)
		c := rvCol{spec: spec}
		if spec.Kind == Numeric {
			if typ != table.Float64 {
				continue
			}
			c.floats, _ = t.Floats(spec.Name)
		} else {
			if typ != table.String {
				continue
			}
			c.codes, c.dict, _ = t.StringCodes(spec.Name)
			if len(spec.Levels) > 0 {
				// Levels are checked once per distinct value, not per row.
				allowed := make(map[string]bool, len(spec.Levels))
				for _, l := range spec.Levels {
					allowed[l] = true
				}
				c.outside = make([]bool, len(c.dict))
				for k, v := range c.dict {
					c.outside[k] = !allowed[v]
				}
			}
		}
		c.valid, _ = t.ValidMask(spec.Name)
		v.cols = append(v.cols, c)
	}
	return v
}

// Validate reports the schema violations of one row. Invalid (missing)
// cells are exempt, matching ValidateTable; a nil return means the row is
// admissible.
func (v *RowValidator) Validate(row int) []ValidationIssue {
	var issues []ValidationIssue
	for _, c := range v.cols {
		if row < 0 || row >= len(c.valid) || !c.valid[row] {
			continue
		}
		if c.spec.Kind == Numeric {
			x := c.floats[row]
			if x < c.spec.Min || x > c.spec.Max {
				issues = append(issues, ValidationIssue{
					c.spec.Name,
					fmt.Sprintf("value %g outside plausible range [%g, %g]", x, c.spec.Min, c.spec.Max),
				})
			}
			continue
		}
		if k := c.codes[row]; c.outside != nil && c.outside[k] {
			issues = append(issues, ValidationIssue{
				c.spec.Name,
				fmt.Sprintf("value %q outside the admissible levels", c.dict[k]),
			})
		}
	}
	return issues
}
