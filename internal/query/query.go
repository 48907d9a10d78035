// Package query implements the INDICE querying engine (§2.2.1): a
// predicate DSL for selecting EPC subsets attribute-by-attribute, and the
// stakeholder profiles (citizen, public administration, energy scientist)
// that drive which attributes, granularity and report types the system
// proposes to each end-user.
//
// Predicates form a boolean algebra (And/Or/Not) over two leaf
// comparisons: numeric ranges and categorical membership. Evaluation uses
// Kleene three-valued logic over the table's validity masks: a comparison
// against an invalid (missing/NaN) cell is UNKNOWN, not false, so
// negation never resurrects invalid rows — `not(eph in [a,b])` excludes a
// NaN eph cell exactly like the positive form does. Only rows whose final
// truth value is definitively TRUE are selected.
//
// Predicates round-trip through a compact textual form (Parse/String)
// and a JSON encoding (MarshalPredicate/UnmarshalPredicate) for
// programmatic clients.
package query

import (
	"errors"
	"fmt"
	"strings"

	"indice/internal/epc"
	"indice/internal/table"
)

// Predicate selects rows of a table.
type Predicate interface {
	// Mask returns a keep-mask over the table's rows: true exactly for
	// the rows whose three-valued evaluation is definitively TRUE.
	Mask(t *table.Table) ([]bool, error)
	// String renders the predicate in the textual DSL; the output
	// re-parses (Parse) to an equivalent predicate.
	String() string
	// tri is the three-valued evaluation Mask reports the TRUE half of.
	// Unexported, it closes the interface to NumRange, In, And, Or and
	// Not: the compiled Evaluator knows every predicate there is.
	tri(t *table.Table) (tri, error)
}

// tri is a per-row Kleene truth assignment. T[i] marks rows that are
// definitively true, F[i] rows that are definitively false; a row with
// neither set is UNKNOWN (its cell was invalid).
type tri struct{ T, F []bool }

// NumRange keeps rows whose numeric attribute lies in [Min, Max]
// (inclusive). Invalid cells evaluate UNKNOWN: they never match, under
// negation either.
type NumRange struct {
	Attr     string
	Min, Max float64
}

func (p NumRange) tri(t *table.Table) (tri, error) {
	vals, err := t.Floats(p.Attr)
	if err != nil {
		return tri{}, err
	}
	valid, _ := t.ValidMask(p.Attr)
	tv := tri{T: make([]bool, len(vals)), F: make([]bool, len(vals))}
	for i, v := range vals {
		if !valid[i] {
			continue
		}
		in := v >= p.Min && v <= p.Max
		tv.T[i] = in
		tv.F[i] = !in
	}
	return tv, nil
}

// Mask implements Predicate.
func (p NumRange) Mask(t *table.Table) ([]bool, error) {
	tv, err := p.tri(t)
	return tv.T, err
}

// String implements Predicate.
func (p NumRange) String() string {
	return fmt.Sprintf("%s in [%g, %g]", quoteIdent(p.Attr), p.Min, p.Max)
}

// In keeps rows whose categorical attribute equals one of the values.
// Invalid cells evaluate UNKNOWN: they never match, under negation
// either.
type In struct {
	Attr   string
	Values []string
}

func (p In) tri(t *table.Table) (tri, error) {
	vals, err := t.Strings(p.Attr)
	if err != nil {
		return tri{}, err
	}
	valid, _ := t.ValidMask(p.Attr)
	set := make(map[string]bool, len(p.Values))
	for _, v := range p.Values {
		set[v] = true
	}
	tv := tri{T: make([]bool, len(vals)), F: make([]bool, len(vals))}
	for i, v := range vals {
		if !valid[i] {
			continue
		}
		in := set[v]
		tv.T[i] = in
		tv.F[i] = !in
	}
	return tv, nil
}

// Mask implements Predicate.
func (p In) Mask(t *table.Table) ([]bool, error) {
	tv, err := p.tri(t)
	return tv.T, err
}

// String implements Predicate.
func (p In) String() string {
	parts := make([]string, len(p.Values))
	for i, v := range p.Values {
		parts[i] = quoteValue(v)
	}
	return fmt.Sprintf("%s in {%s}", quoteIdent(p.Attr), strings.Join(parts, ", "))
}

// And keeps rows matching every sub-predicate (Kleene conjunction: FALSE
// if any conjunct is FALSE, TRUE if all are TRUE, otherwise UNKNOWN).
type And []Predicate

func (p And) tri(t *table.Table) (tri, error) {
	if len(p) == 0 {
		return tri{}, errors.New("query: empty conjunction")
	}
	acc, err := p[0].tri(t)
	if err != nil {
		return tri{}, err
	}
	for _, sub := range p[1:] {
		m, err := sub.tri(t)
		if err != nil {
			return tri{}, err
		}
		for i := range acc.T {
			acc.T[i] = acc.T[i] && m.T[i]
			acc.F[i] = acc.F[i] || m.F[i]
		}
	}
	return acc, nil
}

// Mask implements Predicate.
func (p And) Mask(t *table.Table) ([]bool, error) {
	tv, err := p.tri(t)
	return tv.T, err
}

// String implements Predicate.
func (p And) String() string {
	parts := make([]string, len(p))
	for i, sub := range p {
		parts[i] = groupString(sub)
	}
	return strings.Join(parts, " AND ")
}

// Or keeps rows matching any sub-predicate (Kleene disjunction: TRUE if
// any disjunct is TRUE, FALSE if all are FALSE, otherwise UNKNOWN).
type Or []Predicate

func (p Or) tri(t *table.Table) (tri, error) {
	if len(p) == 0 {
		return tri{}, errors.New("query: empty disjunction")
	}
	acc, err := p[0].tri(t)
	if err != nil {
		return tri{}, err
	}
	for _, sub := range p[1:] {
		m, err := sub.tri(t)
		if err != nil {
			return tri{}, err
		}
		for i := range acc.T {
			acc.T[i] = acc.T[i] || m.T[i]
			acc.F[i] = acc.F[i] && m.F[i]
		}
	}
	return acc, nil
}

// Mask implements Predicate.
func (p Or) Mask(t *table.Table) ([]bool, error) {
	tv, err := p.tri(t)
	return tv.T, err
}

// String implements Predicate.
func (p Or) String() string {
	parts := make([]string, len(p))
	for i, sub := range p {
		parts[i] = groupString(sub)
	}
	return strings.Join(parts, " OR ")
}

// groupString renders a sub-predicate of a composite, parenthesizing
// nested composites so the rendering re-parses with the same structure.
func groupString(p Predicate) string {
	switch p.(type) {
	case And, Or:
		return "(" + p.String() + ")"
	}
	return p.String()
}

// Not inverts a predicate. UNKNOWN stays UNKNOWN: rows with invalid
// cells match neither a comparison nor its negation.
type Not struct{ P Predicate }

func (p Not) tri(t *table.Table) (tri, error) {
	m, err := p.P.tri(t)
	if err != nil {
		return tri{}, err
	}
	m.T, m.F = m.F, m.T
	return m, nil
}

// Mask implements Predicate.
func (p Not) Mask(t *table.Table) ([]bool, error) {
	tv, err := p.tri(t)
	return tv.T, err
}

// String implements Predicate.
func (p Not) String() string { return "NOT (" + p.P.String() + ")" }

// Select runs a predicate and materializes the matching subset.
func Select(t *table.Table, p Predicate) (*table.Table, error) {
	mask, err := p.Mask(t)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return t.FilterMask(mask)
}

// Residential is the paper's case-study selection: intended use E.1.1.
func Residential() Predicate {
	return In{Attr: epc.AttrIntendedUse, Values: []string{epc.UseResidential}}
}

// InCity selects certificates of one municipality.
func InCity(city string) Predicate {
	return In{Attr: epc.AttrCity, Values: []string{city}}
}

// InDistrict selects certificates of one district.
func InDistrict(id string) Predicate {
	return In{Attr: epc.AttrDistrict, Values: []string{id}}
}
