package table

import "slices"

// String columns are dictionary coded: a cell is a uint32 position in the
// column's dictionary of values, kept in first-seen order — 80 kB of codes
// and a dozen strings for 20 000 cells over a dozen levels, not 320 kB of
// string headers the collector has to mark.
//
// A dictionary only ever appends — no entry is rewritten, Reset drops the
// array instead of truncating it — and that is what lets tables share one:
//
//   - a derived column (View, Clone, Take, FilterMask, Select, Partition,
//     Slice) holds the source's dictionary as a prefix pinned to
//     cap == len: O(1), nothing copied or hashed. At most one column can
//     append to an array in place; every sharer's first new value
//     reallocates, the discipline View keeps for cells;
//   - cells crossing between columns (AppendTable, AppendTaken,
//     Encoded.TakeAppend) keep their codes when both dictionaries are
//     prefixes of one array, an empty destination adopts the source's, and
//     otherwise each source entry met is carried over once per call and the
//     codes translated through it (rebase): no string is hashed.
//
// Appending by value (AppendRow, SetString, the readers) never stores a
// value twice, and neither does carrying an entry into a dictionary small
// enough to compare it with (scanDict: the few levels of most attributes
// are held once whatever they arrive from). Entries carried into a larger
// dictionary are not compared with those already there — that would be a
// hash per cell of a column of identifiers — so a street two segments
// share sits in a materialization of both twice. A dictionary may also
// hold values no row uses: other rows of the table it was cut from, cells
// since rewritten. So it is never "the levels" of its column: readers go
// through codes, and Encode emits the distinct values in use.
//
// Looking a value up in a larger dictionary needs the value → code index,
// scratch of whoever appends by value: built on first need, never inherited
// by a derived table, dropped by the readers before they return. While a
// column holds one, cells crossing into it are looked up too.

// sharedDict returns the dictionary as a derived column holds it.
func (c *Column) sharedDict() []string { return c.Dict[:len(c.Dict):len(c.Dict)] }

// lookup returns the value → code index, building it on first need.
func (c *Column) lookup() map[string]uint32 {
	if c.index == nil {
		c.index = make(map[string]uint32, len(c.Dict))
		// Backwards, so that of a value held twice the first code stays.
		for k := len(c.Dict) - 1; k >= 0; k-- {
			c.index[c.Dict[k]] = uint32(k)
		}
	}
	return c.index
}

// scanDict is the dictionary size up to which comparing a value with every
// entry beats hashing it: most categorical attributes have fewer levels,
// and their columns never build an index.
const scanDict = 16

// find returns the code of v if the dictionary holds it.
func (c *Column) find(v string) (uint32, bool) {
	if c.index == nil && len(c.Dict) <= scanDict {
		for k, s := range c.Dict {
			if s == v {
				return uint32(k), true
			}
		}
		return 0, false
	}
	k, ok := c.lookup()[v]
	return k, ok
}

// add appends v, which find did not report, to the dictionary.
func (c *Column) add(v string) uint32 {
	k := uint32(len(c.Dict))
	c.Dict = append(c.Dict, v)
	if c.index != nil {
		c.index[v] = k
	}
	return k
}

// code returns the code of v, appending it on first sight.
func (c *Column) code(v string) uint32 {
	if k, ok := c.find(v); ok {
		return k
	}
	return c.add(v)
}

// carry returns the code of an entry that arrives from another dictionary:
// looked up when the column keeps an index or is small enough to be
// compared with (so that the few levels of most attributes are held once
// whatever they arrive from), appended unseen otherwise.
func (c *Column) carry(v string) uint32 {
	if c.index != nil || len(c.Dict) <= scanDict {
		return c.code(v)
	}
	c.Dict = append(c.Dict, v)
	return uint32(len(c.Dict) - 1)
}

// newStringColumn builds a String column from cell values; valid is kept,
// not copied.
func newStringColumn(name string, vals []string, valid []bool) *Column {
	c := &Column{Name: name, Typ: String, Codes: make([]uint32, len(vals)), Valid: valid}
	for i, v := range vals {
		c.Codes[i] = c.code(v)
	}
	c.index = nil
	return c
}

// DropIndex releases the value → code scratch that appending by value left
// on the table: what a finished table calls before it is kept. The next
// append by value rebuilds what it needs.
func (t *Table) DropIndex() {
	for _, c := range t.cols {
		c.index = nil
	}
}

// smallDict is the dictionary size up to which translating through a dense
// table costs nothing worth avoiding, however few cells cross.
const smallDict = 256

// rebase makes c.Codes[at:] — cells just appended with the codes they had
// in a column whose dictionary is dict — c's own. memo is the destination
// table's translation scratch.
func (c *Column) rebase(at int, dict []string, memo *[]uint32) {
	seg := c.Codes[at:]
	dense := len(dict) <= max(2*len(seg), smallDict)
	switch {
	case len(seg) == 0:
	case len(c.Dict) > 0 && &c.Dict[0] == &dict[0]:
		// Prefixes of one array agree wherever both reach.
		if len(dict) > len(c.Dict) {
			c.setDict(dict)
		}
	case at == 0 && dense:
		// Nothing of c refers to its dictionary yet: take the source's. A
		// few rows out of a large dictionary are translated instead, so a
		// page does not pin — or, at its next append, copy — a corpus.
		c.setDict(dict)
	case dense:
		// One entry per distinct code: m holds translated code + 1.
		if cap(*memo) < len(dict) {
			*memo = make([]uint32, max(len(dict), smallDict))
		}
		m := (*memo)[:len(dict)]
		clear(m)
		for i, k := range seg {
			if m[k] == 0 {
				m[k] = c.carry(dict[k]) + 1
			}
			seg[i] = m[k] - 1
		}
	default:
		c.Dict = slices.Grow(c.Dict, len(seg))
		for i, k := range seg {
			seg[i] = c.carry(dict[k])
		}
	}
}

// setDict replaces the dictionary by one that agrees with it wherever c's
// cells refer to it, pinned; a column that keeps an index keeps one.
func (c *Column) setDict(dict []string) {
	c.Dict = dict[:len(dict):len(dict)]
	if c.index != nil {
		c.index = nil
		c.lookup()
	}
}
