// Package bitmap implements roaring-style compressed bitmaps over dense
// row ordinals — the posting-list representation of the store's secondary
// indexes. A bitmap partitions the 32-bit ordinal space into 2^16-wide
// chunks; each chunk is held by a container that is either a sorted
// uint16 array (sparse: at most 4096 entries) or a 1024-word bit field
// (dense), the classic two-level layout of Chambi et al.'s Roaring
// bitmaps. Set algebra on dense chunks runs word-at-a-time — a 64×
// widening of the planner's old element-at-a-time sorted-slice merges.
//
// The store appends row ordinals in strictly ascending order and
// snapshots freeze the postings mid-append, so the builder API is
// deliberately narrow: Add accepts only nondecreasing ordinals, and
// Freeze returns a stable view that shares every full container with the
// builder and privately clones only the one container still being
// appended to. A frozen bitmap never changes, whatever the builder does
// afterwards.
package bitmap

import "math/bits"

const (
	// arrayMaxLen is the sparse/dense crossover: a chunk holding more
	// ordinals than this converts from a sorted uint16 array to a bit
	// field (4096 × 2 bytes = the 8 KiB the bit field costs anyway).
	arrayMaxLen = 4096
	// containerWords is the bit-field size: 2^16 bits.
	containerWords = 1 << 16 / 64
)

// container holds one 2^16-wide chunk. Exactly one of array (sorted,
// ascending) or words is non-nil; n is the chunk cardinality.
type container struct {
	array []uint16
	words []uint64
	n     int
}

func (c *container) clone() *container {
	out := &container{n: c.n}
	if c.words != nil {
		out.words = append([]uint64(nil), c.words...)
	} else {
		out.array = append([]uint16(nil), c.array...)
	}
	return out
}

// toWords converts the container to the dense form in place.
func (c *container) toWords() {
	words := make([]uint64, containerWords)
	for _, v := range c.array {
		words[v>>6] |= 1 << (v & 63)
	}
	c.words = words
	c.array = nil
}

// Bitmap is a set of uint32 ordinals. The zero value is an empty,
// appendable bitmap.
type Bitmap struct {
	keys   []uint32 // chunk keys (ordinal >> 16), ascending
	cs     []*container
	n      int
	last   int64 // largest ordinal added, -1 when empty
	frozen bool
}

// New returns an empty appendable bitmap.
func New() *Bitmap { return &Bitmap{last: -1} }

// Len returns the cardinality.
func (b *Bitmap) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Add appends an ordinal. Ordinals must arrive in nondecreasing order
// (the store's append-only row numbering guarantees this); adding an
// ordinal equal to the last is a no-op, going backwards or adding to a
// frozen bitmap panics. Only the final container is ever mutated, which
// is what makes Freeze cheap and safe.
func (b *Bitmap) Add(x uint32) {
	if b.frozen {
		panic("bitmap: Add on a frozen bitmap")
	}
	if int64(x) <= b.last {
		if int64(x) == b.last {
			return
		}
		panic("bitmap: ordinals must be added in ascending order")
	}
	key := x >> 16
	low := uint16(x)
	var c *container
	if len(b.keys) > 0 && b.keys[len(b.keys)-1] == key {
		c = b.cs[len(b.cs)-1]
	} else {
		c = &container{}
		b.keys = append(b.keys, key)
		b.cs = append(b.cs, c)
	}
	switch {
	case c.words != nil:
		c.words[low>>6] |= 1 << (low & 63)
	case len(c.array) < arrayMaxLen:
		c.array = append(c.array, low)
	default:
		c.toWords()
		c.words[low>>6] |= 1 << (low & 63)
	}
	c.n++
	b.n++
	b.last = int64(x)
}

// Freeze returns an immutable view of the bitmap as of now. Full
// containers are shared (ascending Add never revisits them); the final,
// still-growing container is cloned, so later Adds to the builder are
// invisible to the view. The view's own mutating methods panic.
func (b *Bitmap) Freeze() *Bitmap {
	if b == nil || len(b.cs) == 0 {
		return &Bitmap{last: -1, frozen: true}
	}
	cs := make([]*container, len(b.cs))
	copy(cs, b.cs)
	cs[len(cs)-1] = cs[len(cs)-1].clone()
	return &Bitmap{
		keys:   b.keys[:len(b.keys):len(b.keys)],
		cs:     cs,
		n:      b.n,
		last:   b.last,
		frozen: true,
	}
}

// AppendOrdinals appends the set's ordinals to dst in ascending order
// and returns the extended slice.
func (b *Bitmap) AppendOrdinals(dst []int) []int {
	if b == nil {
		return dst
	}
	if cap(dst)-len(dst) < b.n {
		grown := make([]int, len(dst), len(dst)+b.n)
		copy(grown, dst)
		dst = grown
	}
	for i, c := range b.cs {
		base := int(b.keys[i]) << 16
		if c.words != nil {
			for w, word := range c.words {
				for word != 0 {
					dst = append(dst, base+w<<6+bits.TrailingZeros64(word))
					word &= word - 1
				}
			}
		} else {
			for _, v := range c.array {
				dst = append(dst, base+int(v))
			}
		}
	}
	return dst
}

// Or returns the union of a and b as a frozen bitmap. Either may be nil
// (treated as empty). Dense chunks combine word-at-a-time.
func Or(a, b *Bitmap) *Bitmap {
	if a == nil || a.n == 0 {
		return freezeOrShare(b)
	}
	if b == nil || b.n == 0 {
		return freezeOrShare(a)
	}
	out := &Bitmap{last: -1, frozen: true}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			out.pushChunk(a.keys[i], a.cs[i].clone())
			i++
		case a.keys[i] > b.keys[j]:
			out.pushChunk(b.keys[j], b.cs[j].clone())
			j++
		default:
			out.pushChunk(a.keys[i], orContainers(a.cs[i], b.cs[j]))
			i++
			j++
		}
	}
	for ; i < len(a.keys); i++ {
		out.pushChunk(a.keys[i], a.cs[i].clone())
	}
	for ; j < len(b.keys); j++ {
		out.pushChunk(b.keys[j], b.cs[j].clone())
	}
	return out
}

// And returns the intersection of a and b as a frozen bitmap. Either may
// be nil (treated as empty). Dense chunks combine word-at-a-time.
func And(a, b *Bitmap) *Bitmap {
	out := &Bitmap{last: -1, frozen: true}
	if a == nil || b == nil || a.n == 0 || b.n == 0 {
		return out
	}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			if c := andContainers(a.cs[i], b.cs[j]); c.n > 0 {
				out.pushChunk(a.keys[i], c)
			}
			i++
			j++
		}
	}
	return out
}

// freezeOrShare returns b itself when already frozen (set-algebra results
// chain without copying), a frozen view otherwise.
func freezeOrShare(b *Bitmap) *Bitmap {
	if b == nil {
		return &Bitmap{last: -1, frozen: true}
	}
	if b.frozen {
		return b
	}
	return b.Freeze()
}

func (b *Bitmap) pushChunk(key uint32, c *container) {
	b.keys = append(b.keys, key)
	b.cs = append(b.cs, c)
	b.n += c.n
}

func orContainers(x, y *container) *container {
	if x.words == nil && y.words == nil {
		// Sparse ∪ sparse: linear merge of the sorted arrays.
		merged := make([]uint16, 0, len(x.array)+len(y.array))
		i, j := 0, 0
		for i < len(x.array) && j < len(y.array) {
			switch {
			case x.array[i] < y.array[j]:
				merged = append(merged, x.array[i])
				i++
			case x.array[i] > y.array[j]:
				merged = append(merged, y.array[j])
				j++
			default:
				merged = append(merged, x.array[i])
				i++
				j++
			}
		}
		merged = append(merged, x.array[i:]...)
		merged = append(merged, y.array[j:]...)
		c := &container{array: merged, n: len(merged)}
		if len(merged) > arrayMaxLen {
			c.toWords()
		}
		return c
	}
	// At least one side dense: the result is dense. Start from a dense
	// copy and OR the other side in.
	out := &container{words: make([]uint64, containerWords)}
	seed, other := x, y
	if seed.words == nil {
		seed, other = y, x
	}
	copy(out.words, seed.words)
	if other.words != nil {
		for w := range out.words {
			out.words[w] |= other.words[w]
		}
	} else {
		for _, v := range other.array {
			out.words[v>>6] |= 1 << (v & 63)
		}
	}
	for _, w := range out.words {
		out.n += bits.OnesCount64(w)
	}
	return out
}

func andContainers(x, y *container) *container {
	switch {
	case x.words != nil && y.words != nil:
		out := &container{words: make([]uint64, containerWords)}
		for w := range out.words {
			out.words[w] = x.words[w] & y.words[w]
			out.n += bits.OnesCount64(out.words[w])
		}
		return out
	case x.words == nil && y.words == nil:
		out := &container{}
		i, j := 0, 0
		for i < len(x.array) && j < len(y.array) {
			switch {
			case x.array[i] < y.array[j]:
				i++
			case x.array[i] > y.array[j]:
				j++
			default:
				out.array = append(out.array, x.array[i])
				i++
				j++
			}
		}
		out.n = len(out.array)
		return out
	default:
		// Sparse ∩ dense: probe the bit field per sparse entry.
		arr, dense := x, y
		if arr.words != nil {
			arr, dense = y, x
		}
		out := &container{}
		for _, v := range arr.array {
			if dense.words[v>>6]&(1<<(v&63)) != 0 {
				out.array = append(out.array, v)
			}
		}
		out.n = len(out.array)
		return out
	}
}
