package bitmap

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// unionSortedRef and intersectSortedRef are the sorted-slice set algebra
// the planner used before bitmaps; they stay here as the oracle the
// bitmap operations are pinned against.
func unionSortedRef(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func intersectSortedRef(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func fromSorted(xs []int) *Bitmap {
	b := New()
	for _, x := range xs {
		b.Add(uint32(x))
	}
	return b
}

func ords(b *Bitmap) []int {
	out := b.AppendOrdinals(nil)
	if out == nil {
		out = []int{}
	}
	return out
}

// randomSet draws n distinct ordinals. Dense mode packs them into a
// narrow range so containers cross the 4096 array→words threshold;
// sparse mode scatters them across several chunk keys.
func randomSet(rng *rand.Rand, n int, dense bool) []int {
	span := 1 << 22
	if dense {
		span = n + n/4 + 1
	}
	seen := make(map[int]struct{}, n)
	for len(seen) < n {
		seen[rng.Intn(span)] = struct{}{}
	}
	out := make([]int, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func TestBitmapMatchesSortedSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		dense := trial%2 == 0
		a := randomSet(rng, rng.Intn(9000), dense)
		b := randomSet(rng, rng.Intn(9000), !dense || trial%3 == 0)
		ba, bb := fromSorted(a), fromSorted(b)
		if got := ords(ba); !reflect.DeepEqual(got, append([]int{}, a...)) {
			t.Fatalf("trial %d: roundtrip mismatch: got %d ordinals, want %d", trial, len(got), len(a))
		}
		wantOr := unionSortedRef(a, b)
		if got := ords(Or(ba, bb)); !reflect.DeepEqual(got, wantOr) {
			t.Fatalf("trial %d: Or mismatch: got %d ordinals, want %d", trial, len(got), len(wantOr))
		}
		wantAnd := intersectSortedRef(a, b)
		gotAnd := ords(And(ba, bb))
		if len(wantAnd) == 0 {
			wantAnd = []int{}
		}
		if !reflect.DeepEqual(gotAnd, wantAnd) {
			t.Fatalf("trial %d: And mismatch: got %d ordinals, want %d", trial, len(gotAnd), len(wantAnd))
		}
		if got, want := Or(ba, bb).Len(), len(wantOr); got != want {
			t.Fatalf("trial %d: Or Len = %d, want %d", trial, got, want)
		}
		for _, probe := range []int{0, 1, 4095, 4096, 65535, 65536, 1 << 21} {
			want := sort.SearchInts(a, probe) < len(a) && a[sort.SearchInts(a, probe)] == probe
			if got := ba.Contains(uint32(probe)); got != want {
				t.Fatalf("trial %d: Contains(%d) = %v, want %v", trial, probe, got, want)
			}
		}
	}
}

func TestFreezeIsStableUnderLaterAdds(t *testing.T) {
	b := New()
	// Fill past the array→words conversion threshold and across a chunk
	// boundary so both container kinds are in play.
	for i := 0; i < 70000; i += 3 {
		b.Add(uint32(i))
	}
	frozen := b.Freeze()
	before := ords(frozen)
	wantLen := frozen.Len()

	// Keep appending: same chunk first (mutates the builder's last
	// container in place), then enough to convert it and spill into a
	// fresh chunk.
	for i := 70001; i < 140000; i++ {
		b.Add(uint32(i))
	}
	if got := ords(frozen); !reflect.DeepEqual(got, before) {
		t.Fatalf("frozen view changed after later Adds")
	}
	if frozen.Len() != wantLen {
		t.Fatalf("frozen Len changed: %d != %d", frozen.Len(), wantLen)
	}
	if frozen.Contains(70001) {
		t.Fatalf("frozen view sees an ordinal added after Freeze")
	}
	if !b.Contains(70001) {
		t.Fatalf("builder lost an ordinal")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Add on a frozen bitmap did not panic")
		}
	}()
	frozen.Add(1 << 30)
}

func TestAddRejectsDescendingOrdinals(t *testing.T) {
	b := New()
	b.Add(10)
	b.Add(10) // duplicate is a no-op
	if b.Len() != 1 {
		t.Fatalf("duplicate Add changed cardinality: %d", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("descending Add did not panic")
		}
	}()
	b.Add(9)
}

func TestNilAndEmptyOperands(t *testing.T) {
	var nilB *Bitmap
	if nilB.Len() != 0 || nilB.Contains(3) || nilB.AppendOrdinals(nil) != nil {
		t.Fatalf("nil bitmap is not empty")
	}
	one := fromSorted([]int{5, 70000})
	if got := ords(Or(nilB, one)); !reflect.DeepEqual(got, []int{5, 70000}) {
		t.Fatalf("Or with nil lost ordinals: %v", got)
	}
	if And(one, nilB).Len() != 0 || And(New(), one).Len() != 0 {
		t.Fatalf("And with empty operand is not empty")
	}
	// Or with an empty side returns a frozen view of the other — it must
	// not alias the still-mutable builder.
	view := Or(one, nilB)
	one.Add(80000)
	if view.Contains(80000) {
		t.Fatalf("Or result aliases the mutable operand")
	}
}

func FuzzBitmapSetAlgebra(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 3})
	f.Add([]byte{0xff, 0xff, 0, 1}, []byte{})
	f.Fuzz(func(t *testing.T, raw1, raw2 []byte) {
		decode := func(raw []byte) []int {
			// Successive byte pairs are deltas, so sets stay sorted,
			// distinct, and occasionally hop chunk boundaries.
			var xs []int
			cur := -1
			for i := 0; i+1 < len(raw) && len(xs) < 1<<14; i += 2 {
				cur += 1 + int(raw[i])<<8 + int(raw[i+1])
				xs = append(xs, cur)
			}
			return xs
		}
		a, b := decode(raw1), decode(raw2)
		ba, bb := fromSorted(a), fromSorted(b)
		if got := ords(ba); !reflect.DeepEqual(got, append([]int{}, a...)) {
			t.Fatalf("roundtrip mismatch: %v vs %v", got, a)
		}
		if got, want := ords(Or(ba, bb)), unionSortedRef(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("Or mismatch: %v vs %v", got, want)
		}
		got, want := ords(And(ba, bb)), intersectSortedRef(a, b)
		if len(want) == 0 {
			want = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("And mismatch: %v vs %v", got, want)
		}
	})
}

func (c *container) contains(low uint16) bool {
	if c.words != nil {
		return c.words[low>>6]&(1<<(low&63)) != 0
	}
	// Binary search the sorted array.
	lo, hi := 0, len(c.array)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.array[mid] < low {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c.array) && c.array[lo] == low
}

// Contains reports membership.
func (b *Bitmap) Contains(x uint32) bool {
	if b == nil {
		return false
	}
	key := x >> 16
	for i, k := range b.keys {
		if k == key {
			return b.cs[i].contains(uint16(x))
		}
		if k > key {
			return false
		}
	}
	return false
}
