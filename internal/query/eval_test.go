package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indice/internal/table"
)

// evalTestTable builds a table with numeric and categorical columns,
// including invalid cells, so UNKNOWN rows exercise the Kleene paths.
func evalTestTable(rng *rand.Rand, rows int) *table.Table {
	t := table.New()
	eph := make([]float64, rows)
	for i := range eph {
		if rng.Intn(6) == 0 {
			eph[i] = math.NaN() // invalid
		} else {
			eph[i] = rng.Float64() * 300
		}
	}
	cls := make([]string, rows)
	clsValid := make([]bool, rows)
	for i := range cls {
		cls[i] = fmt.Sprintf("C%d", rng.Intn(4))
		clsValid[i] = rng.Intn(8) != 0
	}
	if err := t.AddFloats("eph", eph); err != nil {
		panic(err)
	}
	if err := t.AddStringsValid("class", cls, clsValid); err != nil {
		panic(err)
	}
	return t
}

// randEvalPredicate draws a random predicate tree over the test schema.
func randEvalPredicate(rng *rand.Rand, depth int) Predicate {
	if depth > 0 {
		switch rng.Intn(4) {
		case 0:
			return Not{P: randEvalPredicate(rng, depth-1)}
		case 1:
			and := make(And, 1+rng.Intn(3))
			for i := range and {
				and[i] = randEvalPredicate(rng, depth-1)
			}
			return and
		case 2:
			or := make(Or, 1+rng.Intn(3))
			for i := range or {
				or[i] = randEvalPredicate(rng, depth-1)
			}
			return or
		}
	}
	if rng.Intn(2) == 0 {
		lo := rng.Float64() * 300
		return NumRange{Attr: "eph", Min: lo, Max: lo + rng.Float64()*150}
	}
	vals := make([]string, 1+rng.Intn(3))
	for i := range vals {
		vals[i] = fmt.Sprintf("C%d", rng.Intn(5))
	}
	return In{Attr: "class", Values: vals}
}

// TestEvaluatorMatchesPredicateMask pins the compiled evaluator bitwise
// against the naive Predicate.Mask over random trees and tables, reusing
// one evaluator across segments of different sizes (the segment-scan
// pattern the store planner runs): the whole-segment bits and, at a
// random ordinal subset, the sparse re-check.
func TestEvaluatorMatchesPredicateMask(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 80; trial++ {
		p := randEvalPredicate(rng, 3)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		for seg := 0; seg < 4; seg++ {
			tab := evalTestTable(rng, 1+rng.Intn(200))
			enc := table.Encode(tab)
			want, err := p.Mask(tab)
			if err != nil {
				t.Fatal(err)
			}
			words, err := ev.MaskEncodedBits(enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(words) != (len(want)+63)/64 {
				t.Fatalf("trial %d seg %d: %d mask words for %d rows", trial, seg, len(words), len(want))
			}
			for i := range want {
				if got := bitAt(words, i); got != want[i] {
					t.Fatalf("trial %d seg %d (%s): row %d = %v, want %v",
						trial, seg, p.String(), i, got, want[i])
				}
			}
			cand := randCand(rng, len(want))
			sparse, err := ev.MaskEncodedBits(enc, cand)
			if err != nil {
				t.Fatal(err)
			}
			for r := range want {
				if got := bitAt(sparse, r); got != (want[r] && bitAt(cand, r)) {
					t.Fatalf("trial %d seg %d (%s): row %d (candidate %v) = %v, want %v",
						trial, seg, p.String(), r, bitAt(cand, r), got, want[r])
				}
			}
		}
	}
}

// randCand draws candidate words over n rows: every row, none, or each
// with a random density; no bit past n.
func randCand(rng *rand.Rand, n int) []uint64 {
	cand := make([]uint64, (n+63)/64)
	density := rng.Intn(4)
	for r := 0; r < n; r++ {
		if density == 3 || density > 0 && rng.Intn(3*density) == 0 {
			cand[r>>6] |= 1 << (r & 63)
		}
	}
	return cand
}

// bitAt reads bit i of a packed mask.
func bitAt(words []uint64, i int) bool { return words[i>>6]&(1<<(uint(i)&63)) != 0 }

func TestEvaluatorErrors(t *testing.T) {
	if _, err := NewEvaluator(nil); err == nil {
		t.Fatal("want error for nil predicate")
	}
	enc := table.Encode(evalTestTable(rand.New(rand.NewSource(1)), 10))
	for _, p := range []Predicate{
		NumRange{Attr: "missing", Min: 0, Max: 1},
		In{Attr: "missing", Values: []string{"x"}},
		And{},
		Or{},
		Not{P: And{}},
	} {
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.MaskEncodedBits(enc, nil); err == nil {
			t.Fatalf("want error for %T", p)
		}
		if _, err := ev.MaskEncodedBits(enc, []uint64{1<<9 | 1}); err == nil {
			t.Fatalf("sparse: want error for %T", p)
		}
	}
	// A pointer is not one of the five predicate types the evaluator
	// compiles, though its method set satisfies Predicate.
	if _, err := NewEvaluator(And{&NumRange{Attr: "eph"}}); err == nil {
		t.Fatal("want error for *NumRange")
	}
}

// BenchmarkEvaluatorSegments measures the compiled evaluator over
// encoded segments against the naive per-segment Mask over the same
// rows on the planner's fallback-scan access pattern: one predicate,
// many segments.
func BenchmarkEvaluatorSegments(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	segs := make([]*table.Table, 16)
	encs := make([]*table.Encoded, len(segs))
	for i := range segs {
		segs[i] = evalTestTable(rng, 4096)
		encs[i] = table.Encode(segs[i])
	}
	p := And{
		In{Attr: "class", Values: []string{"C1", "C2"}},
		NumRange{Attr: "eph", Min: 40, Max: 220},
		Not{P: NumRange{Attr: "eph", Min: 100, Max: 120}},
	}
	b.Run("compiled", func(b *testing.B) {
		ev, err := NewEvaluator(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.MaskEncodedBits(encs[i%len(encs)], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Mask(segs[i%len(segs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
