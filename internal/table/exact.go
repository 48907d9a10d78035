package table

import (
	"math"
	"math/big"
	"math/bits"
)

// Exact sums: an aggregate holds Σv and Σv² exactly, so partials merge in
// any order and a mean or variance rounds once, when rendered. A value
// counts as the decimal a certificate wrote — strconv's shortest form of
// its float64 — when that has at most 15 significant digits, 15 of them
// fractional, below 10^15: every value a packed column holds, and the same
// values held raw. It adds its integer n = base+code and n², per scale.
// Any other value counts as its binary double and adds into a fixed-point
// integer spanning every double and square: Neal's superaccumulator
// (arXiv:1505.05571), a big.Int because only such values reach it.

// DecSum is the exact sum of one scale's decimal integers and of their
// squares. The words are high first.
type DecSum struct {
	Scale uint8     `json:"scale"`
	Sum   [2]uint64 `json:"sum"` // Σn, two's complement
	Sq    [3]uint64 `json:"sq"`  // Σn²
}

func (d *DecSum) add(n int64) {
	var c uint64
	d.Sum[1], c = bits.Add64(d.Sum[1], uint64(n), 0)
	d.Sum[0] += uint64(n>>63) + c
	m := uint64(n)
	if n < 0 {
		m = -m
	}
	hi, lo := bits.Mul64(m, m)
	d.Sq[2], c = bits.Add64(d.Sq[2], lo, 0)
	d.Sq[1], c = bits.Add64(d.Sq[1], hi, c)
	d.Sq[0] += c
}

func (d *DecSum) merge(o *DecSum) {
	var c uint64
	d.Sum[1], c = bits.Add64(d.Sum[1], o.Sum[1], 0)
	d.Sum[0] += o.Sum[0] + c
	d.Sq[2], c = bits.Add64(d.Sq[2], o.Sq[2], 0)
	d.Sq[1], c = bits.Add64(d.Sq[1], o.Sq[1], c)
	d.Sq[0] += o.Sq[0] + c
}

// canonical returns the decimal n / 10^scale a finite v counts as, if any.
func canonical(v float64) (n int64, scale int, ok bool) {
	if scale = scaleFor(v, 0); scale > maxScale {
		return 0, 0, false
	}
	n = int64(math.RoundToEven(v * pow10[scale]))
	return n, scale, n < 1e15 && n > -1e15
}

// RawSums is the exact sum of the values that count as binary doubles,
// in units of 2^-1074, and of their squares, in units of 2^-2148.
type RawSums struct {
	Sum *big.Int `json:"sum"`
	Sq  *big.Int `json:"sq"`
}

// add adds a finite v and its square.
func (r *RawSums) add(v float64) {
	m, e := math.Frexp(math.Abs(v))
	x := new(big.Int).SetUint64(uint64(math.Ldexp(m, 53)))
	if e -= 53; e < -1074 {
		x.Rsh(x, uint(-1074-e)) // subnormal: the bits shifted out are zeros
		e = -1074
	}
	sq := new(big.Int).Mul(x, x)
	r.Sq.Add(r.Sq, sq.Lsh(sq, uint(2*e+2148)))
	if x.Lsh(x, uint(e+1074)); v < 0 {
		x.Neg(x)
	}
	r.Sum.Add(r.Sum, x)
}

// Count returns the number of values observed.
func (a *AggAccum) Count() int { return a.S.Count() }

// Sum returns the sum of the observed values, correctly rounded.
func (a *AggAccum) Sum() float64 { return a.quo(1) }

// Mean returns the mean of the observed values, correctly rounded, and 0
// when there are none.
func (a *AggAccum) Mean() float64 {
	if n := a.Count(); n > 0 {
		return a.quo(int64(n))
	}
	return 0
}

// quo returns the sum over c, correctly rounded; one division will do when
// one scale's sum and c·10^scale are exact doubles.
func (a *AggAccum) quo(c int64) float64 {
	if a.Raw == nil && len(a.Dec) == 1 && a.Dec[0].Scale <= maxScale {
		d := &a.Dec[0]
		n, p := int64(d.Sum[1]), int64(pow10[d.Scale])
		if d.Sum[0] == uint64(n>>63) && n <= 1<<53 && n >= -1<<53 && c <= 1<<53/p {
			return float64(n) / float64(c*p)
		}
	}
	sum, _ := a.exact()
	f, _ := sum.Quo(sum, new(big.Rat).SetInt64(c)).Float64()
	return f
}

// exact returns the sum of the values and of their squares.
func (a *AggAccum) exact() (sum, sq *big.Rat) {
	sum, sq = new(big.Rat), new(big.Rat)
	for i := range a.Dec {
		d := &a.Dec[i]
		s := wordsInt(d.Sum[:])
		if d.Sum[0]>>63 != 0 {
			s.Sub(s, new(big.Int).Lsh(big.NewInt(1), 128))
		}
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(d.Scale)), nil)
		sum.Add(sum, new(big.Rat).SetFrac(s, p))
		sq.Add(sq, new(big.Rat).SetFrac(wordsInt(d.Sq[:]), p.Mul(p, p)))
	}
	if a.Raw != nil {
		one := new(big.Int).Lsh(big.NewInt(1), 1074)
		sum.Add(sum, new(big.Rat).SetFrac(a.Raw.Sum, one))
		sq.Add(sq, new(big.Rat).SetFrac(a.Raw.Sq, one.Mul(one, one)))
	}
	return sum, sq
}

// wordsInt reads unsigned words, high first.
func wordsInt(w []uint64) *big.Int {
	x := new(big.Int)
	for _, v := range w {
		x.Lsh(x, 64).Or(x, new(big.Int).SetUint64(v))
	}
	return x
}

// Variance returns the sample variance (n−1 denominator) of the observed
// values, correctly rounded, and 0 for fewer than two.
func (a *AggAccum) Variance() float64 {
	n := a.Count()
	if n < 2 {
		return 0
	}
	sum, sq := a.exact()
	c := new(big.Rat).SetInt64(int64(n))
	sq.Mul(sq, c).Sub(sq, sum.Mul(sum, sum))
	f, _ := sq.Quo(sq, c.Mul(c, new(big.Rat).SetInt64(int64(n-1)))).Float64()
	return f
}

// StdDev returns the square root of Variance.
func (a *AggAccum) StdDev() float64 { return math.Sqrt(a.Variance()) }
