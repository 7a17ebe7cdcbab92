package workload

import (
	"math"
	"math/rand"
)

// zipf draws rand.NewZipf(r, s, 1, imax)'s variates bit for bit, from the
// same r: the same rejection-inversion, parameters and expressions (copied
// from math/rand/zipf.go), one Float64 per try. Where math/rand pays an Exp
// and a Log per try to invert ur, h's monotonicity turns each of its
// questions into a comparison of ur with a value tabled per key. Within a
// relative zipfGuard of a tabled cut, where rounding could split the two, a
// try takes math/rand's own path. DESIGN.md §5, "Key draws", has the bounds.
type zipf struct {
	r *rand.Rand

	v, q, s                 float64
	oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm        float64

	// rows[k] for k in [0, imax+1] (a try at r = 0 lands on imax+1's cut),
	// then a row whose cut is +Inf, so the scan for the key always stops.
	rows []zipfRow
	// guide[c] is the last key whose cut falls in a cell below c (0 if
	// none), so its cut lies below every ur in cell c.
	guide       []int32
	base, scale float64
}

// zipfRow holds one key's values. In exact arithmetic, hinv(ur) ≥ k−0.5
// when ur ≥ cut, and k−hinv(ur) ≤ s when ur ≥ first.
type zipfRow struct{ cut, first, bound float64 }

// zipfGuard is the relative width of the band around a cut inside which the
// tables do not answer.
const zipfGuard = 1e-9

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// bound is math/rand's second test for key k: it accepts when ur ≥ bound.
func (z *zipf) bound(k float64) float64 {
	return z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q)
}

// newZipf returns a sampler of keys in [0, imax] with P(k) ∝ (1+k)^−s, the
// variates of rand.NewZipf(r, s, 1, imax). s must be above 1.
func newZipf(r *rand.Rand, s float64, imax uint64) *zipf {
	z := &zipf{r: r, v: 1, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	n := int(imax) + 2
	z.rows = make([]zipfRow, n+1)
	for i := range z.rows[:n] {
		k := float64(i)
		z.rows[i] = zipfRow{cut: z.h(k - 0.5), first: z.h(k - z.s), bound: z.bound(k)}
	}
	z.rows[n].cut = math.Inf(1)

	z.guide = make([]int32, 4*n)
	z.base = z.rows[0].cut
	z.scale = float64(len(z.guide)) / (z.rows[n-1].cut - z.base)
	k := 0
	for c := range z.guide {
		for k+1 < n && z.cell(z.rows[k+1].cut) < c {
			k++
		}
		z.guide[c] = int32(k)
	}
	return z
}

// cell is ur's guide cell, clamped to the table. It is monotone in ur, so a
// key whose cut has a lower cell than ur's has a cut below ur.
func (z *zipf) cell(ur float64) int {
	return min(max(int((ur-z.base)*z.scale), 0), len(z.guide)-1)
}

// Uint64 returns the next variate.
func (z *zipf) Uint64() uint64 {
	for {
		r := z.r.Float64() // r on [0,1]
		if k, ok := z.decide(z.hxm + r*z.hx0minusHxm); ok {
			return k
		}
	}
}

// decide answers one try: the key ur rounds to and whether math/rand accepts
// it. A rejected try draws again.
func (z *zipf) decide(ur float64) (uint64, bool) {
	k := int(z.guide[z.cell(ur)])
	for ur >= z.rows[k+1].cut {
		k++
	}
	// h < 0, so c*(1-g) lies above a cut c and c*(1+g) below it.
	row, next := &z.rows[k], z.rows[k+1].cut
	if ur < row.cut*(1-zipfGuard) || ur >= next*(1+zipfGuard) ||
		ur < row.first*(1-zipfGuard) && ur >= row.first*(1+zipfGuard) {
		return z.exact(ur)
	}
	return uint64(k), ur >= row.first || ur >= row.bound
}

// exact is math/rand's step for one ur, expression for expression.
func (z *zipf) exact(ur float64) (uint64, bool) {
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	return uint64(k), k-x <= z.s || ur >= z.bound(k)
}
