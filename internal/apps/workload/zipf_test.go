package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"plasma/internal/sim"
)

// zipfConfigs are the (s, imax) pairs the sampler is held to: the stream
// experiments' and the repository benchmark's key spaces, then exponents
// near and far from 1 and key spaces from 11 to 262,144 keys.
var zipfConfigs = []struct {
	s    float64
	imax uint64
}{
	{1.05, 2047}, {1.05, 4095},
	{1.05, 1023}, {1.2, 65535}, {1.01, 100}, {2, 10}, {1.05, 262143},
}

// sameAsMathRand draws n variates from the sampler and from rand.Zipf, each
// on its own stream of one seed, and fails at the first difference. The
// streams must also end in the same place: both consumed the same Float64s.
func sameAsMathRand(t *testing.T, s float64, imax uint64, seed int64, n int) {
	t.Helper()
	theirs, mine := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	ref, z := rand.NewZipf(theirs, s, 1, imax), newZipf(mine, s, imax)
	for i := 0; i < n; i++ {
		if got, want := z.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("s=%v imax=%d seed=%d: draw %d is %d, math/rand drew %d", s, imax, seed, i, got, want)
		}
	}
	if mine.Int63() != theirs.Int63() {
		t.Fatalf("s=%v imax=%d seed=%d: the streams part after %d draws", s, imax, seed, n)
	}
}

// TestZipfMatchesMathRand holds the sampler to rand.Zipf on 10^7 draws per
// config (10^5 with -short).
func TestZipfMatchesMathRand(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	for i, c := range zipfConfigs {
		c, seed := c, int64(i+1)
		t.Run(fmt.Sprintf("s=%v/imax=%d", c.s, c.imax), func(t *testing.T) {
			t.Parallel()
			sameAsMathRand(t, c.s, c.imax, seed, n)
		})
	}
}

// TestZipfCutPoints feeds decide the values of ur where a tabled answer
// could go wrong — every key's cut, first-test cut and second-test bound,
// and the 3 floats on either side of each — and compares it with math/rand's
// own step at the same ur: the same verdict, and on acceptance the same key.
func TestZipfCutPoints(t *testing.T) {
	for _, c := range zipfConfigs {
		if c.imax > 65535 {
			continue
		}
		z := newZipf(rand.New(rand.NewSource(1)), c.s, c.imax)
		lo, hi := z.hxm+z.hx0minusHxm, z.hxm
		for _, row := range z.rows[:len(z.rows)-1] {
			for _, at := range []float64{row.cut, row.first, row.bound} {
				for d := -3; d <= 3; d++ {
					ur := at
					for i := 0; i < d; i++ {
						ur = math.Nextafter(ur, math.Inf(1))
					}
					for i := 0; i > d; i-- {
						ur = math.Nextafter(ur, math.Inf(-1))
					}
					if !(ur >= lo && ur <= hi) {
						continue // no draw lands here
					}
					gk, gok := z.decide(ur)
					wk, wok := z.exact(ur)
					if gok != wok || gok && gk != wk {
						t.Fatalf("s=%v imax=%d ur=%v: decide says (%d, %v), math/rand's step (%d, %v)",
							c.s, c.imax, ur, gk, gok, wk, wok)
					}
				}
			}
		}
	}
}

// FuzzZipf compares 2,000 draws with rand.Zipf for an exponent in (1, 4],
// a key space of up to 2^16 keys and a seed.
func FuzzZipf(f *testing.F) {
	f.Add(uint32(0), uint16(0), int64(1))
	f.Add(uint32(1<<32-1), uint16(1<<16-1), int64(2))
	f.Add(uint32(71582788), uint16(4095), int64(7)) // s ≈ 1.05
	f.Fuzz(func(t *testing.T, a uint32, imax uint16, seed int64) {
		s := 1 + 3*(float64(a)+1)/(1<<32)
		sameAsMathRand(t, s, uint64(imax), seed, 2000)
	})
}

// NewZipfKeys rejects, at construction, what would otherwise fail at the
// first Draw or divide by zero there.
func TestNewZipfKeysValidates(t *testing.T) {
	for _, c := range []struct {
		name           string
		s              float64
		n, span, block int
		want           string
	}{
		{"s=1", 1, 64, 16, 4, "workload: ZipfKeys exponent s must be > 1"},
		{"s<1", 0.5, 64, 16, 4, "workload: ZipfKeys exponent s must be > 1"},
		{"s=NaN", math.NaN(), 64, 16, 4, "workload: ZipfKeys exponent s must be > 1"},
		{"n=0", 1.05, 0, 0, 1, "workload: ZipfKeys needs n >= 1 keys"},
		{"block=0", 1.05, 64, 16, 0, "workload: ZipfKeys block must be >= 1"},
		{"block=-4", 1.05, 64, 16, -4, "workload: ZipfKeys block must be >= 1"},
		{"span%block", 1.05, 64, 16, 5, "workload: ZipfKeys span must be a multiple of block in [0, n]"},
		{"span>n", 1.05, 64, 128, 4, "workload: ZipfKeys span must be a multiple of block in [0, n]"},
		{"span<0", 1.05, 64, -4, 4, "workload: ZipfKeys span must be a multiple of block in [0, n]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != c.want {
					t.Fatalf("panic %v, want %q", got, c.want)
				}
			}()
			NewZipfKeys(sim.New(1), c.s, c.n, c.span, c.block)
		})
	}
}

// ZipfKeys draws the keys the rand.Zipf-based drawer drew: the same ranks
// through the same interleave and rotation, (key + offset) mod n.
func TestZipfKeysDrawsMathRandKeys(t *testing.T) {
	const n, span, block = 4096, 512, 64
	k := sim.New(3)
	z := NewZipfKeys(k, 1.05, n, span, block)
	ref := rand.NewZipf(sim.New(3).Rand(), 1.05, 1, n-1)
	for i := 0; i < 100_000; i++ {
		if i%10_000 == 0 {
			z.Rotate(7 * 512)
		}
		r := int(ref.Uint64())
		if r < span {
			r = (r%(span/block))*block + r/(span/block)
		}
		if got, want := z.Draw(), (r+z.offset)%n; got != want {
			t.Fatalf("draw %d is key %d, want %d", i, got, want)
		}
	}
}

// A draw allocates nothing: the tables are built once, in NewZipfKeys.
func TestZipfKeysDrawAllocCeiling(t *testing.T) {
	z := NewZipfKeys(sim.New(1), 1.05, 4096, 512, 64)
	if got := testing.AllocsPerRun(10_000, func() { z.Draw() }); got != 0 {
		t.Fatalf("Draw allocated %v times, want 0", got)
	}
}

// BenchmarkZipfKeysDraw times one key draw at the stream experiments'
// shape, and the same loop over rand.Zipf's rank draws for reference.
func BenchmarkZipfKeysDraw(b *testing.B) {
	b.Run("tabled", func(b *testing.B) {
		z := NewZipfKeys(sim.New(1), 1.05, 4096, 512, 64)
		b.ReportAllocs()
		b.ResetTimer()
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += z.Draw()
		}
		sink = sum
	})
	b.Run("math-rand", func(b *testing.B) {
		z := rand.NewZipf(sim.New(1).Rand(), 1.05, 1, 4095)
		b.ReportAllocs()
		b.ResetTimer()
		sum := 0
		for i := 0; i < b.N; i++ {
			sum += int(z.Uint64())
		}
		sink = sum
	})
}

var sink int
