// Package dist implements the request distributions the paper's
// evaluation depends on: the classic YCSB Zipfian generator (Gray et
// al.'s algorithm, θ = 0.99), its scrambled variant (hot keys spread over
// the keyspace), the "latest" distribution (YCSB-D's recency bias),
// hotspot, and uniform — plus the analytic Zipf coverage computation
// behind Fig 5.
package dist

import (
	"fmt"
	"math"

	"viyojit/internal/sim"
)

// Generator produces item indices in [0, n) for some item count n fixed
// at construction (Latest supports growth; see AddItem).
type Generator interface {
	Next() int64
}

// Uniform draws uniformly from [0, n).
type Uniform struct {
	rng *sim.RNG
	n   int64
}

// NewUniform returns a uniform generator over [0, n).
func NewUniform(rng *sim.RNG, n int64) *Uniform {
	if n <= 0 {
		panic(fmt.Sprintf("dist: NewUniform with n=%d", n))
	}
	return &Uniform{rng: rng, n: n}
}

// Next implements Generator.
func (u *Uniform) Next() int64 { return u.rng.Int63n(u.n) }

// ZipfianConstant is YCSB's default skew parameter.
const ZipfianConstant = 0.99

// Zipfian draws from a Zipf distribution over [0, n): item i is drawn
// with probability proportional to 1/(i+1)^θ, so low indices are hot.
// This is the standard YCSB generator (Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases", SIGMOD '94).
type Zipfian struct {
	rng   *sim.RNG
	items int64
	theta float64

	alpha, zetan, eta, zeta2theta float64
	countForZeta                  int64
}

// NewZipfian returns a Zipfian generator over [0, items) with skew theta
// in (0, 1).
func NewZipfian(rng *sim.RNG, items int64, theta float64) *Zipfian {
	if items <= 0 {
		panic(fmt.Sprintf("dist: NewZipfian with items=%d", items))
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("dist: NewZipfian with theta=%v outside (0,1)", theta))
	}
	z := &Zipfian{rng: rng, items: items, theta: theta}
	z.zeta2theta = zetaStatic(2, theta)
	z.zetan = zetaStatic(items, theta)
	z.countForZeta = items
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = z.etaNow()
	return z
}

func (z *Zipfian) etaNow() float64 {
	return (1 - math.Pow(2.0/float64(z.items), 1-z.theta)) / (1 - z.zeta2theta/z.zetan)
}

// zetaStatic computes the generalized harmonic number sum_{i=1..n} 1/i^θ.
func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Generator.
func (z *Zipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// grow extends the item count, updating zetan incrementally (YCSB's
// ZetaIncrementally); used by Latest when records are inserted.
func (z *Zipfian) grow(items int64) {
	if items <= z.items {
		return
	}
	for i := z.countForZeta + 1; i <= items; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	z.countForZeta = items
	z.items = items
	z.eta = z.etaNow()
}

// fnvOffset64 and fnvPrime64 are the FNV-1a constants used by YCSB's
// scrambled generator.
const (
	fnvOffset64 = 0xCBF29CE484222325
	fnvPrime64  = 0x100000001B3
)

// fnvHash64 is YCSB's 64-bit FNV-1a over the integer's bytes.
func fnvHash64(v uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		octet := v & 0xFF
		v >>= 8
		h ^= octet
		h *= fnvPrime64
	}
	return h
}

// ScrambledZipfian draws Zipf-skewed indices whose popular items are
// scattered across [0, n) rather than clustered at 0 — the distribution
// YCSB actually uses for workloads A/B/C/F, and the right model for "hot
// pages spread over the heap".
type ScrambledZipfian struct {
	z *Zipfian
	n int64
}

// NewScrambledZipfian returns a scrambled Zipfian generator over [0, n).
func NewScrambledZipfian(rng *sim.RNG, n int64, theta float64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(rng, n, theta), n: n}
}

// Next implements Generator.
func (s *ScrambledZipfian) Next() int64 {
	return int64(fnvHash64(uint64(s.z.Next())) % uint64(s.n))
}

// Latest biases toward recently inserted items (YCSB-D: "read latest").
// Next returns max−1−zipf, so the newest item is the hottest. AddItem
// grows the window as records are inserted.
type Latest struct {
	z     *Zipfian
	items int64
}

// NewLatest returns a latest-biased generator over an initial [0, items).
func NewLatest(rng *sim.RNG, items int64, theta float64) *Latest {
	return &Latest{z: NewZipfian(rng, items, theta), items: items}
}

// AddItem extends the item window after an insert.
func (l *Latest) AddItem() {
	l.items++
	l.z.grow(l.items)
}

// Next implements Generator.
func (l *Latest) Next() int64 {
	v := l.items - 1 - l.z.Next()
	if v < 0 {
		// The underlying zipf can (rarely) return items-… beyond the
		// window due to float rounding; clamp.
		v = 0
	}
	return v
}

// HotSpot sends hotOpFraction of draws to the first hotSetFraction of the
// keyspace, uniformly within each side — a simple two-level skew model
// used by the trace generators.
type HotSpot struct {
	rng           *sim.RNG
	n             int64
	hotItems      int64
	hotOpFraction float64
}

// NewHotSpot returns a hotspot generator over [0, n) where hotOpFraction
// of draws land in the first hotSetFraction·n items.
func NewHotSpot(rng *sim.RNG, n int64, hotSetFraction, hotOpFraction float64) *HotSpot {
	if n <= 0 {
		panic(fmt.Sprintf("dist: NewHotSpot with n=%d", n))
	}
	if hotSetFraction <= 0 || hotSetFraction > 1 || hotOpFraction < 0 || hotOpFraction > 1 {
		panic(fmt.Sprintf("dist: NewHotSpot fractions (%v, %v) out of range", hotSetFraction, hotOpFraction))
	}
	hot := int64(float64(n) * hotSetFraction)
	if hot < 1 {
		hot = 1
	}
	return &HotSpot{rng: rng, n: n, hotItems: hot, hotOpFraction: hotOpFraction}
}

// Next implements Generator.
func (h *HotSpot) Next() int64 {
	if h.rng.Float64() < h.hotOpFraction {
		return h.rng.Int63n(h.hotItems)
	}
	if h.hotItems == h.n {
		return h.rng.Int63n(h.n)
	}
	return h.hotItems + h.rng.Int63n(h.n-h.hotItems)
}
