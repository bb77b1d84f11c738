// Package workload provides the request generators used by the paper's
// evaluation: YCSB core workloads A–D with scrambled-Zipfian keys
// (θ = 0.99), and a family of synthetic traces reproducing the recency/
// frequency regimes of the real-world trace suites (FIU webmail, Twitter
// compute/storage/transient, IBM object store, CloudPhysics) — see Table 2
// and docs/ARCHITECTURE.md ("Evaluation") for the substitution rationale.
package workload

import (
	"math"
	"math/rand"
)

// Zipfian samples ranks in [0, n) with the YCSB Zipfian distribution of
// exponent theta (< 1, unlike math/rand.Zipf which requires s > 1). It is
// a direct port of the standard YCSB ZipfianGenerator.
type Zipfian struct {
	n            uint64
	theta        float64
	alpha        float64
	zetan, zeta2 float64
	eta          float64
}

// NewZipfian builds a generator over n items. theta is the skew (YCSB
// default 0.99).
func NewZipfian(n uint64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaStatic computes the n-th generalized harmonic number of order theta.
func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / pow(float64(i), theta)
	}
	return sum
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Next samples a rank: 0 is the most popular item.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+pow(0.5, z.theta) {
		return 1
	}
	r := uint64(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// N returns the item count.
func (z *Zipfian) N() uint64 { return z.n }

// ScrambledZipfian spreads the Zipfian ranks over the key space with a
// hash, as YCSB does, so popular keys are not clustered.
type ScrambledZipfian struct {
	z *Zipfian
}

// NewScrambledZipfian builds a scrambled generator over n keys.
func NewScrambledZipfian(n uint64, theta float64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n, theta)}
}

// Next returns a key in [0, n).
func (s *ScrambledZipfian) Next(rng *rand.Rand) uint64 {
	return fnvHash64(s.z.Next(rng)) % s.z.n
}

// fnvHash64 is YCSB's FNV hash used for scrambling.
func fnvHash64(v uint64) uint64 {
	const offset = 0xCBF29CE484222325
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Latest samples keys skewed toward the most recently inserted item, for
// YCSB-D. Track the insert frontier with Advance.
type Latest struct {
	z     *Zipfian
	count uint64
}

// NewLatest builds a latest-distribution generator with an initial item
// count.
func NewLatest(initial uint64, theta float64) *Latest {
	if initial == 0 {
		initial = 1
	}
	return &Latest{z: NewZipfian(initial, theta), count: initial}
}

// Next returns a key, 0-based, biased to recent inserts.
func (l *Latest) Next(rng *rand.Rand) uint64 {
	r := l.z.Next(rng)
	if r >= l.count {
		r = l.count - 1
	}
	return l.count - 1 - r
}

// Advance records a new insert (the new key is count-1 after the call).
func (l *Latest) Advance() uint64 {
	l.count++
	return l.count - 1
}

// Count returns the current item count.
func (l *Latest) Count() uint64 { return l.count }
