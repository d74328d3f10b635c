package sim

import "math"

// RNG is a small, fast, deterministic random source (splitmix64 core with
// an xorshift-style mixer). It is used instead of math/rand so that
// simulation results are stable across Go releases and across machines.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform Time in [0, d).
func (r *RNG) Duration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(r.Uint64() % uint64(d))
}

// Exp returns an exponentially distributed Time with the given mean,
// suitable for Poisson arrival processes.
func (r *RNG) Exp(mean Time) Time {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Time(-float64(mean) * math.Log(u))
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
