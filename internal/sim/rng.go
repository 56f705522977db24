// Package sim provides the deterministic building blocks of the
// cycle-accurate simulator: a seeded pseudo-random number generator, a
// cycle clock, and the bitsets behind the fabric's activity scheduling.
// Future work (retransmission back-off, task remaps) is not scheduled
// here: the fabric keeps it as plain state keyed by sim.Cycle and fires
// it at the top of each step.
//
// Determinism is a hard requirement for a NoC simulator: two runs with the
// same seed and configuration must produce bit-identical statistics, so
// experiments are reproducible and regressions are diffable. All
// randomness therefore flows through RNG instances owned by the run, never
// through global state.
package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64). It is not safe for concurrent use; each simulation run
// owns its own instance.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p: one Draw against ChanceOf(p).
func (r *RNG) Bernoulli(p float64) bool { return r.Draw(ChanceOf(p)) }

// Chance is a probability p held as ceil(p·2^53): a Draw against it is
// exactly Float64() < p, since Float64 is a 53-bit count scaled by 2^-53.
type Chance uint64

// ChanceOf converts a probability, clamped to [0, 1]; NaN is 0.
func ChanceOf(p float64) Chance {
	if !(p > 0) {
		return 0
	}
	return Chance(math.Ceil(math.Ldexp(min(p, 1), 53)))
}

// Draw reports true with probability c, consuming one Uint64.
func (r *RNG) Draw(c Chance) bool { return Chance(r.Uint64()>>11) < c }

// Split derives an independent generator from this one. Use it to give
// each component its own stream so that adding random draws to one
// component does not perturb another.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
