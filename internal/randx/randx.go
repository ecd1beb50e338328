// Package randx centralizes pseudo-random number generation for the MEDA
// simulator and experiment harness. Every stochastic component draws from a
// Source created from an explicit seed, so that each experiment is exactly
// reproducible from the seed that the harness prints.
//
// Sources are splittable: Split derives an independent child stream from a
// parent stream and a string label, so concurrent trials never share state
// and adding a consumer does not perturb the draws seen by the others.
package randx

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic stream of pseudo-random numbers. It wraps
// math/rand with explicit seeding and label-based splitting; it is not safe
// for concurrent use (split one Source per goroutine instead).
type Source struct {
	rng  *rand.Rand
	seed uint64
}

// New returns a Source seeded from the given seed.
func New(seed uint64) *Source {
	return &Source{rng: rand.New(rand.NewSource(int64(seed))), seed: seed}
}

// Seed returns the seed this source was created from.
func (s *Source) Seed() uint64 { return s.seed }

// Split derives an independent child stream identified by label. The child
// seed is a hash of the parent seed and the label, so the mapping is stable
// across runs and insensitive to the order in which children are created.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(s.seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return New(h.Sum64())
}

// SplitN derives the i-th indexed child of a labeled family, e.g. one stream
// per trial: src.SplitN("trial", i).
func (s *Source) SplitN(label string, i int) *Source {
	h := fnv.New64a()
	var b [8]byte
	for j := 0; j < 8; j++ {
		b[j] = byte(s.seed >> (8 * j))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	for j := 0; j < 8; j++ {
		b[j] = byte(uint64(i) >> (8 * j))
	}
	h.Write(b[:])
	return New(h.Sum64())
}

// Float64 returns a uniform draw from [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform draw from [lo, hi), i.e. x ~ U(lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.rng.Intn(n) }

// IntRange returns a uniform integer in [lo, hi] (inclusive).
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("randx: IntRange with hi < lo")
	}
	return lo + s.rng.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// Normal returns a draw from the normal distribution N(mu, sigma²).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.rng.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Choose returns a random index in [0, len(weights)) with probability
// proportional to weights[i]. All weights must be non-negative; if they sum
// to zero the draw is uniform.
func (s *Source) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("randx: negative weight")
		}
		total += w
	}
	if isZero(total) {
		return s.IntN(len(weights))
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// isZero is an exact sentinel comparison (medalint floatcmp): an all-zero
// weight vector is degenerate by construction, not by rounding.
func isZero(x float64) bool { return x == 0 }
