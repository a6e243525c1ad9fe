package sim

import "math"

// Source is a small deterministic pseudo-random number generator
// (SplitMix64). Every stochastic decision in the simulator draws from a
// Source seeded by the run configuration so that runs replay exactly.
//
// The zero value is a valid generator (seed 0); use NewSource to derive
// independent streams.
type Source struct {
	state uint64
}

// NewSource returns a generator seeded with seed.
func NewSource(seed uint64) *Source { return &Source{state: seed} }

// Split derives an independent child stream; the parent advances once.
func (s *Source) Split() *Source { return &Source{state: s.Uint64() ^ 0x9e3779b97f4a7c15} }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniformly distributed in [0, n). It panics if
// n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63n returns a value uniformly distributed in [0, n). It panics if
// n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// Float64 returns a value uniformly distributed in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Duration returns a time uniformly distributed in [0, d). d must be
// positive.
func (s *Source) Duration(d Time) Time {
	return Time(s.Int63n(int64(d)))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Geometric returns a sample from a geometric distribution with the
// given mean (success probability 1/mean, support {1, 2, ...}), always
// at least 1 and capped at 16x the mean. It is used for think times and
// burst lengths where a long tail is wanted without unbounded values.
//
// The sample is drawn by closed-form inverse-CDF transform — a single
// Float64 per call — rather than by Bernoulli rejection, which costs
// O(mean) draws per sample and dominated large-system runs at the
// workloads' nanosecond-scale mean think times (~6000 draws per
// generated op at a 6 ns mean).
func (s *Source) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// For U uniform in [0,1), 1 + floor(log(1-U) / log(1-p)) is
	// geometric with P(n=k) = p(1-p)^(k-1), exactly the distribution
	// the rejection loop sampled. Both logs are non-positive, the second
	// non-zero for any mean below 2^53, so n >= 1.
	n := 1 + int(math.Log(1-s.Float64())/math.Log(1-1/mean))
	if tail := int(mean * 16); n > tail {
		n = tail
	}
	return n
}
