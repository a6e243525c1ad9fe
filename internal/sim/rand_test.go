package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterministic(t *testing.T) {
	a, b := NewSource(7), NewSource(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a, b := NewSource(1), NewSource(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 identical draws from different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewSource(9)
	child := parent.Split()
	// The child stream must not simply replay the parent stream.
	p, c := NewSource(9), child
	_ = p.Uint64() // parent advanced once during Split
	diff := false
	for i := 0; i < 16; i++ {
		if p.Uint64() != c.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("Split child replays parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 1000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int63n(-5) did not panic")
		}
	}()
	NewSource(1).Int63n(-5)
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(11)
	for i := 0; i < 1000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64RoughlyUniform(t *testing.T) {
	s := NewSource(13)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if mean < 0.47 || mean > 0.53 {
		t.Errorf("mean of %d draws = %v, want ~0.5", n, mean)
	}
}

func TestDurationRange(t *testing.T) {
	s := NewSource(5)
	for i := 0; i < 500; i++ {
		d := s.Duration(100 * Nanosecond)
		if d < 0 || d >= 100*Nanosecond {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := NewSource(21)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("Bool(0.25) hit rate = %v, want ~0.25", frac)
	}
}

func TestGeometricMeanAndFloor(t *testing.T) {
	s := NewSource(33)
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.Geometric(8)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if mean < 6.5 || mean > 9.5 {
		t.Errorf("Geometric(8) sample mean = %v, want ~8", mean)
	}
	if got := s.Geometric(0.5); got != 1 {
		t.Errorf("Geometric(0.5) = %d, want 1", got)
	}
}

// TestGeometricDistribution locks the closed-form inverse-CDF sampler to
// the distribution the O(mean) rejection loop produced: sample mean
// within 2% of the requested mean over 1e5 draws, floor of 1, tail
// capped at 16x the mean. The 6000 case is the workloads' 6 ns mean
// think time in picoseconds — the hot-path case the closed form exists
// for.
func TestGeometricDistribution(t *testing.T) {
	for _, mean := range []float64{2, 8, 100, 6000} {
		s := NewSource(97)
		const n = 100000
		tail := int(mean * 16)
		var sum float64
		for i := 0; i < n; i++ {
			v := s.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", mean, v)
			}
			if v > tail {
				t.Fatalf("Geometric(%v) = %d above the 16x cap %d", mean, v, tail)
			}
			sum += float64(v)
		}
		got := sum / n
		if got < mean*0.98 || got > mean*1.02 {
			t.Errorf("Geometric(%v) sample mean = %v, want within 2%%", mean, got)
		}
	}
}

// TestGeometricTailClamp takes a draw whose inverse-CDF value lies
// beyond 16x the mean (seed 3747935's first one, found by search) and
// requires Geometric to return the cap itself.
func TestGeometricTailClamp(t *testing.T) {
	const mean = 1000
	s := NewSource(3747935)
	peek := *s
	if raw := 1 + int(math.Log(1-peek.Float64())/math.Log(1-1.0/mean)); raw <= 16*mean {
		t.Fatalf("unclamped draw %d is within the cap %d; the test lost its purpose", raw, 16*mean)
	}
	if got := s.Geometric(mean); got != 16*mean {
		t.Errorf("Geometric(%d) = %d, want the cap %d", mean, got, 16*mean)
	}
}

// TestGeometricSingleDraw pins the O(1) hot-path property: one sample
// consumes exactly one value from the stream, where the rejection loop
// consumed O(mean) (~6000 at the workloads' 6 ns mean think time).
func TestGeometricSingleDraw(t *testing.T) {
	a, b := NewSource(5), NewSource(5)
	for i := 0; i < 100; i++ {
		a.Geometric(6000)
		b.Uint64()
		if a.state != b.state {
			t.Fatalf("draw %d: Geometric(6000) advanced the stream by more than one value", i)
		}
	}
}

func BenchmarkGeometric(b *testing.B) {
	// 6000 is the workloads' 6 ns mean think time in picoseconds; the
	// old rejection loop cost ~6000 RNG draws per sample here.
	s := NewSource(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Geometric(6000)
	}
	benchSink = sink
}

var benchSink int

// Property: Intn(n) is always within bounds for any positive n.
func TestPropertyIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n)%1000 + 1
		s := NewSource(seed)
		for i := 0; i < 20; i++ {
			v := s.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
