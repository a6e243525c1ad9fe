package stats

import (
	"math"
	"reflect"
	"testing"

	"tokencoherence/internal/sim"
)

func TestMissesClassification(t *testing.T) {
	m := Misses{Issued: 1000, ReissuedOnce: 30, ReissuedMore: 5, Persistent: 2}
	if got := m.NotReissued(); got != 963 {
		t.Errorf("NotReissued = %d, want 963", got)
	}
	if got := m.Frac(m.ReissuedOnce); got != 3.0 {
		t.Errorf("Frac = %v, want 3.0", got)
	}
}

func TestMissesFracEmpty(t *testing.T) {
	var m Misses
	if m.Frac(10) != 0 {
		t.Error("Frac with zero misses must be 0")
	}
}

func TestAvgMissLatency(t *testing.T) {
	// The machine's avg_miss_ns is a histogram metric: its value is the
	// sum of every shard's latencies over their total count.
	ms := NewMetricSet()
	d := Desc{Name: "avg_miss_ns", Unit: "ns", Fmt: "%.1f"}
	a, b := ms.Histogram(d), ms.Histogram(d)
	a.Observe(50 * sim.Nanosecond)
	a.Observe(100 * sim.Nanosecond)
	b.Observe(150 * sim.Nanosecond)
	if v, _ := ms.Value("avg_miss_ns"); v != 100 {
		t.Errorf("avg_miss_ns = %v, want 100", v)
	}
	if v, _ := NewMetricSet().Value("avg_miss_ns"); v != 0 {
		t.Errorf("unregistered avg_miss_ns = %v, want 0", v)
	}
	empty := NewMetricSet()
	empty.Histogram(d)
	if v, _ := empty.Value("avg_miss_ns"); v != 0 {
		t.Errorf("avg_miss_ns with no samples = %v, want 0", v)
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if got := s.Median(); got != 4.5 {
		t.Errorf("Median = %v, want 4.5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Median() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleMedianOdd(t *testing.T) {
	s := Sample{Values: []float64{9, 1, 5}}
	if got := s.Median(); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
}

func TestSampleMedianEven(t *testing.T) {
	// Even n: the median averages the two central order statistics, and
	// Median must not disturb the sample's own ordering.
	s := Sample{Values: []float64{9, 1, 5, 3}}
	if got := s.Median(); got != 4 {
		t.Errorf("Median = %v, want 4", got)
	}
	if !reflect.DeepEqual(s.Values, []float64{9, 1, 5, 3}) {
		t.Errorf("Median mutated Values: %v", s.Values)
	}
	two := Sample{Values: []float64{10, 20}}
	if got := two.Median(); got != 15 {
		t.Errorf("Median of two = %v, want 15", got)
	}
}

func TestSampleSingleValueStdDev(t *testing.T) {
	// n=1 has no dispersion estimate; the n-1 denominator must not
	// divide by zero.
	s := Sample{Values: []float64{42}}
	if got := s.StdDev(); got != 0 {
		t.Errorf("StdDev of single value = %v, want 0", got)
	}
	if got := s.Mean(); got != 42 {
		t.Errorf("Mean = %v, want 42", got)
	}
	if got := s.Median(); got != 42 {
		t.Errorf("Median = %v, want 42", got)
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	if got := s.String(); got != "0.0 ± 0.0 (n=0)" {
		t.Errorf("empty String = %q", got)
	}
	s.Add(2)
	s.Add(4)
	if got := s.String(); got != "3.0 ± 1.4 (n=2)" {
		t.Errorf("String = %q", got)
	}
}
