package stats

import (
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
