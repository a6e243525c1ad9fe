package stats

import (
	"math"
	"reflect"
	"testing"

	"tokencoherence/internal/sim"
)

func TestMetricSetRegistrationOrderAndSchema(t *testing.T) {
	ms := NewMetricSet()
	c := ms.Counter(Desc{Name: "c", Unit: "count", Help: "a counter"})
	gv := 0.0
	ms.Derived(Desc{Name: "g", Unit: "ratio"}, func() float64 { return gv })
	h := ms.Histogram(Desc{Name: "h", Unit: "ns"})
	ms.Derived(Desc{Name: "d", Unit: "x", Fmt: "%.2f"}, func() float64 { return 42.5 })

	if got, want := ms.Names(), []string{"c", "g", "h", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	descs := ms.Descs()
	if descs[0].Kind != KindCounter || descs[1].Kind != KindDerived ||
		descs[2].Kind != KindHistogram || descs[3].Kind != KindDerived {
		t.Fatalf("kinds wrong: %+v", descs)
	}
	// Every archived snapshot serializes its kinds by number.
	if KindCounter != 0 || KindHistogram != 2 || KindDerived != 3 {
		t.Fatalf("metric kinds renumbered: counter=%d histogram=%d derived=%d", KindCounter, KindHistogram, KindDerived)
	}
	if descs[0].Fmt != "%g" {
		t.Errorf("default Fmt = %q, want %%g", descs[0].Fmt)
	}

	c.Add(3)
	c.Inc()
	gv = 1.5
	h.Observe(100 * sim.Nanosecond)
	h.Observe(300 * sim.Nanosecond)

	if v, ok := ms.Value("c"); !ok || v != 4 {
		t.Errorf("Value(c) = %v, %v", v, ok)
	}
	if v, ok := ms.Value("g"); !ok || v != 1.5 {
		t.Errorf("Value(g) = %v, %v", v, ok)
	}
	if v, ok := ms.Value("h"); !ok || v != 200 {
		t.Errorf("Value(h) = %v, %v (want histogram mean in ns)", v, ok)
	}
	if _, ok := ms.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	if d, ok := ms.Lookup("d"); !ok || d.Unit != "x" {
		t.Errorf("Lookup(d) = %+v, %v", d, ok)
	}
}

func TestMetricSetSharedRegistration(t *testing.T) {
	// Per-node components register the same metric once each; every
	// registration is its own shard, and the metric reads their sum.
	ms := NewMetricSet()
	d := Desc{Name: "acts", Unit: "count", Fmt: "%.0f"}
	a, b := ms.Counter(d), ms.Counter(d)
	if a == b {
		t.Fatal("two counter registrations returned the same shard")
	}
	a.Add(2)
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Errorf("shards = %d, %d, want 2, 1", a.Value(), b.Value())
	}
	if v, _ := ms.Value("acts"); v != 3 {
		t.Errorf("Value(acts) = %v, want 3", v)
	}
	if n := ms.Count("acts"); n != 3 {
		t.Errorf("Count(acts) = %d, want 3", n)
	}
	if n := len(ms.Names()); n != 1 {
		t.Errorf("Names() has %d entries, want 1", n)
	}
	ms.Reset()
	if a.Value() != 0 || b.Value() != 0 || ms.Count("acts") != 0 {
		t.Errorf("Reset left shards %d, %d", a.Value(), b.Value())
	}

	// Histogram shards merge bucket-wise; the scalar value is the mean of
	// the merged distribution.
	hd := Desc{Name: "lat", Unit: "ns"}
	h1, h2 := ms.Histogram(hd), ms.Histogram(hd)
	if h1 == h2 {
		t.Fatal("two histogram registrations returned the same shard")
	}
	h1.Observe(10 * sim.Nanosecond)
	h1.Observe(20 * sim.Nanosecond)
	h2.Observe(90 * sim.Nanosecond)
	merged := ms.Merged("lat")
	if merged.Count() != 3 || merged.Max() != 90*sim.Nanosecond || merged.Mean() != 40*sim.Nanosecond {
		t.Errorf("Merged(lat) = n=%d max=%v mean=%v, want 3, 90ns, 40ns", merged.Count(), merged.Max(), merged.Mean())
	}
	if v, _ := ms.Value("lat"); v != 40 {
		t.Errorf("Value(lat) = %v, want 40", v)
	}
	ms.Reset()
	if h1.Count() != 0 || h2.Count() != 0 {
		t.Errorf("Reset left histogram shards with %d, %d samples", h1.Count(), h2.Count())
	}
	if acts := ms.Merged("acts"); ms.Count("lat") != 0 || acts.Count() != 0 || ms.Count("nope") != 0 {
		t.Error("Count/Merged of a name of another kind, or unknown, is not zero")
	}
}

func TestMetricSetConflictPanics(t *testing.T) {
	for name, register := range map[string]func(ms *MetricSet){
		"different descriptor": func(ms *MetricSet) {
			ms.Counter(Desc{Name: "m", Unit: "count"})
			ms.Counter(Desc{Name: "m", Unit: "bytes"})
		},
		"different kind": func(ms *MetricSet) {
			ms.Counter(Desc{Name: "m"})
			ms.Histogram(Desc{Name: "m"})
		},
		"derived re-registration": func(ms *MetricSet) {
			ms.Derived(Desc{Name: "m"}, func() float64 { return 0 })
			ms.Derived(Desc{Name: "m"}, func() float64 { return 0 })
		},
		"empty name": func(ms *MetricSet) {
			ms.Counter(Desc{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			register(NewMetricSet())
		}()
	}
}

func TestMetricSetReset(t *testing.T) {
	ms := NewMetricSet()
	c := ms.Counter(Desc{Name: "c"})
	h := ms.Histogram(Desc{Name: "h"})
	ext := 7.0
	ms.Derived(Desc{Name: "d"}, func() float64 { return ext })

	c.Add(10)
	h.Observe(5 * sim.Nanosecond)
	ms.Reset()

	if c.Value() != 0 || h.Count() != 0 {
		t.Errorf("owned metrics not zeroed: c=%d h=%d", c.Value(), h.Count())
	}
	if v, _ := ms.Value("d"); v != 7 {
		t.Errorf("derived metric disturbed by Reset: %v", v)
	}
	// The returned handles stay live after Reset.
	c.Inc()
	if v, _ := ms.Value("c"); v != 1 {
		t.Errorf("counter dead after Reset: %v", v)
	}
}

func TestSnapshotCapturesAndFormats(t *testing.T) {
	ms := NewMetricSet()
	c := ms.Counter(Desc{Name: "c", Fmt: "%.0f"})
	ms.Derived(Desc{Name: "pi", Fmt: "%.2f"}, func() float64 { return 3.14159 })
	c.Add(5)

	snap := ms.Snapshot()
	c.Add(100) // must not affect the captured value
	if v, ok := snap.Value("c"); !ok || v != 5 {
		t.Errorf("snapshot Value(c) = %v, %v", v, ok)
	}
	if s, ok := snap.Formatted("pi"); !ok || s != "3.14" {
		t.Errorf("Formatted(pi) = %q, %v", s, ok)
	}
	if _, ok := snap.Formatted("nope"); ok {
		t.Error("Formatted(nope) reported ok")
	}
	if got, want := snap.Names(), []string{"c", "pi"}; !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot Names() = %v, want %v", got, want)
	}
	if d, ok := snap.Desc("pi"); !ok || d.Fmt != "%.2f" {
		t.Errorf("snapshot Desc(pi) = %+v, %v", d, ok)
	}
	if snap.Len() != 2 {
		t.Errorf("Len = %d", snap.Len())
	}
}

func TestSnapshotFiniteMapFiltersNonFinite(t *testing.T) {
	ms := NewMetricSet()
	ms.Derived(Desc{Name: "inf"}, func() float64 { return math.Inf(1) })
	ms.Derived(Desc{Name: "nan"}, func() float64 { return math.NaN() })
	ms.Derived(Desc{Name: "ok"}, func() float64 { return 1 })
	m := ms.Snapshot().FiniteMap()
	if !reflect.DeepEqual(m, map[string]float64{"ok": 1}) {
		t.Errorf("FiniteMap = %v", m)
	}
}
