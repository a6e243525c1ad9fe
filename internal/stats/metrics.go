package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// MetricKind distinguishes how a metric's value is produced. The values
// are explicit because every archived snapshot serializes its Descs'
// kinds: a kind's number never changes (1, once a gauge, stays unused).
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing event count owned by the
	// MetricSet and zeroed by Reset (the warmup boundary).
	KindCounter MetricKind = 0
	// KindHistogram is a latency distribution owned by the MetricSet; its
	// scalar snapshot value is the distribution mean in nanoseconds.
	KindHistogram MetricKind = 2
	// KindDerived is computed on demand from state owned elsewhere (the
	// Run struct, the network, a protocol controller).
	KindDerived MetricKind = 3
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	case KindDerived:
		return "derived"
	}
	return fmt.Sprintf("MetricKind(%d)", uint8(k))
}

// Desc is one metric's schema entry: the stable name sinks and column
// selectors use, the unit and help text discovery surfaces show, and the
// CSV format verb that keeps text output stable. Kind is filled by the
// MetricSet registration method.
type Desc struct {
	Name string
	Unit string
	Help string
	// Fmt is the fmt verb used to render the value in CSV columns
	// (default "%g").
	Fmt  string
	Kind MetricKind
}

func (d Desc) withDefaults(kind MetricKind) Desc {
	if d.Fmt == "" {
		d.Fmt = "%g"
	}
	d.Kind = kind
	return d
}

// Counter is a monotonically increasing event count. The nil Counter is
// valid and discards increments, so components may count unconditionally
// whether or not they were wired to a MetricSet.
//
// Increments are atomic: a counter registered once and shared by many
// components (one per cache controller, say) may be bumped from several
// islands of a parallel run concurrently. Addition commutes, so the
// final value is identical at any island count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		atomic.AddUint64(&c.n, 1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		atomic.AddUint64(&c.n, n)
	}
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return atomic.LoadUint64(&c.n)
}

// metric is one registered entry: its schema plus exactly one value
// source according to Kind.
type metric struct {
	desc Desc
	ctr  *Counter
	hist *Histogram
	read func() float64
}

func (m *metric) value() float64 {
	switch m.desc.Kind {
	case KindCounter:
		return float64(m.ctr.Value())
	case KindHistogram:
		return m.hist.Mean().Nanoseconds()
	default:
		return m.read()
	}
}

// MetricSet is a run's named-metric registry: every component of a
// simulation publishes its measurements here under a stable name, and
// sinks, column selectors, and the -list-metrics discovery surface read
// them back by name. Names list in registration order, which is
// deterministic for a fixed component set, so schemas — like the
// component registry's Names() — are reproducible run to run.
//
// A MetricSet belongs to one simulated System and is not safe for
// concurrent use; the engine gives every point its own.
type MetricSet struct {
	names   []string
	metrics map[string]*metric
}

// NewMetricSet returns an empty set.
func NewMetricSet() *MetricSet {
	return &MetricSet{metrics: make(map[string]*metric)}
}

// add registers m under its name. Re-registering the same name is
// allowed only when the descriptor matches exactly and the kind owns
// shared storage (counter/histogram): per-node components (16
// cache controllers, 16 arbiters) then share one instance. A name
// collision with a different descriptor is mis-wiring and panics, like
// the component registry's duplicate names.
func (ms *MetricSet) add(m *metric) *metric {
	if m.desc.Name == "" {
		panic("stats: metric with empty name")
	}
	if prev, ok := ms.metrics[m.desc.Name]; ok {
		if m.desc.Kind == KindDerived {
			panic(fmt.Sprintf("stats: derived metric %q registered twice; derived metrics have no shared storage to dedupe onto (previously registered as %+v)",
				m.desc.Name, prev.desc))
		}
		if prev.desc != m.desc {
			panic(fmt.Sprintf("stats: metric %q re-registered with a different descriptor (%+v vs %+v)",
				m.desc.Name, prev.desc, m.desc))
		}
		return prev
	}
	ms.metrics[m.desc.Name] = m
	ms.names = append(ms.names, m.desc.Name)
	return m
}

// Counter registers (or, for an identical descriptor, returns the
// already-registered) counter metric.
func (ms *MetricSet) Counter(d Desc) *Counter {
	m := ms.add(&metric{desc: d.withDefaults(KindCounter), ctr: &Counter{}})
	return m.ctr
}

// Histogram registers (or returns the already-registered) histogram
// metric. The metric's scalar snapshot value is the distribution mean in
// nanoseconds; register Derived companions for quantiles.
func (ms *MetricSet) Histogram(d Desc) *Histogram {
	m := ms.add(&metric{desc: d.withDefaults(KindHistogram), hist: &Histogram{}})
	return m.hist
}

// Derived registers a metric computed by read at snapshot time, for
// measurements whose storage lives elsewhere (Run fields, ratios).
func (ms *MetricSet) Derived(d Desc, read func() float64) {
	if read == nil {
		panic(fmt.Sprintf("stats: derived metric %q with nil read function", d.Name))
	}
	ms.add(&metric{desc: d.withDefaults(KindDerived), read: read})
}

// Names lists the registered metric names in registration order.
func (ms *MetricSet) Names() []string {
	out := make([]string, len(ms.names))
	copy(out, ms.names)
	return out
}

// Descs lists the full schema in registration order.
func (ms *MetricSet) Descs() []Desc {
	out := make([]Desc, len(ms.names))
	for i, name := range ms.names {
		out[i] = ms.metrics[name].desc
	}
	return out
}

// Lookup returns the named metric's schema entry.
func (ms *MetricSet) Lookup(name string) (Desc, bool) {
	m, ok := ms.metrics[name]
	if !ok {
		return Desc{}, false
	}
	return m.desc, true
}

// Value reads the named metric's current scalar value.
func (ms *MetricSet) Value(name string) (float64, bool) {
	m, ok := ms.metrics[name]
	if !ok {
		return 0, false
	}
	return m.value(), true
}

// Reset zeroes every counter and histogram the set owns; derived
// metrics reset with the state they read. The machine calls this at the
// end of cache warmup together with Run.Reset, so probe-registered
// metrics observe exactly the measured interval without any bookkeeping
// in the probe.
func (ms *MetricSet) Reset() {
	for _, name := range ms.names {
		m := ms.metrics[name]
		switch m.desc.Kind {
		case KindCounter:
			atomic.StoreUint64(&m.ctr.n, 0)
		case KindHistogram:
			*m.hist = Histogram{}
		}
	}
}

// Snapshot captures every metric's value. The engine snapshots each
// point's MetricSet after its run so sinks and column selectors read
// stable values regardless of emission timing.
func (ms *MetricSet) Snapshot() *Snapshot {
	s := &Snapshot{
		descs:  make([]Desc, len(ms.names)),
		values: make([]float64, len(ms.names)),
		index:  make(map[string]int, len(ms.names)),
	}
	for i, name := range ms.names {
		m := ms.metrics[name]
		s.descs[i] = m.desc
		s.values[i] = m.value()
		s.index[name] = i
	}
	return s
}

// Snapshot is an immutable capture of a MetricSet: the schema plus one
// scalar value per metric, in registration order.
type Snapshot struct {
	descs  []Desc
	values []float64
	index  map[string]int
}

// Len reports the number of captured metrics.
func (s *Snapshot) Len() int { return len(s.descs) }

// Names lists the captured metric names in schema order.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.descs))
	for i, d := range s.descs {
		out[i] = d.Name
	}
	return out
}

// Descs lists the captured schema in order.
func (s *Snapshot) Descs() []Desc {
	out := make([]Desc, len(s.descs))
	copy(out, s.descs)
	return out
}

// Value returns the named metric's captured value.
func (s *Snapshot) Value(name string) (float64, bool) {
	i, ok := s.index[name]
	if !ok {
		return 0, false
	}
	return s.values[i], true
}

// Desc returns the named metric's schema entry.
func (s *Snapshot) Desc(name string) (Desc, bool) {
	i, ok := s.index[name]
	if !ok {
		return Desc{}, false
	}
	return s.descs[i], true
}

// Formatted renders the named metric with its declared CSV format verb.
func (s *Snapshot) Formatted(name string) (string, bool) {
	i, ok := s.index[name]
	if !ok {
		return "", false
	}
	return fmt.Sprintf(s.descs[i].Fmt, s.values[i]), true
}

// FiniteMap returns name → value for every metric whose value is finite,
// for JSON serialization (JSON has no encoding for Inf/NaN, which e.g.
// cycles_per_txn reports when a run completes no transactions).
func (s *Snapshot) FiniteMap() map[string]float64 {
	out := make(map[string]float64, len(s.descs))
	for i, d := range s.descs {
		if v := s.values[i]; !math.IsInf(v, 0) && !math.IsNaN(v) {
			out[d.Name] = v
		}
	}
	return out
}
