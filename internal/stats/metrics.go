package stats

import (
	"fmt"
	"math"
)

// MetricKind distinguishes how a metric's value is produced. The values
// are explicit because every archived snapshot serializes its Descs'
// kinds: a kind's number never changes (1, once a gauge, stays unused).
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing event count: the sum of
	// its registrants' shards, each zeroed by Reset (the warmup boundary).
	KindCounter MetricKind = 0
	// KindHistogram is a latency distribution merged from its
	// registrants' shards; its scalar snapshot value is the distribution
	// mean in nanoseconds.
	KindHistogram MetricKind = 2
	// KindDerived is computed on demand: a ratio over counters, or state
	// owned elsewhere (the kernel, a protocol controller).
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

// Counter is one shard of a counter metric: a monotonically increasing
// event count owned by the component that registered it. The nil
// Counter is valid and discards increments, so components may count
// unconditionally whether or not they were wired to a MetricSet.
//
// A shard is plain memory, written only by its owner's island; the
// metric's value is the sum of its shards, read between windows or
// after the run. Addition commutes, so the sum is identical at any
// island count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Value reports this shard's count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// metric is one registered entry: its schema plus its value source
// according to Kind — counter shards, histogram shards or a read
// function.
type metric struct {
	desc  Desc
	ctrs  []*Counter
	hists []*Histogram
	read  func() float64
}

func (m *metric) count() uint64 {
	var n uint64
	for _, c := range m.ctrs {
		n += c.n
	}
	return n
}

func (m *metric) merged() Histogram {
	var h Histogram
	for _, s := range m.hists {
		h.Merge(s)
	}
	return h
}

func (m *metric) value() float64 {
	switch m.desc.Kind {
	case KindCounter:
		return float64(m.count())
	case KindHistogram:
		h := m.merged()
		return h.Mean().Nanoseconds()
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
// concurrent use; the engine gives every point its own. Registration
// happens at construction; during a parallel run each island writes
// only its own shards.
type MetricSet struct {
	names   []string
	metrics map[string]*metric
}

// NewMetricSet returns an empty set.
func NewMetricSet() *MetricSet {
	return &MetricSet{metrics: make(map[string]*metric)}
}

// add returns the metric registered under d's name, registering it on
// first use; the first registration fixes the metric's schema position.
// Counters and histograms register once per shard, so a repeat must
// carry the identical descriptor. A name collision with a different
// descriptor, or a repeated derived metric, is mis-wiring and panics,
// like the component registry's duplicate names.
func (ms *MetricSet) add(d Desc) *metric {
	if d.Name == "" {
		panic("stats: metric with empty name")
	}
	if prev, ok := ms.metrics[d.Name]; ok {
		if d.Kind == KindDerived {
			panic(fmt.Sprintf("stats: derived metric %q registered twice; only counters and histograms have shards (previously registered as %+v)",
				d.Name, prev.desc))
		}
		if prev.desc != d {
			panic(fmt.Sprintf("stats: metric %q re-registered with a different descriptor (%+v vs %+v)",
				d.Name, prev.desc, d))
		}
		return prev
	}
	m := &metric{desc: d}
	ms.metrics[d.Name] = m
	ms.names = append(ms.names, d.Name)
	return m
}

// Counter registers a new shard of the named counter metric and returns
// it to the registrant, which owns it: each per-node component (16
// cache controllers, 16 arbiters) counts into its own shard, and the
// metric's value is their sum.
func (ms *MetricSet) Counter(d Desc) *Counter {
	m := ms.add(d.withDefaults(KindCounter))
	c := &Counter{}
	m.ctrs = append(m.ctrs, c)
	return c
}

// Histogram registers a new shard of the named histogram metric, owned
// by the registrant. The metric's scalar snapshot value is the mean, in
// nanoseconds, of its merged shards; register Derived companions over
// Merged for quantiles.
func (ms *MetricSet) Histogram(d Desc) *Histogram {
	m := ms.add(d.withDefaults(KindHistogram))
	h := &Histogram{}
	m.hists = append(m.hists, h)
	return h
}

// Derived registers a metric computed by read at snapshot time, for
// ratios over counters and measurements whose storage lives elsewhere
// (the kernel, a protocol controller).
func (ms *MetricSet) Derived(d Desc, read func() float64) {
	if read == nil {
		panic(fmt.Sprintf("stats: derived metric %q with nil read function", d.Name))
	}
	ms.add(d.withDefaults(KindDerived)).read = read
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

// Count reports the named counter's value: the sum of its shards (0 for
// a name that is not a counter).
func (ms *MetricSet) Count(name string) uint64 {
	if m, ok := ms.metrics[name]; ok {
		return m.count()
	}
	return 0
}

// Merged reports the named histogram's shards merged into one
// distribution (empty for a name that is not a histogram).
func (ms *MetricSet) Merged(name string) Histogram {
	if m, ok := ms.metrics[name]; ok {
		return m.merged()
	}
	return Histogram{}
}

// Reset zeroes every counter and histogram shard; derived metrics reset
// with the state they read. The machine calls this at the end of cache
// warmup, so every count — the machine's, the fabric's, the protocols'
// and the probes' — covers exactly the measured interval.
func (ms *MetricSet) Reset() {
	for _, m := range ms.metrics {
		for _, c := range m.ctrs {
			c.n = 0
		}
		for _, h := range m.hists {
			*h = Histogram{}
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
