// Package registry is the simulator's component registry: the single
// place where protocols, token performance policies, topologies, and
// workloads are published by name so that the engine, the sweeps, the
// experiment harness, and the commands can resolve every component of a
// simulation point without hard-coding its construction.
//
// The registry exists because of the paper's central thesis — the
// decoupling of correctness from performance. The token-counting
// substrate guarantees safety and starvation freedom no matter where
// transient requests are sent, so performance policies, interconnect
// fabrics, and workloads are free design choices (§7). Opening those
// choices behind Register/Lookup tables means a new destination-set
// predictor or a new fabric plugs in without editing the engine: see
// RegisterPolicy, which raises a user-written core.Policy to a complete
// runnable protocol on the unmodified substrate.
//
// Every table has the same contract:
//
//   - Register panics on an empty or duplicate name (component wiring is
//     a programming error, not a runtime condition).
//   - Lookup is safe for concurrent use with other Lookups and Registers.
//   - Names returns the names in registration order, which is
//     deterministic: the built-ins register in a fixed order (see
//     builtin.go) and user registrations append after them. Experiment
//     output that iterates Names is therefore reproducible byte for byte.
//
// Registry resolution happens once per simulation point (engine.RunPoint
// resolves, then simulates); nothing on the discrete-event hot path ever
// consults a registry.
package registry

import (
	"fmt"
	"strings"
	"sync"

	"tokencoherence/internal/core"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/workload"
)

// table is the shared registry mechanism: a named-component map with a
// registration-order name list behind one RWMutex.
type table[T any] struct {
	kind string

	mu    sync.RWMutex
	names []string
	m     map[string]T
}

func newTable[T any](kind string) *table[T] {
	return &table[T]{kind: kind, m: make(map[string]T)}
}

func (t *table[T]) register(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("registry: empty %s name", t.kind))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[name]; dup {
		panic(fmt.Sprintf("registry: duplicate %s %q", t.kind, name))
	}
	t.m[name] = v
	t.names = append(t.names, name)
}

func (t *table[T]) lookup(name string) (T, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.m[name]
	return v, ok
}

// list returns the registered names in registration order.
func (t *table[T]) list() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// first returns the first registered entry satisfying ok.
func (t *table[T]) first(ok func(T) bool) (T, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, name := range t.names {
		if v := t.m[name]; ok(v) {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// --- Protocols ----------------------------------------------------------

// Protocol describes one registered coherence protocol: how to construct
// its controllers on a machine, and the capabilities it demands of the
// interconnect.
type Protocol struct {
	// Name is the identifier Point.Protocol selects.
	Name string

	// RequiresOrdered marks protocols that are only correct on a
	// totally-ordered broadcast fabric (traditional snooping). The engine
	// rejects points that pair such a protocol with an unordered topology
	// and defaults their empty topology to an ordered one.
	RequiresOrdered bool

	// RequiresClusters marks scope-aware protocols that need a topology
	// with cluster metadata (hierarchical coherence realms: the
	// two-level directory, region-filtered token policies). The engine
	// rejects points pairing such a protocol with a topology whose
	// registration does not declare Clustered.
	RequiresClusters bool

	// Build constructs the protocol's per-node controllers on sys. The
	// returned audit, if non-nil, is run after the simulation to verify
	// the protocol's global end-of-run invariants (Token Coherence checks
	// token conservation).
	Build func(sys *machine.System) (ctrls []machine.Controller, audit func() error)
}

var protocols = newTable[Protocol]("protocol")

// RegisterProtocol publishes a protocol. It panics if p.Name is empty or
// already registered, or if p.Build is nil.
func RegisterProtocol(p Protocol) {
	if p.Build == nil {
		panic(fmt.Sprintf("registry: protocol %q has no Build function", p.Name))
	}
	protocols.register(p.Name, p)
}

// LookupProtocol returns the named protocol.
func LookupProtocol(name string) (Protocol, bool) { return protocols.lookup(name) }

// ProtocolNames lists the registered protocols in registration order.
func ProtocolNames() []string { return protocols.list() }

// --- Token performance policies -----------------------------------------

// TokenPolicy describes one registered token performance policy: a
// destination-set selection strategy for the Token Coherence substrate
// (the TokenB/TokenD/TokenM design space of §7). Registering a policy
// also registers the protocol it induces, so a policy name is directly
// runnable as a Point.Protocol.
type TokenPolicy struct {
	// Name is both the policy identifier and the induced protocol's name.
	Name string

	// Hints enables the home memory's soft-state hint tracking, which
	// redirects home-bound transient requests to probable token holders
	// (used by TokenD and TokenM).
	Hints bool

	// New builds one fresh policy instance; every cache controller gets
	// its own, so stateful predictors need no locking.
	New func() core.Policy
}

var policies = newTable[TokenPolicy]("policy")

// RegisterPolicy publishes a token performance policy and the protocol
// it induces: the full correctness substrate (token-counting caches and
// memories, persistent-request arbiters, conservation audit) steered by
// the policy's destination sets. This is the paper's decoupling as an
// API: a user-written predictor becomes a runnable protocol without
// touching any protocol machinery.
func RegisterPolicy(p TokenPolicy) {
	if p.New == nil {
		panic(fmt.Sprintf("registry: policy %q has no New function", p.Name))
	}
	// A policy claims its name in the protocol table too; check that
	// table before mutating either, so a collision with an existing
	// protocol leaves the registry untouched.
	if _, dup := protocols.lookup(p.Name); dup {
		panic(fmt.Sprintf("registry: duplicate protocol %q", p.Name))
	}
	// A scope-aware policy (core.ScopedPolicy) gets each cache's cluster
	// realm bound at construction, so its protocol requires a topology
	// with cluster metadata.
	_, scoped := p.New().(core.ScopedPolicy)
	policies.register(p.Name, p)
	RegisterProtocol(Protocol{
		Name:             p.Name,
		RequiresClusters: scoped,
		Build: func(sys *machine.System) ([]machine.Controller, func() error) {
			ts := core.WithPolicy(p.New, p.Hints)(sys)
			return machine.Controllers(ts.Caches), ts.Audit
		},
	})
}

// LookupPolicy returns the named policy.
func LookupPolicy(name string) (TokenPolicy, bool) { return policies.lookup(name) }

// PolicyNames lists the registered policies in registration order.
func PolicyNames() []string { return policies.list() }

// --- Topologies ---------------------------------------------------------

// Topology describes one registered interconnect fabric.
type Topology struct {
	// Name is the identifier Point.Topo selects.
	Name string

	// Ordered declares whether the fabric delivers broadcasts in a total
	// order. It must match the built topology's Ordered() method; the
	// engine verifies the two agree and uses this flag to pair protocols
	// with fabrics before construction.
	Ordered bool

	// Clustered declares that the fabric's topologies expose cluster
	// metadata (topology.Clustered): natural cluster boundaries that
	// scope-aware protocols build their hierarchical realms from. Both
	// built-ins declare it (tree root-child subtrees, torus rows).
	Clustered bool

	// New builds the fabric for procs processor nodes.
	New func(procs int) topology.Topology

	// Check optionally validates a processor count before construction.
	// The engine consults it at plan-expansion time (Point.Validate), so
	// sizes New would panic on fail early with a clear error instead of
	// mid-run. Nil means every size New accepts.
	Check func(procs int) error
}

var topologies = newTable[Topology]("topology")

// RegisterTopology publishes a topology. It panics if t.Name is empty or
// already registered, or if t.New is nil.
func RegisterTopology(t Topology) {
	if t.New == nil {
		panic(fmt.Sprintf("registry: topology %q has no New function", t.Name))
	}
	topologies.register(t.Name, t)
}

// LookupTopology returns the named topology.
func LookupTopology(name string) (Topology, bool) { return topologies.lookup(name) }

// TopologyNames lists the registered topologies in registration order.
func TopologyNames() []string { return topologies.list() }

// DefaultTopology returns the first registered topology a protocol with
// the given ordering requirement can run on: protocols that require a
// total order get the first ordered fabric, all others get the first
// fabric outright. With the built-ins this resolves to the paper's
// pairings — snooping defaults to the tree, everything else to the
// torus.
func DefaultTopology(requiresOrdered bool) (Topology, bool) {
	return topologies.first(func(t Topology) bool {
		return !requiresOrdered || t.Ordered
	})
}

// OrderedTopologyNames lists the registered totally-ordered fabrics, for
// "valid pairs" diagnostics.
func OrderedTopologyNames() []string {
	var out []string
	for _, name := range topologies.list() {
		if t, ok := topologies.lookup(name); ok && t.Ordered {
			out = append(out, name)
		}
	}
	return out
}

// ClusteredTopologyNames lists the registered fabrics exposing cluster
// metadata, for "valid pairs" diagnostics on scope-aware protocols.
func ClusteredTopologyNames() []string {
	var out []string
	for _, name := range topologies.list() {
		if t, ok := topologies.lookup(name); ok && t.Clustered {
			out = append(out, name)
		}
	}
	return out
}

// ProtocolTags reports the named protocol's capability tags for listing
// surfaces: "ordered-fabric" for protocols requiring a totally-ordered
// interconnect, "scoped" for scope-aware protocols requiring cluster
// metadata. Unknown names and protocols with no special requirements
// report none.
func ProtocolTags(name string) []string {
	p, ok := protocols.lookup(name)
	if !ok {
		return nil
	}
	var tags []string
	if p.RequiresOrdered {
		tags = append(tags, "ordered-fabric")
	}
	if p.RequiresClusters {
		tags = append(tags, "scoped")
	}
	return tags
}

// AnnotatedProtocolNames lists the registered protocols in registration
// order, each suffixed with its capability tags in brackets (e.g.
// "snooping[ordered-fabric]", "dir2[scoped]"), for -list surfaces.
func AnnotatedProtocolNames() []string {
	names := protocols.list()
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = name
		if tags := ProtocolTags(name); len(tags) > 0 {
			out[i] = name + "[" + strings.Join(tags, ",") + "]"
		}
	}
	return out
}

// --- Workloads ----------------------------------------------------------

// Workload describes one registered memory-reference workload.
type Workload struct {
	// Name is the identifier Point.Workload selects.
	Name string

	// New builds a fresh generator for procs processors. Generators carry
	// mutable per-processor state, so every simulation point gets its own.
	New func(procs int) machine.Generator

	// Params optionally carries the synthetic-workload parameters behind
	// New, so parameter-inspection surfaces (the facade's Workload
	// function) resolve through the registry like every lookup. Nil marks
	// an opaque generator factory.
	Params *workload.Params
}

var workloads = newTable[Workload]("workload")

// RegisterWorkload publishes a workload. It panics if w.Name is empty or
// already registered, or if w.New is nil.
func RegisterWorkload(w Workload) {
	if w.New == nil {
		panic(fmt.Sprintf("registry: workload %q has no New function", w.Name))
	}
	workloads.register(w.Name, w)
}

// LookupWorkload returns the named workload.
func LookupWorkload(name string) (Workload, bool) { return workloads.lookup(name) }

// WorkloadNames lists the registered workloads in registration order
// (the paper's three commercial workloads first, then barnes, then any
// user registrations).
func WorkloadNames() []string { return workloads.list() }

// --- Probes -------------------------------------------------------------

// Probe describes one registered measurement probe. Probes are
// cross-cutting: unlike the components above, which a Point selects by
// name, every registered probe attaches to every simulation the engine
// runs. New is called once per simulation point with the run's MetricSet;
// the probe registers the metrics it derives (counters, histograms,
// derived values) and returns an Observer subscribing to the
// events it needs — or the zero Observer, for probes that only re-derive
// existing measurements. Metrics the probe registers reset automatically
// at the warmup boundary. Events no observer subscribes to cost their
// fire sites one mask test.
type Probe struct {
	// Name identifies the probe in Components listings.
	Name string

	// New attaches the probe to one run. It must not retain state across
	// calls: the engine runs points in parallel, and each call's metrics
	// and observer belong to one simulation.
	New func(ms *stats.MetricSet) stats.Observer
}

var probes = newTable[Probe]("probe")

// RegisterProbe publishes a probe. It panics if p.Name is empty or
// already registered, or if p.New is nil.
func RegisterProbe(p Probe) {
	if p.New == nil {
		panic(fmt.Sprintf("registry: probe %q has no New function", p.Name))
	}
	probes.register(p.Name, p)
}

// Probes lists the registered probes in registration order.
func Probes() []Probe {
	var out []Probe
	for _, name := range probes.list() {
		if p, ok := probes.lookup(name); ok {
			out = append(out, p)
		}
	}
	return out
}

// ProbeNames lists the registered probe names in registration order.
func ProbeNames() []string { return probes.list() }
