// Package tokencoherence is a Go reproduction of "Token Coherence:
// Decoupling Performance and Correctness" (Martin, Hill & Wood, ISCA
// 2003): a deterministic discrete-event simulator of a glueless
// shared-memory multiprocessor with four cache-coherence protocols —
// TokenB (the paper's contribution), traditional Snooping, a full-map
// Directory, and an AMD-Hammer-like broadcast protocol — on ordered-tree
// and unordered-torus interconnects, plus the TokenD and TokenM
// performance protocols the paper sketches.
//
// This file is the public facade: it re-exports the configuration,
// experiment harness, and workload types from the internal packages so
// that downstream users never import tokencoherence/internal/... paths.
//
// # Quick start
//
// Simulate one point (see ExampleSimulate for the compiled version):
//
//	snap, err := tokencoherence.Simulate(tokencoherence.Point{
//	    Protocol: tokencoherence.ProtoTokenB,
//	    Topo:     tokencoherence.TopoTorus,
//	    Workload: "oltp",
//	    Ops:      4000,
//	    Warmup:   8000,
//	    Seed:     1,
//	})
//	cpt, _ := snap.Value("cycles_per_txn")
//	bpm, _ := snap.Value("bytes_per_miss")
//
// or reproduce a whole table/figure:
//
//	tokencoherence.RunExperiment(os.Stdout, "table2", tokencoherence.Options{})
//
// # Extending the simulator
//
// Every component of a simulation point — protocol, token performance
// policy, topology, workload — resolves through a component registry,
// so new components plug in without touching the engine. This is the
// paper's thesis as an API: the token-counting substrate guarantees
// safety and starvation freedom no matter where requests are sent, so
// the performance side is an open design space (§7).
//
//   - RegisterPolicy publishes a destination-set policy (an
//     implementation of Policy) and makes it runnable as a protocol of
//     the same name on the unmodified correctness substrate.
//   - RegisterTopology publishes an interconnect fabric (an
//     implementation of Topology).
//   - RegisterWorkload publishes a memory-reference generator.
//   - RegisterProtocol publishes a from-scratch protocol for users who
//     build their own controllers.
//   - RegisterProbe publishes a measurement probe that subscribes to
//     simulation events and derives new named metrics, selectable in
//     CSV output via MetricColumn (see MetricSchema for discovery).
//
// Components lists everything registered; Point.Validate (run
// automatically at plan expansion) rejects unknown names with the
// registered alternatives. See Example_extension for a custom
// destination-set predictor and a ring topology registered and run
// entirely through this package.
package tokencoherence

import (
	"fmt"
	"io"
	"strings"

	"tokencoherence/internal/core"
	"tokencoherence/internal/engine"
	"tokencoherence/internal/harness"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/resultstore"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/trace"
	"tokencoherence/internal/workload"
)

// Protocol identifiers accepted by Point.Protocol. These are the
// built-in registrations; Components().Protocols lists the full set
// including user-registered protocols.
const (
	ProtoTokenB    = engine.ProtoTokenB
	ProtoSnooping  = engine.ProtoSnooping
	ProtoDirectory = engine.ProtoDirectory
	ProtoHammer    = engine.ProtoHammer
	ProtoTokenD    = engine.ProtoTokenD
	ProtoTokenM    = engine.ProtoTokenM

	// Hierarchical protocols, built from topology cluster metadata
	// (both built-in fabrics expose it: tree root-child subtrees,
	// torus rows).
	ProtoDir2         = engine.ProtoDir2
	ProtoRegionFilter = engine.ProtoRegionFilter
)

// Topology identifiers accepted by Point.Topo (built-ins; see
// Components().Topologies for the full set).
const (
	TopoTree  = engine.TopoTree
	TopoTorus = engine.TopoTorus
)

// Config holds the simulated machine's parameters (paper Table 1).
type Config = machine.Config

// DefaultConfig returns the paper's 16-processor target system.
func DefaultConfig() Config { return machine.DefaultConfig() }

// Point describes one simulation configuration. Its Protocol, Topo and
// Workload name registered components; Validate reports unknown names
// with the registered alternatives.
type Point = engine.Point

// Options tunes experiment sizes (operations, warmup, seeds, processors)
// and the workload the parameter sweeps run.
type Options = harness.Options

// Simulate executes one simulation point and returns its metric
// snapshot: every named metric the machine, interconnect, protocol, and
// registered probes published, readable by name (see MetricSchema for
// discovery). Token Coherence runs are audited for token conservation
// and every run is checked by the coherence oracle.
func Simulate(pt Point) (*MetricSnapshot, error) {
	_, snap, err := engine.RunPoint(pt, nil)
	return snap, err
}

// SimulateMetrics is Simulate that also returns the simulated machine,
// for callers that inspect it after the run (its caches, its oracle,
// its live MetricSet).
func SimulateMetrics(pt Point) (*System, *MetricSnapshot, error) { return engine.RunPoint(pt, nil) }

// MetricSchema reports the named metrics the point's simulation will
// expose — without running it. The schema is deterministic for a fixed
// set of registered components and probes; different protocols publish
// different protocol-specific metrics.
func MetricSchema(pt Point) ([]MetricDesc, error) { return engine.MetricSchema(pt) }

// Experiments lists the experiment catalogue: the paper's tables and
// figures, the scaling study, and the parameter sweeps.
func Experiments() []string { return harness.Experiments() }

// RunExperiment reproduces one paper table or figure and prints its rows
// to w, or runs a parameter sweep and prints its CSV rows. Valid names
// are returned by Experiments.
func RunExperiment(w io.Writer, name string, opt Options) error {
	return harness.RunExperiment(w, name, opt)
}

// Plan declaratively describes a cartesian grid of simulation points
// (variants x workloads x mutations x bandwidth x seeds). Expansion
// validates every point's component names against the registry.
type Plan = engine.Plan

// Variant is one named protocol/topology configuration in a Plan.
type Variant = engine.Variant

// Mutation is a named Config adjustment used as a Plan axis.
type Mutation = engine.Mutation

// Engine executes a Plan on a bounded worker pool with deterministic
// result ordering; the zero value runs one worker per CPU.
type Engine = engine.Engine

// Job is one expanded plan job.
type Job = engine.Job

// Result is one executed plan job. Its Metrics snapshot is the job's
// only result record: sinks read every value from it by name (see
// MetricSchema), whether the job simulated or was recalled from a
// Store.
type Result = engine.Result

// Sink consumes a plan's results in deterministic order.
type Sink = engine.Sink

// CSVSink, JSONLSink and AggregateSink are the built-in sinks.
type (
	CSVSink       = engine.CSVSink
	JSONLSink     = engine.JSONLSink
	AggregateSink = engine.AggregateSink
)

// Column describes one CSVSink column.
type Column = engine.Column

// TagColumn reads a mutation tag as its own CSV column.
func TagColumn(name string) Column { return engine.TagColumn(name) }

// MetricColumn selects any published metric by name as a CSV column,
// rendered with the metric's declared format.
func MetricColumn(name string) Column { return engine.MetricColumn(name) }

// ColumnByName resolves a column name: point-identity columns first,
// then metrics, then mutation tags.
func ColumnByName(name string) Column { return engine.ColumnByName(name) }

// ColumnsByName resolves a list of column names (see ColumnByName).
func ColumnsByName(names []string) []Column { return engine.ColumnsByName(names) }

// DefaultColumns are CSVSink's standard point-identity and metric
// columns.
func DefaultColumns() []Column { return engine.DefaultColumns() }

// Grid returns one Plan variant per protocol x topology pair.
func Grid(protocols, topos []string) []Variant { return engine.Grid(protocols, topos) }

// WorkloadParams describes a synthetic commercial workload.
type WorkloadParams = workload.Params

// Workloads lists the registered workloads: the paper's three commercial
// mixes, barnes, and any workloads added with RegisterWorkload.
func Workloads() []string { return registry.WorkloadNames() }

// Workload returns the named workload's parameters for inspection or
// customization. It resolves through the component registry, so the
// answer is consistent with Workloads(): an unregistered name errors
// with the registered alternatives, and a registered workload whose
// generator factory carries no parameters (most RegisterWorkload
// registrations) errors with a message saying exactly that instead of
// pretending the workload does not exist.
func Workload(name string) (WorkloadParams, error) {
	w, ok := registry.LookupWorkload(name)
	if !ok {
		return WorkloadParams{}, fmt.Errorf("tokencoherence: unknown workload %q (registered: %s)",
			name, strings.Join(registry.WorkloadNames(), ", "))
	}
	if w.Params == nil {
		return WorkloadParams{}, fmt.Errorf("tokencoherence: workload %q is an opaque generator factory with no inspectable parameters", name)
	}
	return *w.Params, nil
}

// --- Extension API -------------------------------------------------------
//
// The aliases below expose exactly the internal types an extension
// needs, so custom policies, topologies, workloads, and protocols are
// written against this package alone.

// NodeID identifies one processor node.
type NodeID = msg.NodeID

// Unit addresses a controller within a node (cache, memory, arbiter).
type Unit = msg.Unit

// Unit values a policy's destination sets use.
const (
	UnitCache = msg.UnitCache
	UnitMem   = msg.UnitMem
)

// Port addresses one controller on the interconnect: a (node, unit)
// pair.
type Port = msg.Port

// Addr is a byte address; Block a cache-block number.
type (
	Addr  = msg.Addr
	Block = msg.Block
)

// BlockOf returns the cache block containing a byte address.
func BlockOf(a Addr) Block { return msg.BlockOf(a) }

// Message is one interconnect message, passed by value; policies observe
// incoming token-carrying messages to train predictors. A *Message given
// to a handler or to Policy.Observe is valid only during the call: code
// that keeps a message keeps a copy of the value.
type Message = msg.Message

// MSHR is an outstanding miss's state (the block being requested and the
// progress of its token collection). The record is recycled when the
// miss completes; code that must recognise the miss later keeps Serial.
type MSHR = machine.MSHR

// TokenController is the Token Coherence cache controller a Policy
// steers; it exposes the node's ID, the machine Config, and HomePort for
// building destination sets.
type TokenController = core.TokenB

// Policy decides where the Token Coherence substrate sends transient
// requests (the TokenB/TokenD/TokenM design space of paper §7). A policy
// that guesses wrong only causes reissues — the substrate keeps every
// destination set safe. Register implementations with RegisterPolicy.
type Policy = core.Policy

// Topology is a static interconnect graph with deterministic,
// prefix-closed routing: among one source's paths every link is entered
// from one predecessor, so they form a multicast tree (the network
// panics otherwise). Register implementations with RegisterTopology.
type Topology = topology.Topology

// LinkID names one directed interconnect link (dense in [0, NumLinks)).
type LinkID = topology.LinkID

// Op is one processor memory operation produced by a Generator.
type Op = machine.Op

// Source is the deterministic per-processor random stream generators
// draw from.
type Source = sim.Source

// Time is a simulated time or duration in picoseconds (observer events
// carry it).
type Time = sim.Time

// Common durations expressed in Time units.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Category classifies interconnect messages for traffic accounting.
type Category = msg.Category

// Traffic categories (paper Figures 4b, 5b).
const (
	CatRequest = msg.CatRequest
	CatReissue = msg.CatReissue
	CatControl = msg.CatControl
	CatData    = msg.CatData
)

// Generator produces the per-processor operation stream of a workload.
// Register implementations with RegisterWorkload.
type Generator = machine.Generator

// System is the simulated machine under construction, passed to a
// ProtocolSpec's Build.
type System = machine.System

// Controller is the processor-facing side of a coherence controller.
type Controller = machine.Controller

// PolicySpec registers a token performance policy: a name, whether the
// home memories keep soft-state hints, and a factory producing one fresh
// Policy per cache controller.
type PolicySpec = registry.TokenPolicy

// ProtocolSpec registers a from-scratch protocol: a name, the
// interconnect-ordering capability it requires, and a Build function
// constructing its controllers (plus an optional end-of-run audit).
type ProtocolSpec = registry.Protocol

// TopologySpec registers an interconnect fabric: a name, whether it
// delivers broadcasts in a total order, and a factory building it for a
// processor count.
type TopologySpec = registry.Topology

// WorkloadSpec registers a workload: a name and a factory building a
// fresh Generator for a processor count (plus optional inspectable
// Params).
type WorkloadSpec = registry.Workload

// --- Metrics & observability ---------------------------------------------

// MetricDesc is one metric's schema entry: name, unit, help text, and
// CSV format verb.
type MetricDesc = stats.Desc

// MetricSet is a run's named-metric registry; probes register the
// metrics they derive into it.
type MetricSet = stats.MetricSet

// MetricSnapshot is an immutable capture of a run's metrics, readable by
// name (Result.Metrics carries one per executed plan job).
type MetricSnapshot = stats.Snapshot

// CounterMetric is a monotonically increasing event count registered in
// a MetricSet.
type CounterMetric = stats.Counter

// LatencyHistogram is a power-of-two-bucketed latency histogram;
// MetricSet.Histogram registers one whose snapshot value is its mean.
type LatencyHistogram = stats.Histogram

// Event is one simulation event, passed by value: a miss issued or
// completed, a transient-request reissue, a persistent request's
// activation or deactivation, a token transfer, a network hop, or the
// warmup boundary. Its Kind says which; the field table on the aliased
// internal/stats Event gives each field's meaning per Kind (Aux is a
// completed miss's latency, N its reissue count, and so on).
type Event = stats.Event

// EventKind identifies an Event; EventMask is a set of kinds.
type (
	EventKind = stats.Kind
	EventMask = stats.Mask
)

// Event kinds.
const (
	MissIssued            = stats.MissIssued
	MissCompleted         = stats.MissCompleted
	Reissued              = stats.Reissued
	PersistentActivated   = stats.PersistentActivated
	PersistentDeactivated = stats.PersistentDeactivated
	TokensTransferred     = stats.TokensTransferred
	NetworkHop            = stats.NetworkHop
	MeasurementStarted    = stats.MeasurementStarted
)

// MaskOf returns the set holding kinds.
func MaskOf(kinds ...EventKind) EventMask { return stats.MaskOf(kinds...) }

// Observer subscribes its On function to the Events whose kind is in
// its Kinds mask. Events arrive in simulation order on one goroutine;
// events nobody subscribes to cost the simulation one mask test.
type Observer = stats.Observer

// --- Tracing & debugging -------------------------------------------------

// Tracer stitches observer events into per-transaction spans and
// exports them as Chrome trace-event JSON (chrome://tracing, Perfetto).
// Attach its Observer() to a simulation; warmup events are discarded at
// the measurement boundary, so the exported span count equals the run's
// misses metric.
type Tracer = trace.Tracer

// TracerConfig tunes a Tracer (Hops opts into per-link network-hop
// instants, roughly 100x more events).
type TracerConfig = trace.TracerConfig

// NewTracer returns a transaction tracer for one simulation.
func NewTracer(cfg TracerConfig) *Tracer { return trace.NewTracer(cfg) }

// FlightRecorder keeps the last N protocol events in a fixed ring with
// zero steady-state allocations and dumps them when a run fails or a
// transaction exceeds its starvation deadline. Every simulation built
// by this package arms one by default (Config.RecorderSize,
// Config.StarvationDeadline, Config.DebugLog tune it; a negative size
// disables it).
type FlightRecorder = trace.FlightRecorder

// RecorderConfig configures a standalone FlightRecorder.
type RecorderConfig = trace.RecorderConfig

// NewFlightRecorder returns an armed flight recorder.
func NewFlightRecorder(cfg RecorderConfig) *FlightRecorder { return trace.NewFlightRecorder(cfg) }

// Flight-recorder defaults (see RecorderConfig).
const (
	DefaultRecorderSize       = trace.DefaultRecorderSize
	DefaultStarvationDeadline = trace.DefaultStarvationDeadline
)

// Progress is one engine progress report, delivered after each
// completed plan job (Engine.Progress receives it on a single
// goroutine).
type Progress = engine.Progress

// --- Result store (sweep-as-a-service) -----------------------------------

// Store is the engine's content-addressed result archive interface:
// set Engine.Store (and Engine.Reuse for resume semantics) to archive
// every computed point under its PointKey and recall archived points
// instead of re-simulating them, with byte-identical sink output. An
// implementation archives one MetricSnapshot per key: Put receives the
// computed point's snapshot, and Get must return a snapshot equal in
// every name, schema entry and value (bit for bit, Inf included), since
// sinks render a recalled result from it alone. MetricSnapshot's JSON
// encoding is exact and may serve as the stored form.
type Store = engine.Store

// ResultStore is the durable file-backed Store: one JSON file per
// result, written atomically, safe for concurrent engines and
// cooperating processes sharing the directory (the sweep command's
// -store/-resume/-shard flags build on it).
type ResultStore = resultstore.Store

// OpenResultStore creates (if needed) and opens the result store rooted
// at dir.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// PointKey returns a Point's content hash — a hex SHA-256 over its
// fully-resolved simulation inputs salted with CodeVersion — which is
// its address in a Store. Points carrying an opaque NewGen return
// ErrUncacheable unless Point.GenID names the generator's content.
func PointKey(pt Point) (string, error) { return engine.PointKey(pt) }

// CodeVersion is the simulator-behavior salt mixed into every PointKey;
// it changes whenever simulation results can change, invalidating older
// archives.
const CodeVersion = engine.CodeVersion

// ErrUncacheable marks a Point with no stable content identity (an
// anonymous generator closure); the engine simulates such points
// normally but never archives them.
var ErrUncacheable = engine.ErrUncacheable

// ProbeSpec registers a measurement probe: a name plus a New function
// called once per simulation with the run's MetricSet, returning the
// observer the probe wants attached (or nil for derived-only probes).
// Registered probes attach to every simulation run through this package.
type ProbeSpec = registry.Probe

// RegisterProbe publishes a measurement probe. Probes derive new named
// metrics from observer events — latency CDFs, per-category message
// rates, anything the fixed statistics do not carry — and their metrics
// are selectable in CSV output via MetricColumn and serialized by
// JSONLSink like the built-ins. It panics on a duplicate or empty name.
func RegisterProbe(spec ProbeSpec) { registry.RegisterProbe(spec) }

// RegisterPolicy publishes a token performance policy and makes it
// runnable as a protocol of the same name on the unmodified correctness
// substrate: Point{Protocol: spec.Name} builds token-counting caches and
// memories, persistent-request arbiters, and the conservation audit,
// with spec.New's policies steering transient requests. It panics on a
// duplicate or empty name.
func RegisterPolicy(spec PolicySpec) { registry.RegisterPolicy(spec) }

// RegisterProtocol publishes a protocol built from scratch. Most
// extensions want RegisterPolicy instead, which inherits the substrate's
// correctness guarantees. It panics on a duplicate or empty name.
func RegisterProtocol(spec ProtocolSpec) { registry.RegisterProtocol(spec) }

// RegisterTopology publishes an interconnect fabric under spec.Name;
// spec.Ordered must match the built fabric's Ordered() (the engine
// verifies this). It panics on a duplicate or empty name.
func RegisterTopology(spec TopologySpec) { registry.RegisterTopology(spec) }

// RegisterWorkload publishes a workload under spec.Name. It panics on a
// duplicate or empty name.
func RegisterWorkload(spec WorkloadSpec) { registry.RegisterWorkload(spec) }

// ComponentSet enumerates the registered component names, in
// deterministic registration order (built-ins first).
type ComponentSet struct {
	Protocols  []string
	Policies   []string
	Topologies []string
	Workloads  []string
	Probes     []string
}

// Components lists every registered protocol, token performance policy,
// topology, workload, and probe.
func Components() ComponentSet {
	return ComponentSet{
		Protocols:  registry.ProtocolNames(),
		Policies:   registry.PolicyNames(),
		Topologies: registry.TopologyNames(),
		Workloads:  registry.WorkloadNames(),
		Probes:     registry.ProbeNames(),
	}
}
