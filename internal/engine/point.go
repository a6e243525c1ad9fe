// Package engine is the experiment-execution subsystem: it defines the
// unit of work (a Point, one deterministic simulation configuration),
// declarative sweep plans that expand cartesian grids of points, a
// bounded-parallelism Engine that executes a plan with per-point panic
// isolation and deterministic result ordering, and Sinks that consume
// the ordered results (CSV, JSON lines, in-memory aggregates).
//
// Every simulation point is an independent deterministic run, so the
// engine parallelizes across points freely: a plan executed with one
// worker and with many workers emits byte-identical output.
//
// Points name their protocol, topology, and workload; the engine
// resolves those names through internal/registry, so components
// registered by users run exactly like the built-ins. Resolution happens
// once per point — Point.Validate at plan-expansion time, then RunPoint
// before constructing the machine — and never on the simulation hot
// path. Unknown names fail early with the registered names in the
// error.
package engine

import (
	"fmt"
	"strings"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

// Built-in protocol names (see internal/registry for the full, possibly
// user-extended, set).
const (
	ProtoTokenB       = "tokenb"
	ProtoSnooping     = "snooping"
	ProtoDirectory    = "directory"
	ProtoHammer       = "hammer"
	ProtoTokenD       = "tokend"
	ProtoTokenM       = "tokenm"
	ProtoDir2         = "dir2"
	ProtoRegionFilter = "regionfilter"
)

// Built-in topology names.
const (
	TopoTree  = "tree"
	TopoTorus = "torus"
)

// Point is one simulation configuration.
type Point struct {
	Protocol string
	// Topo names a registered topology, or "" to use the protocol's
	// default fabric: the first registered topology the protocol can run
	// on (the tree for order-requiring protocols, the torus otherwise).
	Topo     string
	Workload string // registered workload name, or "" to use NewGen

	// NewGen builds a fresh generator for the point's (defaulted)
	// processor count. A generator carries mutable per-processor state,
	// so every job gets its own, which keeps plans that vary seeds or
	// mutations safe under parallel execution.
	NewGen func(procs int) machine.Generator
	// GenID names what a NewGen generator computes, giving an
	// otherwise-opaque closure a stable content identity for the result
	// store (see PointKey). Leave it empty to mark the point uncacheable.
	// Callers own its correctness: two different generators sharing one
	// GenID would satisfy each other's cache lookups. Points using a
	// registered Workload ignore it — the workload name and parameters
	// are already the identity.
	GenID string

	Procs int
	// Islands is the number of conservative-parallel kernel islands the
	// point runs on (0 or 1 = serial). Island runs produce byte-identical
	// results to serial runs; the knob trades wall-clock for cores, never
	// output. Above one requires a topology with partition metadata
	// (both builtins) and must not exceed Procs.
	Islands int
	Ops     int // operations per processor (measured)
	// Warmup is the cache-warming operation count per processor
	// (unmeasured). Negative values (canonically NoWarmup) request an
	// explicitly cold start; they normalize to zero warmup operations.
	Warmup int
	Seed   uint64

	// Unlimited removes the bandwidth limit (infinite links).
	Unlimited bool
	// PerfectDir sets the directory lookup latency to zero.
	PerfectDir bool
	// Mutate optionally adjusts the configuration last.
	Mutate func(*machine.Config)
}

// NoWarmup is the explicit-cold sentinel for Point.Warmup, Plan.Warmup,
// and the harness Options: layers that treat a zero warmup count as
// "unset, apply the default" pass NoWarmup to request genuinely zero
// warmup operations (cold-cache measurement).
const NoWarmup = -1

// withDefaults fills the sizing fields RunPoint would otherwise default
// internally, so expanded plan jobs report the values that actually ran.
func (pt Point) withDefaults() Point {
	if pt.Procs == 0 {
		pt.Procs = 16
	}
	if pt.Ops == 0 {
		pt.Ops = 4000
	}
	if pt.Warmup < 0 {
		pt.Warmup = 0 // NoWarmup: explicitly cold
	}
	return pt
}

// components holds a point's registry-resolved parts.
type components struct {
	proto registry.Protocol
	topo  registry.Topology
	// wl is zero when the point carries its own generator (NewGen).
	wl registry.Workload
}

// resolve looks the point's named components up in the registry,
// applying the topology default and enforcing the machine-size limit
// and the protocol's interconnect-ordering capability. All name errors
// report the registered alternatives.
func (pt Point) resolve() (components, error) {
	var c components
	proto, ok := registry.LookupProtocol(pt.Protocol)
	if !ok {
		return c, fmt.Errorf("engine: unknown protocol %q (registered: %s)",
			pt.Protocol, strings.Join(registry.ProtocolNames(), ", "))
	}
	c.proto = proto

	if pt.Topo == "" {
		topo, ok := registry.DefaultTopology(proto.RequiresOrdered)
		if !ok {
			return c, fmt.Errorf("engine: no registered topology is compatible with protocol %q (requires ordered: %v)",
				pt.Protocol, proto.RequiresOrdered)
		}
		c.topo = topo
	} else {
		topo, ok := registry.LookupTopology(pt.Topo)
		if !ok {
			return c, fmt.Errorf("engine: unknown topology %q (registered: %s)",
				pt.Topo, strings.Join(registry.TopologyNames(), ", "))
		}
		c.topo = topo
	}
	if c.topo.Check != nil {
		if err := c.topo.Check(pt.Procs); err != nil {
			return c, fmt.Errorf("engine: topology %q cannot carry %d processors: %w", c.topo.Name, pt.Procs, err)
		}
	}
	if pt.Procs > msg.MaxNodes {
		return c, fmt.Errorf("engine: %d processors exceed the %d-node machine limit (msg.MaxNodes)", pt.Procs, msg.MaxNodes)
	}
	if pt.Islands > 1 {
		if pt.Islands > pt.Procs {
			return c, fmt.Errorf("engine: %d islands exceed %d processors", pt.Islands, pt.Procs)
		}
		if _, ok := c.topo.New(pt.Procs).(topology.Partitioned); !ok {
			return c, fmt.Errorf("engine: topology %q has no partition metadata; island counts above one need a topology implementing topology.Partitioned", c.topo.Name)
		}
	}
	if proto.RequiresOrdered && !c.topo.Ordered {
		var pairs []string
		for _, name := range registry.OrderedTopologyNames() {
			pairs = append(pairs, pt.Protocol+"/"+name)
		}
		return c, fmt.Errorf("engine: protocol %q requires a totally-ordered interconnect but topology %q is unordered (valid pairs: %s)",
			pt.Protocol, c.topo.Name, strings.Join(pairs, ", "))
	}
	if proto.RequiresClusters && !c.topo.Clustered {
		var pairs []string
		for _, name := range registry.ClusteredTopologyNames() {
			pairs = append(pairs, pt.Protocol+"/"+name)
		}
		return c, fmt.Errorf("engine: scope-aware protocol %q requires a topology with cluster metadata but %q exposes none (valid pairs: %s)",
			pt.Protocol, c.topo.Name, strings.Join(pairs, ", "))
	}

	if pt.NewGen == nil {
		wl, ok := registry.LookupWorkload(pt.Workload)
		if !ok {
			return c, fmt.Errorf("engine: unknown workload %q (registered: %s)",
				pt.Workload, strings.Join(registry.WorkloadNames(), ", "))
		}
		c.wl = wl
	}
	return c, nil
}

// Validate checks that every component name the point references
// resolves in the registry and that the protocol can run on the chosen
// (or defaulted) topology. Plan expansion validates every job, so
// misspelled names and impossible protocol/topology pairs fail before
// any simulation starts, with the registered names in the error.
func (pt Point) Validate() error {
	_, err := pt.withDefaults().resolve()
	return err
}

// RunPoint executes one point and returns its machine and its metric
// snapshot: every measurement the machine, interconnect, protocol, and
// registered probes published, captured after the run (and after the
// protocol audit, when one is declared). The machine is for callers
// that audit it or read its live counters (System.Metrics). Components are
// resolved through the registry once, up front; protocols that declare
// an audit (Token Coherence checks token conservation) are audited
// after the run. The snapshot is non-nil whenever a simulation actually
// ran, even one that then failed.
//
// attach (if non-nil) is called with the fully assembled System — after
// the protocol's controllers and the registered probes, before any
// simulation — so callers can attach run-scoped observers such as a
// transaction tracer. The engine routes its Attach hook here.
func RunPoint(pt Point, attach func(*machine.System)) (*machine.System, *stats.Snapshot, error) {
	pt = pt.withDefaults()
	comps, err := pt.resolve()
	if err != nil {
		return nil, nil, err
	}
	sys, ctrls, audit, err := buildMachine(pt, comps)
	if err != nil {
		return nil, nil, err
	}
	sys.Recorder.SetLabel(fmt.Sprintf("%s/%s/%s procs=%d seed=%d",
		pt.Protocol, comps.topo.Name, pt.Workload, pt.Procs, pt.Seed))
	if attach != nil {
		attach(sys)
	}

	newGen := pt.NewGen
	if newGen == nil {
		newGen = comps.wl.New
	}

	err = sys.ExecuteWarm(ctrls, newGen(pt.Procs), pt.Warmup, pt.Ops)
	if err == nil && audit != nil {
		err = audit()
	}
	if err != nil {
		return sys, sys.Metrics.Snapshot(), fmt.Errorf("%s/%s/%s: %w", pt.Protocol, comps.topo.Name, pt.Workload, err)
	}
	return sys, sys.Metrics.Snapshot(), nil
}

// effectiveConfig assembles the point's fully-resolved machine
// configuration: the Table 1 defaults, the point's sizing and bandwidth
// fields, then the Mutate closure last. It is the single assembly path
// shared by buildMachine and PointKey, so the configuration that is
// hashed is — by construction, not by convention — the configuration
// that runs.
func (pt Point) effectiveConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Procs = pt.Procs
	cfg.Islands = pt.Islands
	if cfg.TokensPerBlock < pt.Procs {
		cfg.TokensPerBlock = pt.Procs * 2
	}
	if pt.Unlimited {
		cfg.Net = cfg.Net.Unlimited()
	}
	if pt.PerfectDir {
		cfg.DirLatency = 0
	}
	if pt.Mutate != nil {
		pt.Mutate(&cfg)
	}
	return cfg
}

// buildMachine constructs the point's machine: configuration, topology,
// system, the protocol's controllers (whose constructors publish the
// protocol metrics), and finally every registered probe, attached in
// registration order so probe metrics land after the built-ins in the
// schema.
func buildMachine(pt Point, comps components) (*machine.System, []machine.Controller, func() error, error) {
	cfg := pt.effectiveConfig()

	topo := comps.topo.New(pt.Procs)
	if topo.Ordered() != comps.topo.Ordered {
		return nil, nil, nil, fmt.Errorf("engine: topology %q reports Ordered()=%v but is registered with Ordered=%v",
			comps.topo.Name, topo.Ordered(), comps.topo.Ordered)
	}

	sys := machine.NewSystem(cfg, topo, pt.Seed)
	ctrls, audit := comps.proto.Build(sys)
	for _, pr := range registry.Probes() {
		sys.Observe(pr.New(sys.Metrics))
	}
	return sys, ctrls, audit, nil
}

// MetricSchema reports the metric schema the point's simulation will
// expose — machine, interconnect, protocol, and probe metrics, in their
// deterministic registration order — without running it. The schema
// depends on the protocol (each publishes its own metrics) and on the
// registered probes; it does not depend on the workload, so the
// point's workload may be left empty.
func MetricSchema(pt Point) ([]stats.Desc, error) {
	pt = pt.withDefaults()
	if pt.Workload == "" && pt.NewGen == nil {
		pt.NewGen = func(procs int) machine.Generator { return nil }
	}
	comps, err := pt.resolve()
	if err != nil {
		return nil, err
	}
	sys, _, _, err := buildMachine(pt, comps)
	if err != nil {
		return nil, err
	}
	return sys.Metrics.Descs(), nil
}

// PlanMetricSchema unions MetricSchema over a plan's jobs — one query
// per distinct protocol, first-seen order, deduplicated by name — so
// discovery and column validation for mixed-protocol plans cover every
// protocol-specific metric any row can publish.
func PlanMetricSchema(plan Plan) ([]stats.Desc, error) {
	jobs, err := plan.Jobs()
	if err != nil {
		return nil, err
	}
	seenProto := make(map[string]bool)
	seenName := make(map[string]bool)
	var out []stats.Desc
	for _, j := range jobs {
		if seenProto[j.Point.Protocol] {
			continue
		}
		seenProto[j.Point.Protocol] = true
		descs, err := MetricSchema(j.Point)
		if err != nil {
			return nil, err
		}
		for _, d := range descs {
			if !seenName[d.Name] {
				seenName[d.Name] = true
				out = append(out, d)
			}
		}
	}
	return out, nil
}
