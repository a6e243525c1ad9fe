package machine

import (
	"fmt"
	"sync/atomic"

	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/trace"
)

// System assembles one simulated multiprocessor: kernel cluster,
// interconnect, statistics, safety oracle, and the per-run random
// stream. Protocol packages build their controllers against a System;
// Execute then drives a workload through them.
//
// A system always runs on a sim.Cluster of Cfg.Islands islands (one by
// default): processors and switches are partitioned along the
// topology's link graph, each island executes on its own goroutine, and
// the cluster synchronizes every link-latency window. Every component
// is wired to its island's Isle (kernel, network view, statistics
// shard, observer journal); the coordinator merges shards and replays
// observation journals at the barriers, so outputs are byte-identical
// at any island count.
type System struct {
	K      *sim.Kernel // island 0's kernel; construction-time context
	Cfg    Config
	Topo   topology.Topology
	Net    *interconnect.Network // island 0's view; fabric-wide queries
	Run    *stats.Run            // merged after Execute; shards live per Isle
	Oracle *Oracle
	Rng    *sim.Source

	// Scope is the machine-wide root coherence realm: all nodes, homes
	// block-interleaved (msg.HomeOf). Flat protocols resolve every
	// transaction in it; hierarchical protocols derive cluster scopes
	// whose Parent chain ends here (see ScopesFor).
	Scope Scope

	// Cluster coordinates the island kernels; Isles holds the per-island
	// wiring. IsleFor maps a node to its island.
	Cluster *sim.Cluster
	Isles   []*Isle

	// Metrics is the run's named-metric registry. NewSystem publishes the
	// machine, kernel, and interconnect measurements; protocol packages
	// add theirs at Build; probes add derived metrics when they attach.
	Metrics *stats.MetricSet
	// Recorder is the always-armed flight recorder NewSystem wires from
	// the Cfg knobs (nil when Cfg.RecorderSize is negative). It dumps the
	// recent protocol-event history when the run deadlocks, the safety
	// oracle fails, or a transaction overruns the starvation deadline.
	Recorder *trace.FlightRecorder

	// observers receive events in attach order (see Observe); kinds is
	// the union of their masks.
	observers []stats.Observer
	kinds     stats.Mask

	// CutLinks reports how many directed links cross island boundaries
	// (0 for single-island runs): the hand-off traffic the barrier pays.
	CutLinks int

	// jidx is replayJournals' merge cursor per island.
	jidx []int
}

// Isle is one island's execution context: its kernel, its view of the
// interconnect fabric, its statistics shard, and the journaling
// observer protocol events on this island must fire into. Components
// are wired to their node's Isle at construction.
type Isle struct {
	K   *sim.Kernel
	Net *interconnect.Network
	Run *stats.Run
	// Obs journals this island's events for barrier replay; its mask is
	// the union of the attached observers'. Event sites read it at event
	// time (it is armed when Execute starts).
	Obs stats.Observer

	jr journal
}

// IsleFor returns the island context owning node (= actor) id.
func (s *System) IsleFor(id int) *Isle {
	return s.Isles[s.Cluster.IslandOf(id)]
}

// Observe attaches an observer. Events reach the attached observers in
// attach order through the island journals (see journal.go). Attach
// before Execute; events fired earlier are lost. An observer with no
// Kinds or no On is a no-op, so probes that only register derived
// metrics can return the zero Observer.
func (s *System) Observe(o stats.Observer) {
	if o.Kinds == 0 || o.On == nil {
		return
	}
	s.observers = append(s.observers, o)
	s.kinds |= o.Kinds
	s.armIsles()
}

// armIsles points each island's journaling observer, and its network
// view, at the current subscription. Events fired on an island land in
// its journal; replayJournals dispatches them at the barriers.
func (s *System) armIsles() {
	for _, isle := range s.Isles {
		isle.Obs = stats.Observer{Kinds: s.kinds, On: isle.jr.push}
		isle.Net.SetObserver(isle.Obs)
	}
}

// NewSystem wires an empty system. The topology's node count must match
// cfg.Procs. Cfg.Islands above one requires a topology implementing
// topology.Partitioned (both builtins do).
func NewSystem(cfg Config, topo topology.Topology, seed uint64) *System {
	cfg.Validate()
	if topo.Nodes() != cfg.Procs {
		panic(fmt.Sprintf("machine: topology has %d nodes, config %d procs", topo.Nodes(), cfg.Procs))
	}
	islands := cfg.Islands
	if islands <= 0 {
		islands = 1
	}
	// The actor assignment is computed from the same partition metadata
	// at every island count (including one), so event stamps — and with
	// them every output byte — do not depend on Cfg.Islands.
	var assign []int32
	cut := 0
	if pt, ok := topo.(topology.Partitioned); ok {
		assign, cut = topology.PartitionActors(pt, islands)
	} else if islands > 1 {
		panic(fmt.Sprintf("machine: topology %q does not expose partition metadata for %d islands", topo.Name(), islands))
	} else {
		assign = make([]int32, topo.Nodes())
	}
	cluster := sim.NewCluster(islands, assign, cfg.Net.LinkLatency)
	run := &stats.Run{}
	s := &System{
		K:        cluster.Kernel(0),
		Cfg:      cfg,
		Topo:     topo,
		Run:      run,
		Oracle:   NewOracle(),
		Rng:      sim.NewSource(seed ^ 0x5bf0_3635_dcf5_9e11),
		Scope:    NewFlatScope(cfg.Procs),
		Cluster:  cluster,
		Metrics:  stats.NewMetricSet(),
		CutLinks: cut,
	}
	s.Isles = make([]*Isle, islands)
	kernels := make([]*sim.Kernel, islands)
	traffics := make([]*stats.Traffic, islands)
	for i := range s.Isles {
		// Single-island systems share the top-level Run so code that
		// drives the kernel by hand (tests, tools) reads statistics
		// without an explicit merge step; multi-island systems shard.
		ir := run
		if islands > 1 {
			ir = &stats.Run{}
		}
		isle := &Isle{K: cluster.Kernel(i), Run: ir}
		isle.jr.k = isle.K
		s.Isles[i] = isle
		kernels[i] = isle.K
		traffics[i] = &isle.Run.Traffic
	}
	s.Net = interconnect.New(kernels[0], topo, cfg.Net, traffics[0])
	for i, v := range s.Net.Split(assign, kernels, traffics) {
		s.Isles[i].Net = v
	}
	s.publishMetrics()
	s.Net.PublishMetricsFor(s.Metrics, &run.Traffic)
	if cfg.RecorderSize >= 0 {
		s.Recorder = trace.NewFlightRecorder(trace.RecorderConfig{
			Size:     cfg.RecorderSize,
			Deadline: cfg.StarvationDeadline,
			Out:      cfg.DebugLog,
		})
		s.Observe(s.Recorder.Observer())
	}
	return s
}

// publishMetrics registers the machine layer's measurements — everything
// the Run struct accumulates, plus the kernel's event counts — as named
// metrics. Registration order is fixed, so the schema is deterministic
// (see the engine's schema golden test).
func (s *System) publishMetrics() {
	ms, r := s.Metrics, s.Run
	derived := func(name, unit, format, help string, read func() float64) {
		ms.Derived(stats.Desc{Name: name, Unit: unit, Fmt: format, Help: help}, read)
	}
	derived("elapsed_ns", "ns", "%.0f", "measured simulated interval",
		func() float64 { return r.Elapsed.Nanoseconds() })
	derived("transactions", "count", "%.0f", "workload transactions completed",
		func() float64 { return float64(r.Transactions) })
	derived("cycles_per_txn", "cycles/txn", "%.2f", "runtime in 1 GHz cycles per completed transaction",
		func() float64 { return r.CyclesPerTransaction() })
	derived("accesses", "count", "%.0f", "memory operations performed",
		func() float64 { return float64(r.Accesses) })
	derived("l1_hits", "count", "%.0f", "accesses satisfied by the L1 latency filter",
		func() float64 { return float64(r.L1Hits) })
	derived("l2_hits", "count", "%.0f", "accesses satisfied by the L2",
		func() float64 { return float64(r.L2Hits) })
	derived("upgrades", "count", "%.0f", "write misses on a resident readable line",
		func() float64 { return float64(r.Upgrades) })
	derived("writebacks", "count", "%.0f", "L2 victim lines evicted through the protocol",
		func() float64 { return float64(r.Writeback) })
	derived("misses", "count", "%.0f", "coherence misses issued",
		func() float64 { return float64(r.Misses.Issued) })
	derived("misses_not_reissued", "count", "%.0f", "misses satisfied by their first request",
		func() float64 { return float64(r.Misses.NotReissued()) })
	derived("misses_reissued_once", "count", "%.0f", "misses reissued exactly once",
		func() float64 { return float64(r.Misses.ReissuedOnce) })
	derived("misses_reissued_more", "count", "%.0f", "misses reissued more than once",
		func() float64 { return float64(r.Misses.ReissuedMore) })
	derived("misses_persistent", "count", "%.0f", "misses escalated to a persistent request",
		func() float64 { return float64(r.Misses.Persistent) })
	derived("reissued_pct", "percent", "%.2f", "percentage of misses reissued at least once",
		func() float64 { return r.Misses.Frac(r.Misses.ReissuedOnce + r.Misses.ReissuedMore) })
	derived("persistent_pct", "percent", "%.3f", "percentage of misses resolved persistently",
		func() float64 { return r.Misses.Frac(r.Misses.Persistent) })
	derived("avg_miss_ns", "ns", "%.1f", "mean coherence-miss latency",
		func() float64 { return r.AvgMissLatency().Nanoseconds() })
	derived("miss_latency_p50_ns", "ns", "%.0f", "median miss latency (histogram bucket upper bound)",
		func() float64 { return r.MissLatencies.Quantile(0.50).Nanoseconds() })
	derived("miss_latency_p99_ns", "ns", "%.0f", "99th-percentile miss latency (histogram bucket upper bound)",
		func() float64 { return r.MissLatencies.Quantile(0.99).Nanoseconds() })
	derived("miss_latency_max_ns", "ns", "%.0f", "largest observed miss latency",
		func() float64 { return r.MissLatencies.Max().Nanoseconds() })
	derived("bytes_per_miss", "bytes/miss", "%.1f", "interconnect bytes per coherence miss",
		func() float64 { return r.BytesPerMiss() })
	for c := 0; c < msg.NumCategories; c++ {
		cat := msg.Category(c)
		derived("bytes_per_miss_"+cat.Slug(), "bytes/miss", "%.1f",
			"category "+cat.String()+" bytes per coherence miss",
			func() float64 { return r.CategoryBytesPerMiss(cat) })
	}
	derived("events_scheduled", "count", "%.0f", "kernel events scheduled over the whole run (warmup included)",
		func() float64 {
			var n uint64
			for _, isle := range s.Isles {
				n += isle.K.Scheduled()
			}
			return float64(n)
		})
	derived("events_executed", "count", "%.0f", "kernel events fired over the whole run (warmup included)",
		func() float64 {
			var n uint64
			for _, isle := range s.Isles {
				n += isle.K.Executed()
			}
			return float64(n)
		})
}

// Execute drives opsPerProc operations from gen through each controller
// and returns the populated statistics. It fails if the simulation
// deadlocks (event queue drains with operations incomplete) or the
// safety oracle observed a violation.
func (s *System) Execute(ctrls []Controller, gen Generator, opsPerProc int) (*stats.Run, error) {
	return s.ExecuteWarm(ctrls, gen, 0, opsPerProc)
}

// ExecuteWarm first runs warmup operations per processor to populate the
// caches, then resets the statistics and measures opsPerProc operations,
// mirroring the paper's warmed-checkpoint methodology. Statistics reset
// once every processor has completed its warmup.
func (s *System) ExecuteWarm(ctrls []Controller, gen Generator, warmup, opsPerProc int) (*stats.Run, error) {
	if len(ctrls) != s.Cfg.Procs {
		return nil, fmt.Errorf("machine: %d controllers for %d procs", len(ctrls), s.Cfg.Procs)
	}
	// Completion and warmup are global transitions; island goroutines only
	// decrement these counters, and the coordinator acts on them at the
	// next window barrier. Barrier times are partition-invariant, so the
	// measured interval — and every statistic — is identical at any
	// island count.
	remaining := int32(len(ctrls))
	cold := int32(len(ctrls))
	procs := make([]*Processor, len(ctrls))
	for i, c := range ctrls {
		isle := s.IsleFor(i)
		p := NewProcessor(isle.K, i, gen, c, s.Cfg, s.Rng.Split(), isle.Run, warmup+opsPerProc, func() {
			atomic.AddInt32(&remaining, -1)
		})
		if warmup > 0 {
			p.onWarm = func() {
				atomic.AddInt32(&cold, -1)
			}
			p.warmupOps = warmup
		}
		procs[i] = p
	}
	s.armIsles()
	for i, p := range procs {
		s.IsleFor(i).K.SetExecActor(int32(i))
		p.Start()
	}
	warmed := warmup <= 0
	var warmStart sim.Time
	end := s.Cluster.Run(func(t sim.Time) bool {
		s.replayJournals()
		if !warmed && atomic.LoadInt32(&cold) == 0 {
			warmed = true
			for _, isle := range s.Isles {
				isle.Run.Reset()
			}
			s.Run.Reset()
			s.Metrics.Reset()
			warmStart = t
			s.dispatch(stats.Event{Kind: stats.MeasurementStarted, At: t})
		}
		return atomic.LoadInt32(&remaining) == 0
	})
	for _, isle := range s.Isles {
		if isle.Run != s.Run {
			s.Run.Merge(isle.Run)
		}
	}
	s.Run.Elapsed = end - warmStart
	if atomic.LoadInt32(&remaining) > 0 {
		issued, completed := 0, 0
		for _, p := range procs {
			issued += p.Issued()
			completed += p.Completed()
		}
		err := fmt.Errorf("machine: deadlock, %d/%d processors incomplete (%d issued, %d completed)",
			remaining, len(procs), issued, completed)
		s.Recorder.Trip(err.Error())
		return s.Run, err
	}
	if err := s.Oracle.Err(); err != nil {
		s.Recorder.Trip("safety oracle failed: " + err.Error())
		return s.Run, err
	}
	return s.Run, nil
}
