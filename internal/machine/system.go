package machine

import (
	"fmt"
	"math"
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
// is wired to its island's Isle (kernel, network view, counter shards,
// observer journal); counts are summed from their shards when Metrics
// is read, and the coordinator replays observation journals at the
// barriers, so outputs are byte-identical at any island count.
type System struct {
	K      *sim.Kernel // island 0's kernel; construction-time context
	Cfg    Config
	Topo   topology.Topology
	Net    *interconnect.Network // island 0's view; fabric-wide queries
	Oracle *Oracle
	Rng    *sim.Source

	// Scope is the machine-wide root coherence realm: all nodes, homes
	// block-interleaved (msg.HomeOf). Flat protocols resolve every
	// transaction in it; hierarchical protocols also work in cluster
	// scopes (see ScopesFor).
	Scope *Scope

	// Cluster coordinates the island kernels; Isles holds the per-island
	// wiring. IsleFor maps a node to its island.
	Cluster *sim.Cluster
	Isles   []*Isle

	// Metrics is the run's named-metric registry and its only counter
	// store. NewSystem registers every island's shards of the machine and
	// interconnect counters and the ratios derived from them; protocol
	// packages add theirs at Build; probes add metrics when they attach.
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
	// elapsed is the measured interval, set when ExecuteWarm returns.
	elapsed sim.Time
}

// Isle is one island's execution context: its kernel, its view of the
// interconnect fabric, its shards of the machine counters, and the
// journaling observer protocol events on this island must fire into.
// Components are wired to their node's Isle at construction.
type Isle struct {
	K   *sim.Kernel
	Net *interconnect.Network
	// counts and missLatency are this island's shards of the machine
	// counters and of the avg_miss_ns histogram.
	counts      [numCounts]*stats.Counter
	missLatency *stats.Histogram
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
	root := make([]msg.NodeID, cfg.Procs)
	for i := range root {
		root[i] = msg.NodeID(i)
	}
	s := &System{
		K:        cluster.Kernel(0),
		Cfg:      cfg,
		Topo:     topo,
		Oracle:   NewOracle(),
		Rng:      sim.NewSource(seed ^ 0x5bf0_3635_dcf5_9e11),
		Scope:    NewScope(root),
		Cluster:  cluster,
		Metrics:  stats.NewMetricSet(),
		CutLinks: cut,
	}
	s.Isles = make([]*Isle, islands)
	kernels := make([]*sim.Kernel, islands)
	for i := range s.Isles {
		isle := &Isle{K: cluster.Kernel(i)}
		isle.jr.k = isle.K
		s.Isles[i] = isle
		kernels[i] = isle.K
	}
	s.Net = interconnect.New(kernels[0], topo, cfg.Net)
	for i, v := range s.Net.Split(assign, kernels) {
		s.Isles[i].Net = v
	}
	s.publishMetrics()
	s.Net.PublishMetrics(s.Metrics)
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

// The machine counters; every island owns one shard of each
// (Isle.counts).
const (
	transactions = iota
	accesses
	l1Hits
	l2Hits
	upgrades
	writebacks
	misses
	reissuedOnce
	reissuedMore
	persistent
	numCounts
)

// publishMetrics registers the machine layer's measurements: every
// island's shards of the machine counters and miss-latency histogram,
// the ratios derived from their sums, and the kernel's event counts.
// The first registration fixes a metric's position, so the schema is
// deterministic (see the engine's schema golden test).
func (s *System) publishMetrics() {
	ms := s.Metrics
	derived := func(name, unit, format, help string, read func() float64) {
		ms.Derived(stats.Desc{Name: name, Unit: unit, Fmt: format, Help: help}, read)
	}
	counter := func(i int, name, help string) {
		for _, isle := range s.Isles {
			isle.counts[i] = ms.Counter(stats.Desc{Name: name, Unit: "count", Fmt: "%.0f", Help: help})
		}
	}
	missClasses := func() stats.Misses {
		return stats.Misses{
			Issued:       ms.Count("misses"),
			ReissuedOnce: ms.Count("misses_reissued_once"),
			ReissuedMore: ms.Count("misses_reissued_more"),
			Persistent:   ms.Count("misses_persistent"),
		}
	}
	perMiss := func(n float64) float64 {
		if m := ms.Count("misses"); m != 0 {
			return n / float64(m)
		}
		return 0
	}
	derived("elapsed_ns", "ns", "%.0f", "measured simulated interval",
		func() float64 { return s.elapsed.Nanoseconds() })
	counter(transactions, "transactions", "workload transactions completed")
	derived("cycles_per_txn", "cycles/txn", "%.2f", "runtime in 1 GHz cycles per completed transaction",
		func() float64 {
			if n := ms.Count("transactions"); n != 0 {
				return s.elapsed.Nanoseconds() / float64(n)
			}
			return math.Inf(1)
		})
	counter(accesses, "accesses", "memory operations performed")
	counter(l1Hits, "l1_hits", "accesses satisfied by the L1 latency filter")
	counter(l2Hits, "l2_hits", "accesses satisfied by the L2")
	counter(upgrades, "upgrades", "write misses on a resident readable line")
	counter(writebacks, "writebacks", "L2 victim lines evicted through the protocol")
	counter(misses, "misses", "coherence misses issued")
	derived("misses_not_reissued", "count", "%.0f", "misses satisfied by their first request",
		func() float64 { m := missClasses(); return float64(m.NotReissued()) })
	counter(reissuedOnce, "misses_reissued_once", "misses reissued exactly once")
	counter(reissuedMore, "misses_reissued_more", "misses reissued more than once")
	counter(persistent, "misses_persistent", "misses escalated to a persistent request")
	derived("reissued_pct", "percent", "%.2f", "percentage of misses reissued at least once",
		func() float64 { m := missClasses(); return m.Frac(m.ReissuedOnce + m.ReissuedMore) })
	derived("persistent_pct", "percent", "%.3f", "percentage of misses resolved persistently",
		func() float64 { m := missClasses(); return m.Frac(m.Persistent) })
	for _, isle := range s.Isles {
		isle.missLatency = ms.Histogram(stats.Desc{Name: "avg_miss_ns", Unit: "ns", Fmt: "%.1f", Help: "mean coherence-miss latency"})
	}
	derived("miss_latency_p50_ns", "ns", "%.0f", "median miss latency (histogram bucket upper bound)",
		func() float64 { h := ms.Merged("avg_miss_ns"); return h.Quantile(0.50).Nanoseconds() })
	derived("miss_latency_p99_ns", "ns", "%.0f", "99th-percentile miss latency (histogram bucket upper bound)",
		func() float64 { h := ms.Merged("avg_miss_ns"); return h.Quantile(0.99).Nanoseconds() })
	derived("miss_latency_max_ns", "ns", "%.0f", "largest observed miss latency",
		func() float64 { h := ms.Merged("avg_miss_ns"); return h.Max().Nanoseconds() })
	derived("bytes_per_miss", "bytes/miss", "%.1f", "interconnect bytes per coherence miss",
		func() float64 { total, _ := ms.Value("bytes_total"); return perMiss(total) })
	for c := 0; c < msg.NumCategories; c++ {
		cat := msg.Category(c)
		derived("bytes_per_miss_"+cat.Slug(), "bytes/miss", "%.1f",
			"category "+cat.String()+" bytes per coherence miss",
			func() float64 { return perMiss(float64(ms.Count("bytes_" + cat.Slug()))) })
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

// Execute drives opsPerProc operations from gen through each
// controller; the measurements are then in Metrics. It fails if the
// simulation deadlocks (event queue drains with operations incomplete)
// or the safety oracle observed a violation.
func (s *System) Execute(ctrls []Controller, gen Generator, opsPerProc int) error {
	return s.ExecuteWarm(ctrls, gen, 0, opsPerProc)
}

// ExecuteWarm first runs warmup operations per processor to populate the
// caches, then resets the statistics and measures opsPerProc operations,
// mirroring the paper's warmed-checkpoint methodology. Statistics reset
// once every processor has completed its warmup.
func (s *System) ExecuteWarm(ctrls []Controller, gen Generator, warmup, opsPerProc int) error {
	if len(ctrls) != s.Cfg.Procs {
		return fmt.Errorf("machine: %d controllers for %d procs", len(ctrls), s.Cfg.Procs)
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
		p := NewProcessor(isle.K, i, gen, c, s.Cfg, s.Rng.Split(), isle.counts[transactions], warmup+opsPerProc, func() {
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
			s.Metrics.Reset()
			warmStart = t
			s.dispatch(stats.Event{Kind: stats.MeasurementStarted, At: t})
		}
		return atomic.LoadInt32(&remaining) == 0
	})
	s.elapsed = end - warmStart
	if atomic.LoadInt32(&remaining) > 0 {
		issued, completed := 0, 0
		for _, p := range procs {
			issued += p.Issued()
			completed += p.Completed()
		}
		err := fmt.Errorf("machine: deadlock, %d/%d processors incomplete (%d issued, %d completed)",
			remaining, len(procs), issued, completed)
		s.Recorder.Trip(err.Error())
		return err
	}
	if err := s.Oracle.Err(); err != nil {
		s.Recorder.Trip("safety oracle failed: " + err.Error())
		return err
	}
	return nil
}
