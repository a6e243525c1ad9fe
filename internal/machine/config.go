// Package machine provides the protocol-independent pieces of the target
// system: the Table 1 configuration, the timing processor model, the
// MSHR-based cache-controller base that all four protocols build on, the
// writeback buffer of the MOSI baselines, the write-version safety
// oracle, and system wiring.
//
// The MOSI baselines (snooping, directory, hammer) share their stable
// states (StateI, StateS, StateO, StateM in cache.Line.State), the
// permission rule (embed MOSI) and the response rule:
// CacheBase.AnswerMOSI decides how a cache answers another node's
// request, from an owning writeback entry or the line, and updates
// both. The protocols keep only the message kind, the latency and their
// own fields (the directory's ack count and sequence number, Hammer's
// probe ack).
//
// Per-block state lives in msg.Table records (the oracle's write history
// and the writeback buffer here, home and persistent-request state in
// the protocol packages). Outstanding misses do not: each controller
// keeps an MSHR file of at most Config.MSHRs live records, made on its
// first misses and recycled as misses retire, and CacheBase.Outstanding
// scans the live ones. A *MSHR therefore names its miss only until
// CompleteMiss; code that must recognise a miss after that keeps its
// Serial (TokenB's persistent-request table does).
//
// Coherence realms are concrete Scope values: the System's root scope
// spans all nodes (at most msg.MaxNodes, checked by Config.Validate),
// and ScopesFor builds one scope per topology cluster for hierarchical
// protocols.
//
// A System counts into its MetricSet only: each island registers its
// own shards of the machine counters (transactions, accesses, hits,
// misses by Table 2 class, the miss-latency histogram), and the
// runtime and traffic ratios are derived metrics over their sums.
package machine

import (
	"io"

	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// Config holds the coherent-memory-system parameters of Table 1 plus the
// processor-model knobs this reproduction substitutes for the paper's
// out-of-order cores.
type Config struct {
	// Procs is the number of nodes (processor + caches + memory slice).
	Procs int

	// L1 split I/D caches: 128 kB, 4-way, 2 ns. We model a unified
	// latency-filter tag array of the combined size.
	L1Size    int
	L1Assoc   int
	L1Latency sim.Time

	// Unified L2: 4 MB, 4-way, 6 ns.
	L2Size    int
	L2Assoc   int
	L2Latency sim.Time

	// MemLatency is the DRAM access time (80 ns).
	MemLatency sim.Time
	// CtrlLatency is the memory/directory controller occupancy (6 ns).
	CtrlLatency sim.Time
	// DirLatency is the directory-lookup latency for the directory
	// protocol: MemLatency when the full map lives in DRAM, 0 for the
	// "perfect directory cache" variant.
	DirLatency sim.Time

	// MSHRs bounds outstanding coherence misses per processor,
	// approximating the memory-level parallelism of the paper's
	// 128-entry-ROB dynamically scheduled cores.
	MSHRs int
	// MaxLoads bounds outstanding loads: a dynamically scheduled core
	// soon blocks on a missing load's consumers, so load misses are
	// mostly exposed while store misses overlap (store buffering /
	// speculative SC, as in the paper's processors).
	MaxLoads int

	// TokensPerBlock is T in the correctness substrate; it must be at
	// least Procs.
	TokensPerBlock int

	// Migratory enables the migratory-sharing optimization (paper §4.2);
	// it is on by default in all four protocols, matching the paper's
	// methodology, and exists as a knob for the ablation benchmarks.
	Migratory bool

	// Reissue policy (paper §4.2): reissue after BackoffFactor x the
	// recent average miss latency plus a randomized exponential backoff
	// seeded at BackoffBase; escalate to a persistent request after
	// MaxReissues reissues.
	MaxReissues   int
	BackoffFactor int
	BackoffBase   sim.Time

	// Net holds the interconnect parameters.
	Net interconnect.Config

	// Islands is the number of conservative-parallel islands the system's
	// event kernel runs on (0 or 1 = single island). Above one requires a
	// topology implementing topology.Partitioned. Outputs are
	// byte-identical at any island count; see internal/sim.Cluster.
	Islands int

	// Flight-recorder knobs (see internal/trace). Every system arms a
	// fixed-size ring of recent protocol events that dumps when the run
	// fails or a transaction exceeds the starvation deadline; recording
	// is allocation-free, so always-on costs nothing measurable.

	// RecorderSize is the flight-recorder ring capacity in events
	// (0 = trace.DefaultRecorderSize; negative disables the recorder).
	RecorderSize int
	// StarvationDeadline is the transaction latency at which the armed
	// recorder dumps (0 = trace.DefaultStarvationDeadline; negative
	// disables the deadline but keeps the recorder armed for failures).
	StarvationDeadline sim.Time
	// DebugLog receives flight-recorder dumps (nil = stderr). Each dump
	// is a single Write, so parallel sweeps sharing a destination wrap it
	// in trace.NewSyncWriter and dumps never tear.
	DebugLog io.Writer
}

// DefaultConfig returns the paper's target system (Table 1).
func DefaultConfig() Config {
	return Config{
		Procs:          16,
		L1Size:         128 << 10,
		L1Assoc:        4,
		L1Latency:      2 * sim.Nanosecond,
		L2Size:         4 << 20,
		L2Assoc:        4,
		L2Latency:      6 * sim.Nanosecond,
		MemLatency:     80 * sim.Nanosecond,
		CtrlLatency:    6 * sim.Nanosecond,
		DirLatency:     80 * sim.Nanosecond,
		MSHRs:          16,
		MaxLoads:       2,
		TokensPerBlock: 32,
		Migratory:      true,
		MaxReissues:    4,
		BackoffFactor:  2,
		BackoffBase:    50 * sim.Nanosecond,
		Net:            interconnect.DefaultConfig(),
	}
}

// Validate panics on configurations that cannot work; called by
// NewSystem.
func (c Config) Validate() {
	switch {
	case c.Procs <= 0:
		panic("machine: Procs must be positive")
	case c.Procs > msg.MaxNodes:
		panic("machine: Procs must not exceed msg.MaxNodes")
	case c.TokensPerBlock < c.Procs:
		panic("machine: TokensPerBlock must be at least Procs (paper invariant)")
	case c.MSHRs <= 0:
		panic("machine: MSHRs must be positive")
	case c.MaxLoads <= 0:
		panic("machine: MaxLoads must be positive")
	case c.MaxReissues < 0:
		panic("machine: MaxReissues must be non-negative")
	case c.Islands < 0:
		panic("machine: Islands must be non-negative")
	case c.Islands > c.Procs:
		panic("machine: Islands must not exceed Procs")
	}
}
