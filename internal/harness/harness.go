// Package harness is the simulator's one experiment catalogue. Each
// entry is a named engine.Plan grid with a default size, default CSV
// columns and, for the paper's tables, a text printer:
//
//   - table2: reissue and persistent-request rates (Table 2);
//   - fig4a, fig4b: Snooping vs TokenB runtime and traffic (Figure 4);
//   - fig5a, fig5b: Directory and Hammer vs TokenB runtime and traffic
//     (Figure 5);
//   - scaling: the §6 question 5 uniform-sharing microbenchmark;
//   - bandwidth, procs, tokens, mshr: parameter sweeps beyond the
//     paper's fixed design points, whose text output is their CSV.
//
// Every grid point is an independent deterministic simulation, so
// results are identical at any parallelism. The printers read the
// seed-aggregated cells of an engine.AggregateSink, and component
// names — and the workload axis the per-workload experiments iterate —
// resolve through internal/registry, so experiments automatically cover
// workloads registered beyond the built-ins. Command tokensim runs any
// entry with the store, shard, trace and telemetry machinery.
package harness

import "tokencoherence/internal/engine"

// Options tunes experiment size; zero fields take the defaults
// Experiment.Defaults fills in.
type Options struct {
	// Ops per processor (default: the experiment's, else 4000).
	Ops int
	// Warmup ops per processor before measurement (default: the
	// experiment's, else 2x Ops; set engine.NoWarmup for an explicitly
	// cold-cache measurement — a plain zero means "unset").
	Warmup int
	// Seeds to average over (default {1}).
	Seeds []uint64
	// Procs (default 16).
	Procs int
	// MaxProcs caps the largest system size the scaling and procs
	// experiments sweep (default 64, the paper's §6 endpoint; up to 256).
	MaxProcs int
	// Parallel bounds the worker pool that executes the experiment grid
	// (default 0 = one worker per CPU). Results do not depend on it.
	Parallel int
	// Islands splits each point across this many conservative-parallel
	// kernel islands (default 0 = serial kernel). Like Parallel, it is
	// an execution knob: results do not depend on it.
	Islands int
	// Workload is the workload the parameter sweeps run (default oltp);
	// the paper experiments iterate every registered workload instead.
	Workload string
}

// Plan wraps variants in a grid carrying the options' sizing, seeds and
// islands; callers add any further axes afterwards. The options must
// carry their defaults already (see Experiment.Defaults).
func (o Options) Plan(variants []engine.Variant) engine.Plan {
	return engine.Plan{
		Variants: variants,
		Seeds:    o.Seeds,
		Ops:      o.Ops,
		Warmup:   o.Warmup,
		Procs:    o.Procs,
		Islands:  o.Islands,
	}
}

// sizes are the system sizes the scaling and procs entries sweep:
// powers of two from 4 up to MaxProcs.
func (o Options) sizes() []int {
	var out []int
	for procs := 4; procs <= o.MaxProcs; procs *= 2 {
		out = append(out, procs)
	}
	return out
}
