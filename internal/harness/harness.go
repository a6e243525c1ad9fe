// Package harness reproduces the paper's experiments: Table 2
// (reissue/persistent-request rates), Figure 4 (Snooping vs TokenB
// runtime and traffic), Figure 5 (Directory and Hammer vs TokenB
// runtime and traffic), and the §6 question 5 scalability
// microbenchmark. Each experiment has a structured-result function (for
// tests and benchmarks) and a printer that emits the paper-style rows.
//
// The experiments are expressed as declarative engine.Plan grids and
// executed on the parallel engine (see internal/engine); every grid
// point is an independent deterministic simulation, so results are
// identical at any parallelism. Component names in the grids — and the
// workload axis the per-workload experiments iterate — resolve through
// internal/registry, so experiments automatically cover workloads
// registered beyond the built-ins, and RunExperiment itself resolves
// experiment names through an ordered table rather than a switch.
package harness

import "tokencoherence/internal/engine"

// Options tunes experiment size; the zero value gives quick defaults.
type Options struct {
	// Ops per processor (default 4000).
	Ops int
	// Warmup ops per processor before measurement (default 2x Ops; set
	// engine.NoWarmup for an explicitly cold-cache measurement — a plain zero
	// means "unset").
	Warmup int
	// Seeds to average over (default {1}).
	Seeds []uint64
	// Procs (default 16).
	Procs int
	// MaxProcs caps the largest system size the scaling experiment
	// sweeps (default 64, the paper's §6 endpoint; up to 256).
	MaxProcs int
	// Parallel bounds the worker pool that executes the experiment grid
	// (default 0 = one worker per CPU). Results do not depend on it.
	Parallel int
	// Islands splits each point across this many conservative-parallel
	// kernel islands (default 0 = serial kernel). Like Parallel, it is
	// an execution knob: results do not depend on it.
	Islands int
}

func (o Options) ops() int {
	if o.Ops == 0 {
		return 4000
	}
	return o.Ops
}

// warmup resolves the warmup axis: NoWarmup (negative) is explicitly
// cold, zero is unset (default 2x Ops).
func (o Options) warmup() int {
	if o.Warmup < 0 {
		return 0
	}
	if o.Warmup == 0 {
		return 2 * o.ops()
	}
	return o.Warmup
}

// planWarmup encodes warmup() for engine.Plan, where zero means "keep
// the variant's": an explicitly cold run becomes the NoWarmup sentinel.
func (o Options) planWarmup() int {
	if w := o.warmup(); w != 0 {
		return w
	}
	return engine.NoWarmup
}

func (o Options) maxProcs() int {
	if o.MaxProcs == 0 {
		return 64
	}
	return o.MaxProcs
}

func (o Options) seeds() []uint64 {
	if len(o.Seeds) == 0 {
		return []uint64{1}
	}
	return o.Seeds
}

func (o Options) procs() int {
	if o.Procs == 0 {
		return 16
	}
	return o.Procs
}

// engine returns the worker pool the experiments run on.
func (o Options) engine() engine.Engine {
	return engine.Engine{Workers: o.Parallel}
}

// plan wraps variants in a grid carrying the options' sizing, seeds and
// any extra axes the caller sets afterwards.
func (o Options) plan(variants []engine.Variant) engine.Plan {
	return engine.Plan{
		Variants: variants,
		Seeds:    o.seeds(),
		Ops:      o.ops(),
		Warmup:   o.planWarmup(),
		Procs:    o.procs(),
		Islands:  o.Islands,
	}
}
