// Package sweeps defines the simulator's standard parameter-sweep plans
// as declarative engine.Plan grids: runtime vs link bandwidth, runtime
// and traffic vs system size, TokenB sensitivity to tokens per block,
// and sensitivity to memory-level parallelism. Command sweep executes
// them from the command line; the engine's determinism regression test
// executes every kind serially and in parallel and requires
// byte-identical output.
package sweeps

import (
	"fmt"
	"strings"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/workload"
)

// Kind is one named sweep: a plan builder taking the workload and seed
// (kinds that sweep the workload axis themselves ignore wl).
type Kind struct {
	Name string
	Plan func(wl string, seed uint64) (engine.Plan, []engine.Column)
}

// kinds is the ordered sweep table ByKind and Kinds resolve through.
var kinds = []Kind{
	{"bandwidth", Bandwidth},
	{"procs", func(_ string, seed uint64) (engine.Plan, []engine.Column) { return Procs(seed) }},
	{"tokens", Tokens},
	{"mshr", MSHR},
}

// Kinds lists the available sweep kinds.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.Name
	}
	return out
}

// ByKind returns the named sweep's plan and output columns.
func ByKind(kind, wl string, seed uint64) (engine.Plan, []engine.Column, error) {
	for _, k := range kinds {
		if k.Name == kind {
			p, c := k.Plan(wl, seed)
			return p, c, nil
		}
	}
	return engine.Plan{}, nil, fmt.Errorf("unknown sweep kind %q (registered: %s)",
		kind, strings.Join(Kinds(), ", "))
}

// Bandwidth shows where each protocol becomes bandwidth-bound: the
// paper argues TokenB's extra traffic is harmless on high-bandwidth
// links but matters on starved ones.
func Bandwidth(wl string, seed uint64) (engine.Plan, []engine.Column) {
	var muts []engine.Mutation
	for _, gbps := range []float64{0.4, 0.8, 1.6, 3.2, 6.4, 12.8} {
		bw := gbps
		muts = append(muts, engine.Mutation{
			Name:  fmt.Sprintf("%.1fgbps", bw),
			Tags:  map[string]string{"bandwidth_gbps": fmt.Sprintf("%.1f", bw)},
			Apply: func(c *machine.Config) { c.Net.LinkBandwidth = bw * 1e9 },
		})
	}
	plan := engine.Plan{
		Variants: engine.Grid(
			[]string{engine.ProtoTokenB, engine.ProtoDirectory, engine.ProtoHammer},
			[]string{engine.TopoTorus}),
		Workloads: []string{wl},
		Mutations: muts,
		Seeds:     []uint64{seed},
	}
	return plan, []engine.Column{engine.ColProtocol, engine.TagColumn("bandwidth_gbps"),
		engine.ColCyclesPerTxn, engine.ColAvgMissNS, engine.ColBytesPerMiss}
}

// Procs extends the question 5 scalability study with runtime.
func Procs(seed uint64) (engine.Plan, []engine.Column) {
	var variants []engine.Variant
	for _, proto := range []string{engine.ProtoTokenB, engine.ProtoDirectory} {
		for procs := 4; procs <= 64; procs *= 2 {
			variants = append(variants, engine.Variant{
				Name: fmt.Sprintf("%s-%dp", proto, procs),
				Point: engine.Point{
					Protocol: proto, Topo: engine.TopoTorus, Procs: procs,
					NewGen: func(n int) machine.Generator {
						return workload.NewUniform(2048, 0.3, 5*sim.Nanosecond, n)
					},
					// GenID names the closure's content so the point stays
					// cacheable (engine.PointKey); it must change whenever the
					// NewUniform arguments above do.
					GenID: "uniform/blocks=2048/pwrite=0.3/think=5ns",
				},
			})
		}
	}
	plan := engine.Plan{Variants: variants, Seeds: []uint64{seed}}
	return plan, []engine.Column{engine.ColProtocol, engine.ColProcs,
		engine.ColCyclesPerTxn, engine.ColBytesPerMiss}
}

// Tokens varies T per block for TokenB.
func Tokens(wl string, seed uint64) (engine.Plan, []engine.Column) {
	var muts []engine.Mutation
	for _, tokens := range []int{16, 24, 32, 64, 128, 256} {
		tk := tokens
		muts = append(muts, engine.Mutation{
			Name:  fmt.Sprintf("T=%d", tk),
			Tags:  map[string]string{"tokens_per_block": fmt.Sprintf("%d", tk)},
			Apply: func(c *machine.Config) { c.TokensPerBlock = tk },
		})
	}
	plan := engine.Plan{
		Variants:  engine.Grid([]string{engine.ProtoTokenB}, []string{engine.TopoTorus}),
		Workloads: []string{wl},
		Mutations: muts,
		Seeds:     []uint64{seed},
	}
	return plan, []engine.Column{engine.TagColumn("tokens_per_block"),
		engine.ColCyclesPerTxn, engine.ColReissuedPct, engine.ColPersistentPct}
}

// MSHR varies the processor's miss- and load-level parallelism.
func MSHR(wl string, seed uint64) (engine.Plan, []engine.Column) {
	var muts []engine.Mutation
	for _, mshrs := range []int{2, 4, 8, 16} {
		for _, loads := range []int{1, 2, 4} {
			ms, ld := mshrs, loads
			muts = append(muts, engine.Mutation{
				Name: fmt.Sprintf("mshr=%d/loads=%d", ms, ld),
				Tags: map[string]string{
					"mshrs":     fmt.Sprintf("%d", ms),
					"max_loads": fmt.Sprintf("%d", ld),
				},
				Apply: func(c *machine.Config) {
					c.MSHRs = ms
					c.MaxLoads = ld
				},
			})
		}
	}
	plan := engine.Plan{
		Variants:  engine.Grid([]string{engine.ProtoTokenB}, []string{engine.TopoTorus}),
		Workloads: []string{wl},
		Mutations: muts,
		Seeds:     []uint64{seed},
	}
	return plan, []engine.Column{engine.TagColumn("mshrs"), engine.TagColumn("max_loads"),
		engine.ColCyclesPerTxn, engine.ColAvgMissNS}
}
