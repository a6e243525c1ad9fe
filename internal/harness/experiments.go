package harness

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"strings"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/workload"
)

// Experiment is one catalogue entry: a named plan over the simulator
// plus how to size and render it.
type Experiment struct {
	Name string
	// Plan builds the grid from options already filled with the entry's
	// defaults (see Defaults).
	Plan func(opt Options) engine.Plan
	// Ops and Warmup are the default size per processor; zero keeps the
	// general defaults (4000 ops, warmup 2x ops).
	Ops, Warmup int
	// Columns are the default CSV columns.
	Columns []engine.Column
	// Print renders the paper-style table from the seed-aggregated
	// cells. It is nil for the parameter sweeps, whose text output is
	// their CSV.
	Print func(w io.Writer, agg *engine.AggregateSink, opt Options)
}

// Defaults fills opt's unset fields: the size from the entry (else 4000
// ops and a warmup of 2x ops), seed 1, 16 processors, system sizes up
// to 64 processors, and the oltp workload.
func (e Experiment) Defaults(opt Options) Options {
	opt.Ops = cmp.Or(opt.Ops, e.Ops, 4000)
	opt.Warmup = cmp.Or(opt.Warmup, e.Warmup, 2*opt.Ops)
	if len(opt.Seeds) == 0 {
		opt.Seeds = []uint64{1}
	}
	opt.Procs = cmp.Or(opt.Procs, 16)
	opt.MaxProcs = cmp.Or(opt.MaxProcs, 64)
	opt.Workload = cmp.Or(opt.Workload, "oltp")
	return opt
}

// Catalogue returns the ordered experiment table: the paper's tables
// and figures in presentation order, then the parameter sweeps. It is
// built per call rather than held in a package variable, so programs
// that link the package without running experiments carry none of it.
func Catalogue() []Experiment {
	runtimeColumns := engine.ColumnsByName([]string{"variant", "workload", "unlimited", "seed", "cycles_per_txn"})
	trafficColumns := engine.ColumnsByName([]string{"variant", "workload", "seed",
		"bytes_per_miss_reissue", "bytes_per_miss_request", "bytes_per_miss_control", "bytes_per_miss_data", "bytes_per_miss"})
	return []Experiment{
		{
			Name: "table2",
			Plan: perWorkload([]engine.Variant{
				{Name: "tokenb-torus", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
			}),
			Columns: engine.ColumnsByName([]string{"workload", "seed", "misses", "reissued_pct", "persistent_pct"}),
			Print:   printTable2,
		},
		{
			// Snooping-on-torus is impossible (no total order), exactly as
			// the paper's "not applicable" bar.
			Name: "fig4a",
			Plan: perWorkload([]engine.Variant{
				{Name: "tokenb-tree", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTree}},
				{Name: "snooping-tree", Point: engine.Point{Protocol: engine.ProtoSnooping, Topo: engine.TopoTree}},
				{Name: "tokenb-torus", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
			}, false, true),
			Columns: runtimeColumns,
			Print:   runtimePrinter("Figure 4a: runtime, Snooping vs TokenB (normalized to snooping-tree)", "snooping-tree"),
		},
		{
			Name: "fig4b",
			Plan: perWorkload([]engine.Variant{
				{Name: "tokenb", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTree}},
				{Name: "snooping", Point: engine.Point{Protocol: engine.ProtoSnooping, Topo: engine.TopoTree}},
			}),
			Columns: trafficColumns,
			Print:   trafficPrinter("Figure 4b: traffic, Snooping vs TokenB (tree, bytes/miss)"),
		},
		{
			// Includes the directory-access-latency effect (directory-perfect).
			Name: "fig5a",
			Plan: perWorkload([]engine.Variant{
				{Name: "tokenb", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
				{Name: "hammer", Point: engine.Point{Protocol: engine.ProtoHammer, Topo: engine.TopoTorus}},
				{Name: "directory", Point: engine.Point{Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus}},
				{Name: "directory-perfect", Point: engine.Point{Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus, PerfectDir: true}},
			}, false, true),
			Columns: runtimeColumns,
			Print:   runtimePrinter("Figure 5a: runtime, Directory & Hammer vs TokenB (normalized to tokenb)", "tokenb"),
		},
		{
			Name: "fig5b",
			Plan: perWorkload([]engine.Variant{
				{Name: "tokenb", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
				{Name: "hammer", Point: engine.Point{Protocol: engine.ProtoHammer, Topo: engine.TopoTorus}},
				{Name: "directory", Point: engine.Point{Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus}},
			}),
			Columns: trafficColumns,
			Print:   trafficPrinter("Figure 5b: traffic, Directory & Hammer vs TokenB (torus, bytes/miss)"),
		},
		{
			Name:    "scaling",
			Plan:    scalingPlan,
			Columns: engine.ColumnsByName([]string{"variant", "procs", "seed", "bytes_per_miss", "cycles_per_txn"}),
			Print:   printScaling,
		},
		{
			Name: "bandwidth", Plan: bandwidthPlan, Ops: 2000, Warmup: 5000,
			Columns: []engine.Column{engine.ColProtocol, engine.TagColumn("bandwidth_gbps"),
				engine.ColCyclesPerTxn, engine.ColAvgMissNS, engine.ColBytesPerMiss},
		},
		{
			Name: "procs", Plan: procsPlan, Ops: 2000, Warmup: 5000,
			Columns: []engine.Column{engine.ColProtocol, engine.ColProcs, engine.ColCyclesPerTxn, engine.ColBytesPerMiss},
		},
		{
			Name: "tokens", Plan: tokensPlan, Ops: 2000, Warmup: 5000,
			Columns: []engine.Column{engine.TagColumn("tokens_per_block"),
				engine.ColCyclesPerTxn, engine.ColReissuedPct, engine.ColPersistentPct},
		},
		{
			Name: "mshr", Plan: mshrPlan, Ops: 2000, Warmup: 5000,
			Columns: []engine.Column{engine.TagColumn("mshrs"), engine.TagColumn("max_loads"),
				engine.ColCyclesPerTxn, engine.ColAvgMissNS},
		},
	}
}

// Experiments lists the catalogue's names in order.
func Experiments() []string {
	var out []string
	for _, e := range Catalogue() {
		out = append(out, e.Name)
	}
	return out
}

// Lookup returns the named catalogue entry.
func Lookup(name string) (Experiment, error) {
	for _, e := range Catalogue() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(Experiments(), ", "))
}

// Run executes the named experiment on the options' worker pool and
// collapses its seed axis into the per-cell aggregates its printer
// reads.
func Run(name string, opt Options) (*engine.AggregateSink, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	var agg engine.AggregateSink
	if err := e.run(e.Defaults(opt), &agg); err != nil {
		return nil, err
	}
	return &agg, nil
}

// RunExperiment runs one experiment by name and prints its table to w,
// or for a parameter sweep its CSV rows.
func RunExperiment(w io.Writer, name string, opt Options) error {
	e, err := Lookup(name)
	if err != nil {
		return err
	}
	opt = e.Defaults(opt)
	if e.Print == nil {
		return e.run(opt, &engine.CSVSink{W: w, Columns: e.Columns})
	}
	var agg engine.AggregateSink
	if err := e.run(opt, &agg); err != nil {
		return err
	}
	e.Print(w, &agg, opt)
	return nil
}

func (e Experiment) run(opt Options, sink engine.Sink) error {
	_, err := engine.Engine{Workers: opt.Parallel}.Execute(context.Background(), e.Plan(opt), sink)
	return err
}

// perWorkload measures every variant on every registered workload,
// with the given bandwidth axis (none keeps limited links).
func perWorkload(variants []engine.Variant, unlimited ...bool) func(Options) engine.Plan {
	return func(opt Options) engine.Plan {
		plan := opt.Plan(variants)
		plan.Workloads = registry.WorkloadNames()
		plan.Unlimited = unlimited
		return plan
	}
}

// --- Table 2: overhead due to reissued requests ------------------------

// printTable2 classifies each workload's TokenB misses as the paper's
// Table 2 does (percent of misses), with the average row.
func printTable2(w io.Writer, agg *engine.AggregateSink, _ Options) {
	fmt.Fprintln(w, "Table 2: Overhead due to reissued requests (TokenB, torus)")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "Workload", "NotReissued", "Once", ">Once", "Persistent")
	var sum [4]float64
	cells := agg.Cells()
	for _, cell := range cells {
		m := cell.SumMisses()
		f := [4]float64{m.Frac(m.NotReissued()), m.Frac(m.ReissuedOnce), m.Frac(m.ReissuedMore), m.Frac(m.Persistent)}
		fmt.Fprintf(w, "%-10s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n", cell.Workload, f[0], f[1], f[2], f[3])
		for i := range sum {
			sum[i] += f[i]
		}
	}
	if n := float64(len(cells)); n > 0 {
		fmt.Fprintf(w, "%-10s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n",
			"Average", sum[0]/n, sum[1]/n, sum[2]/n, sum[3]/n)
	}
}

// --- Runtime figures (4a and 5a) ----------------------------------------

// runtimePrinter formats cycles per transaction with limited and
// unlimited bandwidth, normalized per workload to the baseline
// variant's limited-bandwidth runtime (the paper normalizes each
// workload's group).
func runtimePrinter(title, baseline string) func(io.Writer, *engine.AggregateSink, Options) {
	return func(w io.Writer, agg *engine.AggregateSink, _ Options) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-10s %-18s %14s %14s %11s %11s\n",
			"Workload", "Config", "cyc/txn", "cyc/txn(inf)", "norm", "norm(inf)")
		for _, lim := range agg.Cells() {
			if lim.Unlimited {
				continue
			}
			cyc := lim.MeanCyclesPerTxn()
			cycInf := agg.Find(lim.Variant, lim.Workload, "", true).MeanCyclesPerTxn()
			norm, normInf := 0.0, 0.0
			if v := agg.Find(baseline, lim.Workload, "", false).MeanCyclesPerTxn(); v > 0 {
				norm = cyc / v
				normInf = cycInf / v
			}
			fmt.Fprintf(w, "%-10s %-18s %14.1f %14.1f %11.3f %11.3f\n",
				lim.Workload, lim.Variant, cyc, cycInf, norm, normInf)
		}
	}
}

// --- Traffic figures (4b and 5b) ----------------------------------------

// trafficPrinter formats bytes per miss with the paper's category
// breakdown.
func trafficPrinter(title string) func(io.Writer, *engine.AggregateSink, Options) {
	return func(w io.Writer, agg *engine.AggregateSink, _ Options) {
		fmt.Fprintln(w, title)
		fmt.Fprintf(w, "%-10s %-12s %10s %10s %10s %10s %10s\n",
			"Workload", "Config", "reissue+p", "requests", "control", "data", "total")
		for _, c := range agg.Cells() {
			fmt.Fprintf(w, "%-10s %-12s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
				c.Workload, c.Variant,
				c.MeanCategoryBytesPerMiss(msg.CatReissue), c.MeanCategoryBytesPerMiss(msg.CatRequest),
				c.MeanCategoryBytesPerMiss(msg.CatControl), c.MeanCategoryBytesPerMiss(msg.CatData),
				c.MeanBytesPerMiss())
		}
	}
}

// --- Scalability (question 5) and the procs sweep -------------------------

// uniformVariant runs proto on topo at procs processors over the
// uniform-sharing microbenchmark, named "proto-<procs>p". The generator
// is built fresh per job, so the grid stays race-free and deterministic
// under parallelism.
func uniformVariant(proto, topo string, procs int) engine.Variant {
	return engine.Variant{
		Name: fmt.Sprintf("%s-%dp", proto, procs),
		Point: engine.Point{
			Protocol: proto, Topo: topo, Procs: procs,
			NewGen: func(n int) machine.Generator {
				return workload.NewUniform(2048, 0.3, 5*sim.Nanosecond, n)
			},
			// GenID names the closure's content so the point stays
			// cacheable (engine.PointKey); it must change whenever the
			// NewUniform arguments above do.
			GenID: "uniform/blocks=2048/pwrite=0.3/think=5ns",
		},
	}
}

// SizeCell returns the scaling or procs cell of proto at procs
// processors.
func SizeCell(agg *engine.AggregateSink, proto string, procs int) *engine.Aggregate {
	return agg.Find(fmt.Sprintf("%s-%dp", proto, procs), "", "", false)
}

// TrafficRatio is TokenB's over Directory's bytes per miss at procs
// processors — the paper's ~2x at 64 — or zero without Directory
// traffic.
func TrafficRatio(agg *engine.AggregateSink, procs int) float64 {
	if dir := SizeCell(agg, engine.ProtoDirectory, procs).MeanBytesPerMiss(); dir > 0 {
		return SizeCell(agg, engine.ProtoTokenB, procs).MeanBytesPerMiss() / dir
	}
	return 0
}

// scalingConfigs are the protocol/fabric pairs the scalability study
// sweeps across system sizes: the paper's TokenB-vs-Directory torus
// comparison, extended with Hammer on the torus and the traditional
// snooping baseline on the multi-level ordered tree (possible beyond 16
// processors now that the tree is un-capped).
var scalingConfigs = []struct{ proto, topo string }{
	{engine.ProtoTokenB, engine.TopoTorus},
	{engine.ProtoDirectory, engine.TopoTorus},
	{engine.ProtoHammer, engine.TopoTorus},
	{engine.ProtoSnooping, engine.TopoTree},
	{engine.ProtoDir2, engine.TopoTorus},
	{engine.ProtoRegionFilter, engine.TopoTorus},
}

// scalingPlan runs the uniform-sharing microbenchmark from 4 to
// MaxProcs processors (paper §6 question 5: at 64 processors TokenB
// uses roughly twice Directory's interconnect bandwidth). MaxProcs may
// extend to 256.
func scalingPlan(opt Options) engine.Plan {
	var variants []engine.Variant
	for _, procs := range opt.sizes() {
		for _, cfg := range scalingConfigs {
			variants = append(variants, uniformVariant(cfg.proto, cfg.topo, procs))
		}
	}
	plan := opt.Plan(variants)
	plan.Procs = 0 // the system size is the swept axis; keep per-variant Procs
	return plan
}

// printScaling formats bytes per miss per configuration at each system
// size, with the TokenB/Directory traffic ratio and the
// Directory/TokenB runtime ratio.
func printScaling(w io.Writer, agg *engine.AggregateSink, opt Options) {
	fmt.Fprintln(w, "Scalability microbenchmark (question 5): TokenB vs Directory vs Hammer vs Dir2 vs RegionFilter (torus), Snooping (tree)")
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s %14s %14s %14s %16s\n",
		"procs", "tokenB B/miss", "dir B/miss", "hammer B/miss", "snoop B/miss", "dir2 B/miss", "region B/miss", "traffic ratio", "dir/tokenB time")
	for _, procs := range opt.sizes() {
		bytes := func(proto string) float64 { return SizeCell(agg, proto, procs).MeanBytesPerMiss() }
		runtime := 0.0
		if tb := SizeCell(agg, engine.ProtoTokenB, procs).MeanCyclesPerTxn(); tb > 0 {
			runtime = SizeCell(agg, engine.ProtoDirectory, procs).MeanCyclesPerTxn() / tb
		}
		fmt.Fprintf(w, "%6d %14.1f %14.1f %14.1f %14.1f %14.1f %14.1f %14.2f %16.2f\n",
			procs, bytes(engine.ProtoTokenB), bytes(engine.ProtoDirectory), bytes(engine.ProtoHammer),
			bytes(engine.ProtoSnooping), bytes(engine.ProtoDir2), bytes(engine.ProtoRegionFilter),
			TrafficRatio(agg, procs), runtime)
	}
}

// procsPlan extends the question 5 scalability study with runtime:
// TokenB and Directory on the torus at every size.
func procsPlan(opt Options) engine.Plan {
	var variants []engine.Variant
	for _, proto := range []string{engine.ProtoTokenB, engine.ProtoDirectory} {
		for _, procs := range opt.sizes() {
			variants = append(variants, uniformVariant(proto, engine.TopoTorus, procs))
		}
	}
	plan := opt.Plan(variants)
	plan.Procs = 0
	return plan
}

// --- Parameter sweeps -----------------------------------------------------

// sweepPlan runs TokenB (plus any extra protocols) on the torus over the
// options' workload and the given mutation axis.
func sweepPlan(opt Options, muts []engine.Mutation, protocols ...string) engine.Plan {
	plan := opt.Plan(engine.Grid(append([]string{engine.ProtoTokenB}, protocols...), []string{engine.TopoTorus}))
	plan.Workloads = []string{opt.Workload}
	plan.Mutations = muts
	return plan
}

// bandwidthPlan shows where each protocol becomes bandwidth-bound: the
// paper argues TokenB's extra traffic is harmless on high-bandwidth
// links but matters on starved ones.
func bandwidthPlan(opt Options) engine.Plan {
	var muts []engine.Mutation
	for _, gbps := range []float64{0.4, 0.8, 1.6, 3.2, 6.4, 12.8} {
		muts = append(muts, engine.Mutation{
			Name:  fmt.Sprintf("%.1fgbps", gbps),
			Tags:  map[string]string{"bandwidth_gbps": fmt.Sprintf("%.1f", gbps)},
			Apply: func(c *machine.Config) { c.Net.LinkBandwidth = gbps * 1e9 },
		})
	}
	return sweepPlan(opt, muts, engine.ProtoDirectory, engine.ProtoHammer)
}

// tokensPlan varies T per block for TokenB.
func tokensPlan(opt Options) engine.Plan {
	var muts []engine.Mutation
	for _, tokens := range []int{16, 24, 32, 64, 128, 256} {
		muts = append(muts, engine.Mutation{
			Name:  fmt.Sprintf("T=%d", tokens),
			Tags:  map[string]string{"tokens_per_block": fmt.Sprintf("%d", tokens)},
			Apply: func(c *machine.Config) { c.TokensPerBlock = tokens },
		})
	}
	return sweepPlan(opt, muts)
}

// mshrPlan varies the processor's miss- and load-level parallelism.
func mshrPlan(opt Options) engine.Plan {
	var muts []engine.Mutation
	for _, mshrs := range []int{2, 4, 8, 16} {
		for _, loads := range []int{1, 2, 4} {
			muts = append(muts, engine.Mutation{
				Name: fmt.Sprintf("mshr=%d/loads=%d", mshrs, loads),
				Tags: map[string]string{
					"mshrs":     fmt.Sprintf("%d", mshrs),
					"max_loads": fmt.Sprintf("%d", loads),
				},
				Apply: func(c *machine.Config) {
					c.MSHRs = mshrs
					c.MaxLoads = loads
				},
			})
		}
	}
	return sweepPlan(opt, muts)
}
