package harness

import (
	"context"
	"fmt"
	"io"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/workload"
)

// runAggregate executes a plan on the options' worker pool and collapses
// the seed axis into per-cell aggregates.
func runAggregate(plan engine.Plan, opt Options) (*engine.AggregateSink, error) {
	var agg engine.AggregateSink
	if _, err := opt.engine().Execute(context.Background(), plan, &agg); err != nil {
		return nil, err
	}
	return &agg, nil
}

// --- Table 2: overhead due to reissued requests ------------------------

// Table2Row is one workload's miss classification (percent of misses).
type Table2Row struct {
	Workload     string
	NotReissued  float64
	ReissuedOnce float64
	ReissuedMore float64
	Persistent   float64
}

// Table2 runs TokenB on the torus for each registered workload and
// classifies misses as the paper's Table 2 does.
func Table2(opt Options) ([]Table2Row, error) {
	plan := opt.plan([]engine.Variant{
		{Name: "tokenb-torus", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
	})
	plan.Workloads = registry.WorkloadNames()
	agg, err := runAggregate(plan, opt)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, cell := range agg.Cells() {
		m := cell.SumMisses()
		rows = append(rows, Table2Row{
			Workload:     cell.Workload,
			NotReissued:  m.Frac(m.NotReissued()),
			ReissuedOnce: m.Frac(m.ReissuedOnce),
			ReissuedMore: m.Frac(m.ReissuedMore),
			Persistent:   m.Frac(m.Persistent),
		})
	}
	return rows, nil
}

// PrintTable2 formats rows like the paper's Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: Overhead due to reissued requests (TokenB, torus)")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "Workload", "NotReissued", "Once", ">Once", "Persistent")
	var avg Table2Row
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n",
			r.Workload, r.NotReissued, r.ReissuedOnce, r.ReissuedMore, r.Persistent)
		avg.NotReissued += r.NotReissued
		avg.ReissuedOnce += r.ReissuedOnce
		avg.ReissuedMore += r.ReissuedMore
		avg.Persistent += r.Persistent
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(w, "%-10s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n",
			"Average", avg.NotReissued/n, avg.ReissuedOnce/n, avg.ReissuedMore/n, avg.Persistent/n)
	}
}

// --- Runtime figures (4a and 5a) ----------------------------------------

// RuntimeBar is one bar of a runtime figure: cycles per transaction for
// a (workload, configuration) pair, with the unlimited-bandwidth value.
type RuntimeBar struct {
	Workload  string
	Config    string
	Cycles    float64 // limited bandwidth
	CyclesInf float64 // unlimited bandwidth
}

// runtimeBars measures every variant on every registered workload with
// limited and unlimited bandwidth, averaged over seeds.
func runtimeBars(variants []engine.Variant, opt Options) ([]RuntimeBar, error) {
	plan := opt.plan(variants)
	plan.Workloads = registry.WorkloadNames()
	plan.Unlimited = []bool{false, true}
	agg, err := runAggregate(plan, opt)
	if err != nil {
		return nil, err
	}
	var bars []RuntimeBar
	for _, name := range registry.WorkloadNames() {
		for _, v := range variants {
			lim := agg.Find(v.Name, name, "", false)
			inf := agg.Find(v.Name, name, "", true)
			bars = append(bars, RuntimeBar{
				Workload:  name,
				Config:    v.Name,
				Cycles:    lim.MeanCyclesPerTxn(),
				CyclesInf: inf.MeanCyclesPerTxn(),
			})
		}
	}
	return bars, nil
}

// Fig4a compares Snooping on the tree against TokenB on both fabrics
// (paper Figure 4a). Snooping-on-torus is impossible (no total order),
// exactly as the paper's "not applicable" bar.
func Fig4a(opt Options) ([]RuntimeBar, error) {
	return runtimeBars([]engine.Variant{
		{Name: "tokenb-tree", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTree}},
		{Name: "snooping-tree", Point: engine.Point{Protocol: engine.ProtoSnooping, Topo: engine.TopoTree}},
		{Name: "tokenb-torus", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
	}, opt)
}

// Fig5a compares TokenB, Hammer and Directory on the torus (paper
// Figure 5a), including the directory-access-latency effect.
func Fig5a(opt Options) ([]RuntimeBar, error) {
	return runtimeBars([]engine.Variant{
		{Name: "tokenb", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
		{Name: "hammer", Point: engine.Point{Protocol: engine.ProtoHammer, Topo: engine.TopoTorus}},
		{Name: "directory", Point: engine.Point{Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus}},
		{Name: "directory-perfect", Point: engine.Point{Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus, PerfectDir: true}},
	}, opt)
}

// PrintRuntime formats runtime bars normalized per workload to the named
// baseline configuration (the paper normalizes each workload's group).
func PrintRuntime(w io.Writer, title, baseline string, bars []RuntimeBar) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %11s %11s\n",
		"Workload", "Config", "cyc/txn", "cyc/txn(inf)", "norm", "norm(inf)")
	base := map[string]float64{}
	for _, b := range bars {
		if b.Config == baseline {
			base[b.Workload] = b.Cycles
		}
	}
	for _, b := range bars {
		norm, normInf := 0.0, 0.0
		if v := base[b.Workload]; v > 0 {
			norm = b.Cycles / v
			normInf = b.CyclesInf / v
		}
		fmt.Fprintf(w, "%-10s %-18s %14.1f %14.1f %11.3f %11.3f\n",
			b.Workload, b.Config, b.Cycles, b.CyclesInf, norm, normInf)
	}
}

// --- Traffic figures (4b and 5b) ----------------------------------------

// TrafficBar is one traffic bar: bytes per miss by category.
type TrafficBar struct {
	Workload string
	Config   string
	// PerCategory is indexed by msg.Category.
	PerCategory [msg.NumCategories]float64
	Total       float64
}

// trafficBars measures every variant's traffic on every registered
// workload, averaged over seeds.
func trafficBars(variants []engine.Variant, opt Options) ([]TrafficBar, error) {
	plan := opt.plan(variants)
	plan.Workloads = registry.WorkloadNames()
	agg, err := runAggregate(plan, opt)
	if err != nil {
		return nil, err
	}
	var bars []TrafficBar
	for _, name := range registry.WorkloadNames() {
		for _, v := range variants {
			cell := agg.Find(v.Name, name, "", false)
			bar := TrafficBar{Workload: name, Config: v.Name, Total: cell.MeanBytesPerMiss()}
			for c := 0; c < msg.NumCategories; c++ {
				bar.PerCategory[c] = cell.MeanCategoryBytesPerMiss(msg.Category(c))
			}
			bars = append(bars, bar)
		}
	}
	return bars, nil
}

// Fig4b compares TokenB and Snooping traffic on the tree (paper
// Figure 4b).
func Fig4b(opt Options) ([]TrafficBar, error) {
	return trafficBars([]engine.Variant{
		{Name: "tokenb", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTree}},
		{Name: "snooping", Point: engine.Point{Protocol: engine.ProtoSnooping, Topo: engine.TopoTree}},
	}, opt)
}

// Fig5b compares TokenB, Hammer and Directory traffic on the torus
// (paper Figure 5b).
func Fig5b(opt Options) ([]TrafficBar, error) {
	return trafficBars([]engine.Variant{
		{Name: "tokenb", Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus}},
		{Name: "hammer", Point: engine.Point{Protocol: engine.ProtoHammer, Topo: engine.TopoTorus}},
		{Name: "directory", Point: engine.Point{Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus}},
	}, opt)
}

// PrintTraffic formats traffic bars with the paper's category breakdown.
func PrintTraffic(w io.Writer, title string, bars []TrafficBar) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s %-12s %10s %10s %10s %10s %10s\n",
		"Workload", "Config", "reissue+p", "requests", "control", "data", "total")
	for _, b := range bars {
		fmt.Fprintf(w, "%-10s %-12s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			b.Workload, b.Config,
			b.PerCategory[msg.CatReissue], b.PerCategory[msg.CatRequest],
			b.PerCategory[msg.CatControl], b.PerCategory[msg.CatData], b.Total)
	}
}

// --- Scalability (question 5) -------------------------------------------

// ScalingRow reports traffic per miss and runtime at one system size,
// for TokenB, Directory, Hammer and the two hierarchical protocols on
// the torus plus the traditional snooping baseline on the ordered
// broadcast tree.
type ScalingRow struct {
	Procs int

	// Bytes per miss, per configuration.
	TokenBPerMiss float64
	DirPerMiss    float64
	HammerPerMiss float64
	SnoopPerMiss  float64 // snooping on the tree
	Dir2PerMiss   float64 // two-level directory over torus rows
	RegionPerMiss float64 // region-filtered token broadcast

	// Cycles per transaction, per configuration.
	TokenBCycles float64
	DirectoryCyc float64
	HammerCycles float64
	SnoopCycles  float64 // snooping on the tree
	Dir2Cycles   float64
	RegionCycles float64

	// TrafficRatio is TokenB/Directory bytes per miss (the paper's ~2x
	// at 64 processors); RuntimeRatioTB is Directory/TokenB runtime.
	TrafficRatio   float64
	RuntimeRatioTB float64
}

// uniformGen builds a fresh uniform-sharing microbenchmark generator per
// job, so the grid stays race-free and deterministic under parallelism.
func uniformGen(procs int) machine.Generator {
	return workload.NewUniform(2048, 0.3, 5*sim.Nanosecond, procs)
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

// Scaling runs the uniform-sharing microbenchmark from 4 to maxProcs
// processors (paper §6 question 5: at 64 processors TokenB uses roughly
// twice Directory's interconnect bandwidth). maxProcs may extend to 256;
// zero defaults to the options' MaxProcs (64 when unset).
func Scaling(opt Options, maxProcs int) ([]ScalingRow, error) {
	if maxProcs == 0 {
		maxProcs = opt.maxProcs()
	}
	var sizes []int
	var variants []engine.Variant
	for procs := 4; procs <= maxProcs; procs *= 2 {
		sizes = append(sizes, procs)
		for _, cfg := range scalingConfigs {
			variants = append(variants, engine.Variant{
				Name: fmt.Sprintf("%s-%dp", cfg.proto, procs),
				Point: engine.Point{
					Protocol: cfg.proto, Topo: cfg.topo,
					NewGen: uniformGen, Procs: procs,
				},
			})
		}
	}
	plan := opt.plan(variants)
	plan.Procs = 0 // the system size is the swept axis; keep per-variant Procs
	agg, err := runAggregate(plan, opt)
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	for _, procs := range sizes {
		cell := func(proto string) *engine.Aggregate {
			return agg.Find(fmt.Sprintf("%s-%dp", proto, procs), "", "", false)
		}
		tb, dir := cell(engine.ProtoTokenB), cell(engine.ProtoDirectory)
		ham, snp := cell(engine.ProtoHammer), cell(engine.ProtoSnooping)
		d2, rf := cell(engine.ProtoDir2), cell(engine.ProtoRegionFilter)
		row := ScalingRow{
			Procs:         procs,
			TokenBPerMiss: tb.MeanBytesPerMiss(),
			TokenBCycles:  tb.MeanCyclesPerTxn(),
			DirPerMiss:    dir.MeanBytesPerMiss(),
			DirectoryCyc:  dir.MeanCyclesPerTxn(),
			HammerPerMiss: ham.MeanBytesPerMiss(),
			HammerCycles:  ham.MeanCyclesPerTxn(),
			SnoopPerMiss:  snp.MeanBytesPerMiss(),
			SnoopCycles:   snp.MeanCyclesPerTxn(),
			Dir2PerMiss:   d2.MeanBytesPerMiss(),
			Dir2Cycles:    d2.MeanCyclesPerTxn(),
			RegionPerMiss: rf.MeanBytesPerMiss(),
			RegionCycles:  rf.MeanCyclesPerTxn(),
		}
		if row.DirPerMiss > 0 {
			row.TrafficRatio = row.TokenBPerMiss / row.DirPerMiss
		}
		if row.TokenBCycles > 0 {
			row.RuntimeRatioTB = row.DirectoryCyc / row.TokenBCycles
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintScaling formats the scalability study.
func PrintScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Scalability microbenchmark (question 5): TokenB vs Directory vs Hammer vs Dir2 vs RegionFilter (torus), Snooping (tree)")
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s %14s %14s %14s %16s\n",
		"procs", "tokenB B/miss", "dir B/miss", "hammer B/miss", "snoop B/miss", "dir2 B/miss", "region B/miss", "traffic ratio", "dir/tokenB time")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %14.1f %14.1f %14.1f %14.1f %14.1f %14.1f %14.2f %16.2f\n",
			r.Procs, r.TokenBPerMiss, r.DirPerMiss, r.HammerPerMiss, r.SnoopPerMiss,
			r.Dir2PerMiss, r.RegionPerMiss, r.TrafficRatio, r.RuntimeRatioTB)
	}
}

// --- Convenience ---------------------------------------------------------

// experiment is one reproducible paper table or figure: a name plus the
// function that computes it and prints the paper-style rows.
type experiment struct {
	name string
	run  func(w io.Writer, opt Options) error
}

// experiments is the ordered table RunExperiment and Experiments resolve
// through, in the paper's presentation order.
var experiments = []experiment{
	{"table2", func(w io.Writer, opt Options) error {
		rows, err := Table2(opt)
		if err != nil {
			return err
		}
		PrintTable2(w, rows)
		return nil
	}},
	{"fig4a", func(w io.Writer, opt Options) error {
		bars, err := Fig4a(opt)
		if err != nil {
			return err
		}
		PrintRuntime(w, "Figure 4a: runtime, Snooping vs TokenB (normalized to snooping-tree)", "snooping-tree", bars)
		return nil
	}},
	{"fig4b", func(w io.Writer, opt Options) error {
		bars, err := Fig4b(opt)
		if err != nil {
			return err
		}
		PrintTraffic(w, "Figure 4b: traffic, Snooping vs TokenB (tree, bytes/miss)", bars)
		return nil
	}},
	{"fig5a", func(w io.Writer, opt Options) error {
		bars, err := Fig5a(opt)
		if err != nil {
			return err
		}
		PrintRuntime(w, "Figure 5a: runtime, Directory & Hammer vs TokenB (normalized to tokenb)", "tokenb", bars)
		return nil
	}},
	{"fig5b", func(w io.Writer, opt Options) error {
		bars, err := Fig5b(opt)
		if err != nil {
			return err
		}
		PrintTraffic(w, "Figure 5b: traffic, Directory & Hammer vs TokenB (torus, bytes/miss)", bars)
		return nil
	}},
	{"scaling", func(w io.Writer, opt Options) error {
		rows, err := Scaling(opt, 0) // sweeps up to opt.MaxProcs (default 64)
		if err != nil {
			return err
		}
		PrintScaling(w, rows)
		return nil
	}},
}

// Experiments lists the experiment names RunExperiment accepts.
func Experiments() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// RunExperiment runs one experiment by name and prints it to w.
func RunExperiment(w io.Writer, name string, opt Options) error {
	for _, e := range experiments {
		if e.name == name {
			return e.run(w, opt)
		}
	}
	return fmt.Errorf("harness: unknown experiment %q (have %v)", name, Experiments())
}
