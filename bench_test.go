// Benchmarks that regenerate every table and figure of the paper's
// evaluation (reduced problem sizes; use cmd/tokensim for full-size
// runs) plus ablation studies over the design choices DESIGN.md calls
// out. Custom metrics are attached with b.ReportMetric so `go test
// -bench=.` prints the quantities the paper reports next to the usual
// ns/op.
package tokencoherence

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/harness"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/workload"
)

// benchOpt keeps one benchmark iteration around a hundred milliseconds.
func benchOpt() harness.Options {
	return harness.Options{Ops: 800, Warmup: 2500, Seeds: []uint64{1}}
}

// benchPoint builds a reduced-size point.
func benchPoint(proto, topo, wl string, seed uint64) engine.Point {
	return engine.Point{
		Protocol: proto, Topo: topo, Workload: wl,
		Ops: 800, Warmup: 2500, Seed: seed,
	}
}

// BenchmarkTable2 regenerates Table 2: the fraction of TokenB misses
// that are reissued or escalate to persistent requests.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agg := runExperiment(b, "table2", benchOpt())
		cells := agg.Cells()
		var once, pers float64
		for _, c := range cells {
			m := c.SumMisses()
			once += m.Frac(m.ReissuedOnce) / float64(len(cells))
			pers += m.Frac(m.Persistent) / float64(len(cells))
		}
		b.ReportMetric(once, "%reissued-once")
		b.ReportMetric(pers, "%persistent")
	}
}

// BenchmarkFig4a regenerates Figure 4a: Snooping (tree) vs TokenB (tree
// and torus) runtime. The reported metric is TokenB-torus runtime
// normalized to Snooping-tree (the paper: 0.74-0.85 with unlimited
// bandwidth, lower with limited).
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agg := runExperiment(b, "fig4a", benchOpt())
		b.ReportMetric(normalizedMean(agg, "tokenb-torus", "snooping-tree"), "tokenb-torus/snooping-tree")
	}
}

// BenchmarkFig4b regenerates Figure 4b: TokenB vs Snooping traffic on
// the tree (the paper: approximately equal).
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		totals := trafficTotals(runExperiment(b, "fig4b", benchOpt()))
		b.ReportMetric(totals["tokenb"]/totals["snooping"], "traffic-ratio")
	}
}

// BenchmarkFig5a regenerates Figure 5a: TokenB vs Hammer vs Directory
// runtime on the torus (the paper: TokenB 17-54% faster than Directory,
// 8-29% faster than Hammer).
func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agg := runExperiment(b, "fig5a", benchOpt())
		b.ReportMetric(normalizedMean(agg, "directory", "tokenb"), "directory/tokenb")
		b.ReportMetric(normalizedMean(agg, "hammer", "tokenb"), "hammer/tokenb")
	}
}

// BenchmarkFig5b regenerates Figure 5b: traffic on the torus (the
// paper: Hammer 1.79-1.90x TokenB; Directory 0.75-0.79x TokenB).
func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		totals := trafficTotals(runExperiment(b, "fig5b", benchOpt()))
		b.ReportMetric(totals["hammer"]/totals["tokenb"], "hammer/tokenb")
		b.ReportMetric(totals["directory"]/totals["tokenb"], "directory/tokenb")
	}
}

// BenchmarkScaling regenerates the §6 question 5 microbenchmark: TokenB
// vs Directory traffic from 4 to 64 processors (the paper: roughly 2x
// at 64).
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agg := runExperiment(b, "scaling", harness.Options{Ops: 500, Warmup: 1200, MaxProcs: 64})
		for procs := 4; procs <= 64; procs *= 2 {
			b.ReportMetric(harness.TrafficRatio(agg, procs), fmt.Sprintf("ratio@%dp", procs))
		}
	}
}

// runExperiment runs a catalogue experiment into its per-cell
// aggregates.
func runExperiment(b *testing.B, name string, opt harness.Options) *engine.AggregateSink {
	agg, err := harness.Run(name, opt)
	if err != nil {
		b.Fatal(err)
	}
	return agg
}

// normalizedMean averages cfg's limited-bandwidth runtime normalized to
// base per workload.
func normalizedMean(agg *engine.AggregateSink, cfg, base string) float64 {
	var sum float64
	var n int
	for _, c := range agg.Cells() {
		if c.Variant != cfg || c.Unlimited {
			continue
		}
		if v := agg.Find(base, c.Workload, "", false).MeanCyclesPerTxn(); v > 0 {
			sum += c.MeanCyclesPerTxn() / v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// trafficTotals sums bytes per miss over workloads, per variant.
func trafficTotals(agg *engine.AggregateSink) map[string]float64 {
	totals := map[string]float64{}
	for _, c := range agg.Cells() {
		totals[c.Variant] += c.MeanBytesPerMiss()
	}
	return totals
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationTokenCount varies T, the tokens per block (DESIGN.md
// decision 3). More tokens allow more concurrent readers per block but
// cost nothing on this metric scale; fewer than Procs is illegal.
func BenchmarkAblationTokenCount(b *testing.B) {
	for _, tokens := range []int{16, 32, 64, 128} {
		tokens := tokens
		b.Run(fmt.Sprintf("T=%d", tokens), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt := benchPoint(engine.ProtoTokenB, engine.TopoTorus, "oltp", 1)
				pt.Mutate = func(c *machine.Config) { c.TokensPerBlock = tokens }
				run, err := engine.RunPoint(pt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.CyclesPerTransaction(), "cyc/txn")
			}
		})
	}
}

// BenchmarkAblationReissuePolicy varies the reissue policy (DESIGN.md
// decision 4): how many reissues before a persistent request, and the
// timeout multiplier.
func BenchmarkAblationReissuePolicy(b *testing.B) {
	cases := []struct {
		name        string
		maxReissues int
		factor      int
	}{
		{"persistent-immediately", 0, 2},
		{"one-reissue", 1, 2},
		{"paper-4-reissues", 4, 2},
		{"aggressive-timeout", 4, 1},
		{"patient-timeout", 4, 4},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt := benchPoint(engine.ProtoTokenB, engine.TopoTorus, "apache", 1)
				pt.Mutate = func(cfg *machine.Config) {
					cfg.MaxReissues = c.maxReissues
					cfg.BackoffFactor = c.factor
				}
				run, err := engine.RunPoint(pt)
				if err != nil {
					b.Fatal(err)
				}
				m := run.Misses
				b.ReportMetric(run.CyclesPerTransaction(), "cyc/txn")
				b.ReportMetric(m.Frac(m.ReissuedOnce+m.ReissuedMore), "%reissued")
				b.ReportMetric(m.Frac(m.Persistent), "%persistent")
			}
		})
	}
}

// BenchmarkAblationMigratory toggles the migratory-sharing optimization
// (DESIGN.md decision 5) for TokenB on the migratory-heavy OLTP
// workload.
func BenchmarkAblationMigratory(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		enabled := enabled
		b.Run(fmt.Sprintf("migratory=%v", enabled), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt := benchPoint(engine.ProtoTokenB, engine.TopoTorus, "oltp", 1)
				pt.Mutate = func(c *machine.Config) { c.Migratory = enabled }
				run, err := engine.RunPoint(pt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.CyclesPerTransaction(), "cyc/txn")
				b.ReportMetric(float64(run.Misses.Issued), "misses")
			}
		})
	}
}

// BenchmarkAblationProcessorMLP varies the processor's outstanding-load
// bound, which controls how much miss latency is exposed.
func BenchmarkAblationProcessorMLP(b *testing.B) {
	for _, loads := range []int{1, 2, 4, 16} {
		loads := loads
		b.Run(fmt.Sprintf("maxloads=%d", loads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt := benchPoint(engine.ProtoTokenB, engine.TopoTorus, "apache", 1)
				pt.Mutate = func(c *machine.Config) { c.MaxLoads = loads }
				run, err := engine.RunPoint(pt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.CyclesPerTransaction(), "cyc/txn")
			}
		})
	}
}

// BenchmarkAblationPerformancePolicy compares the three performance
// protocols on the same substrate (paper §7).
func BenchmarkAblationPerformancePolicy(b *testing.B) {
	for _, proto := range []string{engine.ProtoTokenB, engine.ProtoTokenM, engine.ProtoTokenD} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := engine.RunPoint(benchPoint(proto, engine.TopoTorus, "specjbb", 1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.CyclesPerTransaction(), "cyc/txn")
				b.ReportMetric(run.BytesPerMiss(), "B/miss")
			}
		})
	}
}

// BenchmarkEngineParallel measures the experiment-execution engine on a
// small protocol x seed grid at parallelism 1 vs GOMAXPROCS. On a
// multi-core host the parallel variant's ns/op drops roughly linearly
// with the core count (each grid point is an independent simulation);
// the outputs are identical either way.
func BenchmarkEngineParallel(b *testing.B) {
	plan := engine.Plan{
		Variants: engine.Grid(
			[]string{engine.ProtoTokenB, engine.ProtoDirectory, engine.ProtoHammer},
			[]string{engine.TopoTorus}),
		Workloads: []string{"oltp"},
		Seeds:     []uint64{1, 2},
		Ops:       400,
		Warmup:    1000,
		Procs:     8,
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=max-%d", runtime.GOMAXPROCS(0)), 0},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			eng := engine.Engine{Workers: bc.workers}
			for i := 0; i < b.N; i++ {
				results, err := eng.Execute(context.Background(), plan)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(results)), "points/iter")
			}
		})
	}
}

// --- Microbenchmarks of the substrate -----------------------------------

// BenchmarkSimulatePoint measures one end-to-end simulation point per
// protocol: wall time and allocations for a fixed reduced-size run.
// This is the benchmark the CI regression harness tracks (see
// BENCH.json): the hot path through kernel, interconnect,
// machine, and protocol must stay allocation-lean.
func BenchmarkSimulatePoint(b *testing.B) {
	cases := []struct {
		proto, topo string
	}{
		{engine.ProtoTokenB, engine.TopoTorus},
		{engine.ProtoTokenD, engine.TopoTorus},
		{engine.ProtoTokenM, engine.TopoTorus},
		{engine.ProtoSnooping, engine.TopoTree},
		{engine.ProtoDirectory, engine.TopoTorus},
		{engine.ProtoHammer, engine.TopoTorus},
		{engine.ProtoDir2, engine.TopoTorus},
		{engine.ProtoRegionFilter, engine.TopoTorus},
	}
	for _, c := range cases {
		c := c
		b.Run(c.proto, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run, err := engine.RunPoint(benchPoint(c.proto, c.topo, "oltp", 1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(run.Accesses), "ops/iter")
			}
		})
	}
}

// BenchmarkSimulatePointIslands measures one 64-processor TokenB point
// under the conservative-parallel island kernel at increasing island
// counts. The output is byte-identical at every count (see
// internal/engine/island_test.go); what varies is wall time —
// proportional to available cores — and a small, deterministic
// allocation overhead for per-island kernels, stat shards, and barrier
// queues, which BENCH.json gates. On a single-core host the
// barrier overhead buys nothing, so expect no speedup there.
func BenchmarkSimulatePointIslands(b *testing.B) {
	for _, islands := range []int{1, 2, 4} {
		islands := islands
		b.Run(fmt.Sprintf("islands%d", islands), func(b *testing.B) {
			b.ReportAllocs()
			pt := benchPoint(engine.ProtoTokenB, engine.TopoTorus, "oltp", 1)
			pt.Procs = 64
			pt.Ops = 200
			pt.Warmup = 600
			pt.Islands = islands
			for i := 0; i < b.N; i++ {
				run, err := engine.RunPoint(pt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(run.Accesses), "ops/iter")
			}
		})
	}
}

// BenchmarkSimKernel measures raw event throughput of the DES kernel.
func BenchmarkSimKernel(b *testing.B) {
	k := sim.NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			k.After(sim.Nanosecond, tick)
		}
	}
	b.ResetTimer()
	k.After(0, tick)
	k.Run()
}

// BenchmarkUniformTokenB measures end-to-end simulation speed: simulated
// operations per host second for the uniform microbenchmark.
func BenchmarkUniformTokenB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt := engine.Point{
			Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus,
			Gen: workload.NewUniform(1024, 0.3, 6*sim.Nanosecond, 16),
			Ops: 2000, Warmup: 0, Seed: 1,
		}
		run, err := engine.RunPoint(pt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Accesses), "ops/iter")
	}
}
