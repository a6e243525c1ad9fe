package harness

import (
	"bytes"
	"strings"
	"testing"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/workload"
)

// testOpt keeps experiment tests fast; the shapes asserted below are
// robust at this size.
func testOpt() Options {
	return Options{Ops: 1200, Warmup: 3000, Seeds: []uint64{1}}
}

func testPoint(proto, topo, wl string) engine.Point {
	return engine.Point{Protocol: proto, Topo: topo, Workload: wl, Ops: 1200, Warmup: 3000, Seed: 1}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	if _, _, err := engine.RunPoint(engine.Point{Protocol: "nope", Topo: engine.TopoTorus, Workload: "oltp"}, nil); err == nil {
		t.Error("unknown protocol not rejected")
	}
}

func TestRunRejectsUnknownTopology(t *testing.T) {
	if _, _, err := engine.RunPoint(engine.Point{Protocol: engine.ProtoTokenB, Topo: "ring", Workload: "oltp"}, nil); err == nil {
		t.Error("unknown topology not rejected")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if _, _, err := engine.RunPoint(engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus, Workload: "nope"}, nil); err == nil {
		t.Error("unknown workload not rejected")
	}
}

func TestEveryProtocolRunsEveryWorkload(t *testing.T) {
	protos := []struct{ proto, topo string }{
		{engine.ProtoTokenB, engine.TopoTorus},
		{engine.ProtoTokenD, engine.TopoTorus},
		{engine.ProtoTokenM, engine.TopoTorus},
		{engine.ProtoSnooping, engine.TopoTree},
		{engine.ProtoDirectory, engine.TopoTorus},
		{engine.ProtoHammer, engine.TopoTorus},
	}
	for _, p := range protos {
		for _, wl := range workload.Names() {
			p, wl := p, wl
			t.Run(p.proto+"/"+wl, func(t *testing.T) {
				t.Parallel()
				pt := testPoint(p.proto, p.topo, wl)
				pt.Ops = 600
				pt.Warmup = 1500
				sys, _, err := engine.RunPoint(pt, nil)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if sys.Metrics.Count("misses") == 0 {
					t.Error("no coherence misses — workload not exercising the protocol")
				}
				if sys.Metrics.Count("transactions") == 0 {
					t.Error("no transactions completed")
				}
			})
		}
	}
}

// TestPaperShapeSnoopingVsTokenB asserts Figure 4a's qualitative result:
// TokenB on the torus outperforms snooping on the tree, while on the
// same tree snooping is at least as fast as TokenB.
func TestPaperShapeSnoopingVsTokenB(t *testing.T) {
	cpt := func(proto, topo string) float64 {
		sys, _, err := engine.RunPoint(testPoint(proto, topo, "apache"), nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", proto, topo, err)
		}
		return metric(sys, "cycles_per_txn")
	}
	tokenTorus := cpt(engine.ProtoTokenB, engine.TopoTorus)
	tokenTree := cpt(engine.ProtoTokenB, engine.TopoTree)
	snoopTree := cpt(engine.ProtoSnooping, engine.TopoTree)
	if tokenTorus >= snoopTree {
		t.Errorf("TokenB/torus (%.1f) not faster than Snooping/tree (%.1f)", tokenTorus, snoopTree)
	}
	// On the same fabric snooping has no reissues, so TokenB should not
	// be meaningfully faster (allow 5% noise).
	if tokenTree < snoopTree*0.95 {
		t.Errorf("TokenB/tree (%.1f) implausibly beats Snooping/tree (%.1f)", tokenTree, snoopTree)
	}
}

// TestPaperShapeDirectoryAndHammer asserts Figure 5a/5b's qualitative
// results: TokenB is fastest; Directory uses the least traffic; Hammer
// uses by far the most.
func TestPaperShapeDirectoryAndHammer(t *testing.T) {
	type res struct{ cpt, bpm float64 }
	get := func(proto string) res {
		sys, _, err := engine.RunPoint(testPoint(proto, engine.TopoTorus, "oltp"), nil)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		return res{metric(sys, "cycles_per_txn"), metric(sys, "bytes_per_miss")}
	}
	token := get(engine.ProtoTokenB)
	dir := get(engine.ProtoDirectory)
	ham := get(engine.ProtoHammer)
	if token.cpt >= dir.cpt {
		t.Errorf("TokenB (%.1f cyc/txn) not faster than Directory (%.1f)", token.cpt, dir.cpt)
	}
	if token.cpt >= ham.cpt {
		t.Errorf("TokenB (%.1f cyc/txn) not faster than Hammer (%.1f)", token.cpt, ham.cpt)
	}
	if dir.bpm >= token.bpm {
		t.Errorf("Directory traffic (%.1f B/miss) not below TokenB (%.1f)", dir.bpm, token.bpm)
	}
	if ham.bpm <= token.bpm {
		t.Errorf("Hammer traffic (%.1f B/miss) not above TokenB (%.1f)", ham.bpm, token.bpm)
	}
}

// TestPaperShapePerfectDirectory asserts the grey-striped bars of
// Figure 5a: removing the DRAM directory lookup speeds Directory up, but
// TokenB stays ahead.
func TestPaperShapePerfectDirectory(t *testing.T) {
	// The TokenB-vs-perfect-directory margin is the finest comparison in
	// the figure (a few percent); short runs leave it inside seed noise,
	// so this test measures more operations than the coarser shapes.
	point := func(proto string) engine.Point {
		pt := testPoint(proto, engine.TopoTorus, "apache")
		pt.Ops = 4800
		return pt
	}
	dram, _, err := engine.RunPoint(point(engine.ProtoDirectory), nil)
	if err != nil {
		t.Fatal(err)
	}
	perfect := point(engine.ProtoDirectory)
	perfect.PerfectDir = true
	fast, _, err := engine.RunPoint(perfect, nil)
	if err != nil {
		t.Fatal(err)
	}
	token, _, err := engine.RunPoint(point(engine.ProtoTokenB), nil)
	if err != nil {
		t.Fatal(err)
	}
	if metric(fast, "cycles_per_txn") >= metric(dram, "cycles_per_txn") {
		t.Errorf("perfect directory (%.1f) not faster than DRAM directory (%.1f)",
			metric(fast, "cycles_per_txn"), metric(dram, "cycles_per_txn"))
	}
	if metric(token, "cycles_per_txn") >= metric(fast, "cycles_per_txn") {
		t.Errorf("TokenB (%.1f) not faster than even the perfect directory (%.1f)",
			metric(token, "cycles_per_txn"), metric(fast, "cycles_per_txn"))
	}
}

// TestPaperShapeUnlimitedBandwidth asserts that removing the bandwidth
// limit helps every protocol (contention exists) and helps Hammer most
// (it has the most traffic).
func TestPaperShapeUnlimitedBandwidth(t *testing.T) {
	speedup := func(proto string) float64 {
		lim, _, err := engine.RunPoint(testPoint(proto, engine.TopoTorus, "apache"), nil)
		if err != nil {
			t.Fatal(err)
		}
		pt := testPoint(proto, engine.TopoTorus, "apache")
		pt.Unlimited = true
		inf, _, err := engine.RunPoint(pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return metric(lim, "cycles_per_txn") / metric(inf, "cycles_per_txn")
	}
	tb := speedup(engine.ProtoTokenB)
	hm := speedup(engine.ProtoHammer)
	if tb < 1.0 {
		t.Errorf("unlimited bandwidth slowed TokenB down (speedup %.2f)", tb)
	}
	if hm < tb {
		t.Errorf("Hammer gains less from unlimited bandwidth (%.2f) than TokenB (%.2f)", hm, tb)
	}
}

func TestTable2Shape(t *testing.T) {
	agg, err := Run("table2", testOpt())
	if err != nil {
		t.Fatal(err)
	}
	cells := agg.Cells()
	if len(cells) != len(workload.Names()) {
		t.Fatalf("got %d rows, want %d", len(cells), len(workload.Names()))
	}
	for _, c := range cells {
		m := c.SumMisses()
		notReissued, once := m.Frac(m.NotReissued()), m.Frac(m.ReissuedOnce)
		total := notReissued + once + m.Frac(m.ReissuedMore) + m.Frac(m.Persistent)
		if total < 99.9 || total > 100.1 {
			t.Errorf("%s: fractions sum to %.2f%%", c.Workload, total)
		}
		if notReissued < 90 {
			t.Errorf("%s: only %.1f%% first-try successes; paper reports ~97%%", c.Workload, notReissued)
		}
		if once > 10 {
			t.Errorf("%s: %.1f%% reissued once; reissues must be rare", c.Workload, once)
		}
	}
}

// runScaling runs the scaling experiment up to maxProcs and checks it
// produced one row of cells per system size, returning the sizes.
func runScaling(t *testing.T, opt Options, rows int) (*engine.AggregateSink, []int) {
	t.Helper()
	agg, err := Run("scaling", opt)
	if err != nil {
		t.Fatal(err)
	}
	sizes := Experiment{}.Defaults(opt).sizes()
	if got := len(agg.Cells()) / len(scalingConfigs); got != rows || len(sizes) != rows {
		t.Fatalf("got %d rows, want %d", got, rows)
	}
	return agg, sizes
}

func TestScalingShape(t *testing.T) {
	agg, sizes := runScaling(t, Options{Ops: 400, Warmup: 800, MaxProcs: 16}, 3) // 4, 8, 16
	// TokenB's broadcast traffic per miss must grow with system size
	// while Directory's stays roughly flat, so the ratio grows.
	first, last := TrafficRatio(agg, sizes[0]), TrafficRatio(agg, sizes[len(sizes)-1])
	if first >= last {
		t.Errorf("traffic ratio did not grow with system size: %.2f -> %.2f", first, last)
	}
	for _, procs := range sizes {
		cell := func(proto string) (bytesPerMiss, cycles float64) {
			c := SizeCell(agg, proto, procs)
			return c.Mean("bytes_per_miss"), c.Mean("cycles_per_txn")
		}
		tokenB, _ := cell(engine.ProtoTokenB)
		// The new columns must be populated at every size: Hammer
		// broadcasts and collects acks, so it burns the most bandwidth;
		// snooping rides the ordered tree.
		if hammer, _ := cell(engine.ProtoHammer); hammer <= tokenB {
			t.Errorf("%dp: Hammer traffic (%.1f B/miss) not above TokenB (%.1f)", procs, hammer, tokenB)
		}
		if b, c := cell(engine.ProtoSnooping); b <= 0 || c <= 0 {
			t.Errorf("%dp: snooping-on-tree column empty (%.1f B/miss, %.1f cyc/txn)", procs, b, c)
		}
		if b, c := cell(engine.ProtoDir2); b <= 0 || c <= 0 {
			t.Errorf("%dp: two-level directory column empty (%.1f B/miss, %.1f cyc/txn)", procs, b, c)
		}
		if b, c := cell(engine.ProtoRegionFilter); b <= 0 || c <= 0 {
			t.Errorf("%dp: region-filter column empty (%.1f B/miss, %.1f cyc/txn)", procs, b, c)
		}
	}
}

// TestScaling64Smoke is the CI smoke for large ordered-tree systems: the
// full scaling sweep — snooping on the multi-level tree included — must
// carry 64 processors within the -short budget. The snooping run doubles
// as the total-order proof at 64 nodes: the protocol is only correct on
// a fabric that delivers broadcasts in one global order, and its oracle
// audit fails loudly when that order breaks.
func TestScaling64Smoke(t *testing.T) {
	agg, sizes := runScaling(t, Options{Ops: 100, Warmup: 100, MaxProcs: 64}, 5) // 4, 8, 16, 32, 64
	last := sizes[len(sizes)-1]
	if last != 64 {
		t.Fatalf("last row procs = %d, want 64", last)
	}
	snoop := SizeCell(agg, engine.ProtoSnooping, last)
	if b, c := snoop.Mean("bytes_per_miss"), snoop.Mean("cycles_per_txn"); b <= 0 || c <= 0 {
		t.Errorf("snooping-on-tree empty at 64 procs (%.1f B/miss, %.1f cyc/txn)", b, c)
	}
	if first, at64 := TrafficRatio(agg, sizes[0]), TrafficRatio(agg, last); at64 <= first {
		t.Errorf("TokenB/Directory traffic ratio did not grow: %.2f at 4p -> %.2f at 64p", first, at64)
	}
}

// TestScaling256 drives the sweep to its 256-processor ceiling — four
// tree levels, a 16x16 torus — and is skipped in -short mode (the 64p
// smoke covers large trees there).
func TestScaling256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor sweep skipped in -short mode")
	}
	agg, sizes := runScaling(t, Options{Ops: 30, Warmup: 30, MaxProcs: 256}, 7)
	if sizes[6] != 256 {
		t.Fatalf("last procs %d, want 256", sizes[6])
	}
	for _, procs := range sizes {
		if SizeCell(agg, engine.ProtoSnooping, procs).Mean("bytes_per_miss") <= 0 {
			t.Errorf("%dp: snooping-on-tree column empty", procs)
		}
	}
}

// TestAllExperimentsAreCacheable: every catalogue entry's points must
// carry a content identity (engine.PointKey), so -store archives them
// and -resume recalls them. The scaling and procs entries' opaque
// generator closure is the regression case — it needs its GenID.
func TestAllExperimentsAreCacheable(t *testing.T) {
	for _, e := range Catalogue() {
		jobs, err := e.Plan(e.Defaults(Options{Ops: 100, Warmup: 100})).Jobs()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, job := range jobs {
			if _, err := engine.PointKey(job.Point); err != nil {
				t.Errorf("%s: job %d (%s) is uncacheable: %v", e.Name, job.Index, job.Variant, err)
			}
		}
	}
}

func TestOptionsWarmupSentinel(t *testing.T) {
	// Zero means unset (2x Ops), engine.NoWarmup means an explicitly cold
	// cache — the conflation that made cold-cache measurement
	// impossible is locked out here.
	warmup := func(opt Options) int { return Experiment{}.Defaults(opt).Warmup }
	if got := warmup(Options{Ops: 500}); got != 1000 {
		t.Errorf("unset warmup = %d, want 1000 (2x Ops)", got)
	}
	if got := warmup(Options{Ops: 500, Warmup: 250}); got != 250 {
		t.Errorf("explicit warmup = %d, want 250", got)
	}
	// The engine plan keeps the distinction: explicit cold reaches the
	// jobs as zero warmup ops.
	plan := Experiment{}.Defaults(Options{Ops: 500, Warmup: engine.NoWarmup}).Plan([]engine.Variant{
		{Point: engine.Point{Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus, Workload: "oltp"}},
	})
	jobs, err := plan.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Point.Warmup != 0 {
		t.Errorf("cold plan job warmup = %d, want 0", jobs[0].Point.Warmup)
	}
}

func TestRunExperimentPrints(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "table2", Options{Ops: 400, Warmup: 1000}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "apache", "oltp", "specjbb", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if err := RunExperiment(&bytes.Buffer{}, "nope", Options{}); err == nil {
		t.Error("unknown experiment not rejected")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run1, _, err := engine.RunPoint(testPoint(engine.ProtoTokenB, engine.TopoTorus, "specjbb"), nil)
	if err != nil {
		t.Fatal(err)
	}
	run2, _, err := engine.RunPoint(testPoint(engine.ProtoTokenB, engine.TopoTorus, "specjbb"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if metric(run1, "elapsed_ns") != metric(run2, "elapsed_ns") || metric(run1, "bytes_total") != metric(run2, "bytes_total") {
		t.Errorf("identical points diverged: %vns/%vns bytes %v/%v",
			metric(run1, "elapsed_ns"), metric(run2, "elapsed_ns"), metric(run1, "bytes_total"), metric(run2, "bytes_total"))
	}
}

func TestSeedsChangeResults(t *testing.T) {
	pt := testPoint(engine.ProtoTokenB, engine.TopoTorus, "specjbb")
	run1, _, err := engine.RunPoint(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt.Seed = 2
	run2, _, err := engine.RunPoint(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if metric(run1, "elapsed_ns") == metric(run2, "elapsed_ns") {
		t.Error("different seeds produced identical elapsed time (suspicious)")
	}
}

func TestCustomGeneratorAndMutate(t *testing.T) {
	mutated := false
	pt := engine.Point{
		Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus,
		NewGen: func(n int) machine.Generator {
			return workload.NewUniform(256, 0.4, 4*sim.Nanosecond, n)
		},
		Ops: 400, Procs: 8, Seed: 1,
		Mutate: func(c *machine.Config) {
			mutated = true
			c.MSHRs = 4
		},
	}
	if _, _, err := engine.RunPoint(pt, nil); err != nil {
		t.Fatal(err)
	}
	if !mutated {
		t.Error("Mutate hook not invoked")
	}
}

// metric reads one named metric from a point's machine after its run.
func metric(sys *machine.System, name string) float64 {
	v, _ := sys.Metrics.Value(name)
	return v
}
