package tokencoherence

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"tokencoherence/internal/engine"
)

// benchBaseline mirrors one entry of BENCH.json: a benchmark's
// recording-host metadata and its points table.
type benchBaseline struct {
	Description string `json:"description"`
	// Cpus is the recording host's CPU count (0 = not recorded). An
	// entry's ns_per_op values only demonstrate parallel speedup when it
	// is greater than one; loadBaseline enforces that the description's
	// single-CPU caveat and this field stay consistent.
	Cpus   int                    `json:"cpus"`
	Points map[string]benchLimits `json:"points"`
}

// benchLimits is one recorded point: its allocation and heap-byte counts
// and the ceilings CI holds them under (a zero max_bytes_per_op leaves
// bytes ungated).
type benchLimits struct {
	AllocsPerOp    float64 `json:"allocs_per_op"`
	MaxAllocsPerOp float64 `json:"max_allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	MaxBytesPerOp  float64 `json:"max_bytes_per_op"`
}

// memPerRun runs f once to warm up and once measured, as
// testing.AllocsPerRun(1, f) does (GOMAXPROCS 1 throughout), and returns
// the measured run's heap allocation count and bytes allocated.
func memPerRun(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// checkLimits fails t if a measured point exceeds its BENCH.json
// ceilings; entry names the BENCH.json entry to regenerate.
func checkLimits(t *testing.T, entry, name string, limits benchLimits, allocs, bytes float64) {
	t.Helper()
	t.Logf("%s %s: %.0f allocs, %.0f bytes", entry, name, allocs, bytes)
	if allocs > limits.MaxAllocsPerOp {
		t.Errorf("%s point allocated %.0f objects, baseline ceiling is %.0f (recorded %.0f); "+
			"if intentional, regenerate BENCH.json's %s entry in this PR",
			name, allocs, limits.MaxAllocsPerOp, limits.AllocsPerOp, entry)
	}
	if limits.MaxBytesPerOp > 0 && bytes > limits.MaxBytesPerOp {
		t.Errorf("%s point allocated %.0f bytes, baseline ceiling is %.0f (recorded %.0f); "+
			"if intentional, regenerate BENCH.json's %s entry in this PR",
			name, bytes, limits.MaxBytesPerOp, limits.BytesPerOp, entry)
	}
}

// loadBaseline reads the named BENCH.json entry or fails the test. The
// single-CPU caveat is machine-checked on every entry: an entry recorded
// on one CPU must say so in its description, and re-recording on a
// multi-core host obliges whoever does it to delete the caveat.
func loadBaseline(t *testing.T, name string) benchBaseline {
	t.Helper()
	raw, err := os.ReadFile("BENCH.json")
	if err != nil {
		t.Fatalf("missing benchmark baseline: %v", err)
	}
	var file struct {
		Benchmarks map[string]benchBaseline `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("bad BENCH.json: %v", err)
	}
	base, ok := file.Benchmarks[name]
	if !ok {
		t.Fatalf("BENCH.json has no %q benchmark", name)
	}
	const caveat = "single CPU"
	switch {
	case base.Cpus == 1 && !strings.Contains(base.Description, caveat):
		t.Errorf("BENCH.json %s was recorded on 1 CPU but its description lost the %q caveat", name, caveat)
	case base.Cpus > 1 && strings.Contains(base.Description, caveat):
		t.Errorf("BENCH.json %s was recorded on %d CPUs; drop the stale %q caveat from its description", name, base.Cpus, caveat)
	}
	return base
}

// TestBenchmarkRegression is the benchmark-regression harness CI runs on
// every push: it executes one end-to-end simulation point per protocol
// (the exact configuration BenchmarkSimulatePoint measures) and fails if
// its allocation count or heap bytes exceed the ceilings recorded in
// BENCH.json's "point" entry. Both are deterministic up to runtime
// bookkeeping, unlike ns/op, so this gate holds on any hardware; the
// ceilings carry ~35% headroom over the recorded baseline for runtime
// and Go-version drift. The bytes ceiling is what holds cache storage to
// the sets a run touches. If an intentional change raises allocations,
// regenerate the entry (see its regenerate command) in the same PR.
func TestBenchmarkRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark regression in -short mode")
	}
	base := loadBaseline(t, "point")
	topoFor := map[string]string{
		engine.ProtoTokenB:    engine.TopoTorus,
		engine.ProtoTokenD:    engine.TopoTorus,
		engine.ProtoTokenM:    engine.TopoTorus,
		engine.ProtoSnooping:  engine.TopoTree,
		engine.ProtoDirectory: engine.TopoTorus,
		engine.ProtoHammer:    engine.TopoTorus,

		engine.ProtoDir2:         engine.TopoTorus,
		engine.ProtoRegionFilter: engine.TopoTorus,
	}
	for proto, limits := range base.Points {
		proto, limits := proto, limits
		t.Run(proto, func(t *testing.T) {
			topo, ok := topoFor[proto]
			if !ok {
				t.Fatalf("baseline names unknown protocol %q", proto)
			}
			if limits.MaxBytesPerOp <= 0 {
				t.Fatalf("BENCH.json point %s records no max_bytes_per_op", proto)
			}
			pt := benchPoint(proto, topo, "oltp", 1)
			allocs, bytes := memPerRun(func() {
				if _, _, err := engine.RunPoint(pt, nil); err != nil {
					t.Fatal(err)
				}
			})
			checkLimits(t, "point", proto, limits, allocs, bytes)
		})
	}
}

// TestBenchmarkRegressionParallel gates the island kernel's overhead
// against BENCH.json's "islands" entry: one 64-processor TokenB point (the
// BenchmarkSimulatePointIslands configuration) is run at each recorded
// island count and must stay under its allocation ceiling. Wall-clock
// speedup is NOT gated — it depends on the host's core count (the
// baseline records its host's CPUs) — but allocation counts are
// deterministic, so per-island kernels, stat
// shards, observer journals, and barrier queues cannot silently grow.
func TestBenchmarkRegressionParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark regression in -short mode")
	}
	base := loadBaseline(t, "islands")
	// Island speedup is a parallel claim, so this entry must record its
	// host's CPU count (loadBaseline checks the caveat against it).
	if base.Cpus < 1 {
		t.Errorf("BENCH.json islands records no cpus; regenerate it with the recording host's CPU count")
	}
	for name, limits := range base.Points {
		name, limits := name, limits
		var islands int
		if _, err := fmt.Sscanf(name, "islands%d", &islands); err != nil || islands < 1 {
			t.Fatalf("baseline names unparseable island count %q", name)
		}
		t.Run(name, func(t *testing.T) {
			pt := benchPoint(engine.ProtoTokenB, engine.TopoTorus, "oltp", 1)
			pt.Procs = 64
			pt.Ops = 200
			pt.Warmup = 600
			pt.Islands = islands
			allocs, bytes := memPerRun(func() {
				if _, _, err := engine.RunPoint(pt, nil); err != nil {
					t.Fatal(err)
				}
			})
			checkLimits(t, "islands", name, limits, allocs, bytes)
		})
	}
}

// setupPoints are the machines TestBenchmarkRegressionSetup builds, keyed
// by their BENCH.json "setup" point names: the 256-processor torus of
// the scaling study under TokenB, Directory and dir2, and the paper's
// 16-processor variants (Snooping on the ordered tree).
var setupPoints = map[string]engine.Point{
	"scale256_tokenb":    {Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus, Procs: 256},
	"scale256_directory": {Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus, Procs: 256},
	"scale256_dir2":      {Protocol: engine.ProtoDir2, Topo: engine.TopoTorus, Procs: 256},

	"paper16_tokenb":       {Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus, Procs: 16},
	"paper16_snooping":     {Protocol: engine.ProtoSnooping, Topo: engine.TopoTree, Procs: 16},
	"paper16_directory":    {Protocol: engine.ProtoDirectory, Topo: engine.TopoTorus, Procs: 16},
	"paper16_hammer":       {Protocol: engine.ProtoHammer, Topo: engine.TopoTorus, Procs: 16},
	"paper16_regionfilter": {Protocol: engine.ProtoRegionFilter, Topo: engine.TopoTorus, Procs: 16},
}

// TestBenchmarkRegressionSetup gates machine set-up against BENCH.json's
// "setup" entry: building each machine without simulating it (what
// MetricSchema does, and what a sweep pays once per point) must stay
// under the recorded allocation and heap-byte ceilings. Set-up work per
// node is what grows with the machine, so a component that allocates
// per-block storage eagerly fails here at 256 processors.
func TestBenchmarkRegressionSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark regression in -short mode")
	}
	base := loadBaseline(t, "setup")
	if len(base.Points) != len(setupPoints) {
		t.Errorf("BENCH.json setup records %d points, the test builds %d", len(base.Points), len(setupPoints))
	}
	for name, limits := range base.Points {
		name, limits := name, limits
		t.Run(name, func(t *testing.T) {
			pt, ok := setupPoints[name]
			if !ok {
				t.Fatalf("baseline names unknown set-up point %q", name)
			}
			if limits.MaxBytesPerOp <= 0 {
				t.Fatalf("BENCH.json setup %s records no max_bytes_per_op", name)
			}
			allocs, bytes := memPerRun(func() {
				if _, err := engine.MetricSchema(pt); err != nil {
					t.Fatal(err)
				}
			})
			checkLimits(t, "setup", name, limits, allocs, bytes)
		})
	}
}
