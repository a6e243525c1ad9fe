package tokencoherence

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"tokencoherence/internal/engine"
)

// benchBaseline mirrors the points table of BENCH_kernel.json and
// BENCH_parallel.json, plus the recording-host metadata the parallel
// gate cross-checks.
type benchBaseline struct {
	Description string `json:"description"`
	// Cpus is the recording host's CPU count. BENCH_parallel.json's
	// ns_per_op values only demonstrate parallel speedup when this is
	// greater than one; TestBenchmarkRegressionParallel enforces that the
	// description's single-CPU caveat and this field stay consistent.
	Cpus   int `json:"cpus"`
	Points map[string]struct {
		AllocsPerOp    float64 `json:"allocs_per_op"`
		MaxAllocsPerOp float64 `json:"max_allocs_per_op"`
	} `json:"points"`
}

// loadBaseline reads one baseline file or fails the test.
func loadBaseline(t *testing.T, path string) benchBaseline {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing benchmark baseline: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("bad %s: %v", path, err)
	}
	return base
}

// TestBenchmarkRegression is the benchmark-regression harness CI runs on
// every push: it executes one end-to-end simulation point per protocol
// (the exact configuration BenchmarkSimulatePoint measures) under
// testing.AllocsPerRun and fails if the allocation count exceeds the
// ceiling recorded in BENCH_kernel.json. Allocation counts are
// deterministic, unlike ns/op, so this gate holds on any hardware; the
// ceilings carry ~35% headroom over the recorded baseline for runtime
// and Go-version drift. If an intentional change raises allocations,
// regenerate the baseline (see BENCH_kernel.json) in the same PR.
func TestBenchmarkRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark regression in -short mode")
	}
	base := loadBaseline(t, "BENCH_kernel.json")
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
			pt := benchPoint(proto, topo, "oltp", 1)
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := engine.RunPoint(pt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limits.MaxAllocsPerOp {
				t.Errorf("%s point allocated %.0f objects, baseline ceiling is %.0f (recorded %.0f); "+
					"if intentional, regenerate BENCH_kernel.json in this PR",
					proto, allocs, limits.MaxAllocsPerOp, limits.AllocsPerOp)
			}
		})
	}
}

// TestBenchmarkRegressionParallel gates the island kernel's overhead
// against BENCH_parallel.json: one 64-processor TokenB point (the
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
	base := loadBaseline(t, "BENCH_parallel.json")
	// The single-CPU caveat is machine-checked: the baseline must record
	// its host's CPU count, and the description's warning must match it.
	// Re-recording on a multi-core host (cpus > 1) obliges whoever does
	// it to delete the caveat — and vice versa, the caveat cannot be
	// dropped while the numbers still come from one core.
	const caveat = "single CPU"
	switch {
	case base.Cpus < 1:
		t.Errorf("BENCH_parallel.json records no cpus field; regenerate it with the recording host's CPU count")
	case base.Cpus == 1 && !strings.Contains(base.Description, caveat):
		t.Errorf("BENCH_parallel.json was recorded on 1 CPU but its description lost the %q caveat", caveat)
	case base.Cpus > 1 && strings.Contains(base.Description, caveat):
		t.Errorf("BENCH_parallel.json was recorded on %d CPUs; drop the stale %q caveat from its description", base.Cpus, caveat)
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
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := engine.RunPoint(pt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limits.MaxAllocsPerOp {
				t.Errorf("%s point allocated %.0f objects, baseline ceiling is %.0f (recorded %.0f); "+
					"if intentional, regenerate BENCH_parallel.json in this PR",
					name, allocs, limits.MaxAllocsPerOp, limits.AllocsPerOp)
			}
		})
	}
}
