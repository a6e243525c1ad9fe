package tokencoherence

import (
	"encoding/json"
	"fmt"
	"os"
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
	Cpus   int `json:"cpus"`
	Points map[string]struct {
		AllocsPerOp    float64 `json:"allocs_per_op"`
		MaxAllocsPerOp float64 `json:"max_allocs_per_op"`
	} `json:"points"`
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
// (the exact configuration BenchmarkSimulatePoint measures) under
// testing.AllocsPerRun and fails if the allocation count exceeds the
// ceiling recorded in BENCH.json's "point" entry. Allocation counts are
// deterministic, unlike ns/op, so this gate holds on any hardware; the
// ceilings carry ~35% headroom over the recorded baseline for runtime
// and Go-version drift. If an intentional change raises allocations,
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
			pt := benchPoint(proto, topo, "oltp", 1)
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := engine.RunPoint(pt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limits.MaxAllocsPerOp {
				t.Errorf("%s point allocated %.0f objects, baseline ceiling is %.0f (recorded %.0f); "+
					"if intentional, regenerate BENCH.json's point entry in this PR",
					proto, allocs, limits.MaxAllocsPerOp, limits.AllocsPerOp)
			}
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
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := engine.RunPoint(pt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limits.MaxAllocsPerOp {
				t.Errorf("%s point allocated %.0f objects, baseline ceiling is %.0f (recorded %.0f); "+
					"if intentional, regenerate BENCH.json's islands entry in this PR",
					name, allocs, limits.MaxAllocsPerOp, limits.AllocsPerOp)
			}
		})
	}
}
