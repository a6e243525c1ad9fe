package engine_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/trace"
)

// islandOutputs runs one point at the given island count and returns every byte stream a run can emit,
// by name: the engine's JSONL row (identity + full metric map), the
// Chrome trace-event export of a tracer (hop-level when hops is set), a
// flight-recorder dump of the final event ring, and an FNV-64a hash of
// the raw stats.Event stream a probe receives (hops included when hops
// is set). The island kernel's contract is that all four are
// byte-identical at any island count.
func islandOutputs(t *testing.T, pt engine.Point, islands int, hops bool) map[string][]byte {
	t.Helper()
	pt.Islands = islands
	tr := trace.NewTracer(trace.TracerConfig{Hops: hops})
	kinds := stats.ProtocolKinds
	if hops {
		kinds = stats.AllKinds
	}
	h := fnv.New64a()
	probe := stats.Observer{Kinds: kinds, On: func(ev stats.Event) {
		binary.Write(h, binary.LittleEndian, ev) //nolint:errcheck // hash writes cannot fail
	}}
	var sys *machine.System
	var row bytes.Buffer
	eng := engine.Engine{Workers: 1, Attach: func(engine.Job) func(*machine.System) {
		return func(s *machine.System) {
			sys = s
			s.Observe(tr.Observer())
			s.Observe(probe)
		}
	}}
	plan := engine.Plan{Variants: []engine.Variant{{Name: "pt", Point: pt}}}
	if _, err := eng.Execute(context.Background(), plan, &engine.JSONLSink{W: &row}); err != nil {
		t.Fatalf("islands=%d: %v", islands, err)
	}
	var tb, db bytes.Buffer
	if err := tr.Export(&tb); err != nil {
		t.Fatalf("islands=%d: trace export: %v", islands, err)
	}
	sys.Recorder.WriteTo(&db, "island determinism check")
	return map[string][]byte{
		"JSONL":                row.Bytes(),
		"trace export":         tb.Bytes(),
		"flight-recorder dump": db.Bytes(),
		"event-stream hash":    fmt.Appendf(nil, "%016x\n", h.Sum64()),
	}
}

// checkIslandIdentity asserts that a point emits byte-identical outputs
// (see islandOutputs) at every island count in counts, and across
// repeated runs at the highest count.
func checkIslandIdentity(t *testing.T, pt engine.Point, counts []int, hops bool) {
	t.Helper()
	ref := islandOutputs(t, pt, counts[0], hops)
	for name, out := range ref {
		if len(out) == 0 {
			t.Fatalf("empty reference %s", name)
		}
	}
	check := func(label string, islands int) {
		for name, out := range islandOutputs(t, pt, islands, hops) {
			if !bytes.Equal(ref[name], out) {
				t.Errorf("%s: %s differs from islands=%d:\n%s", label, name, counts[0], firstDiff(ref[name], out))
			}
		}
	}
	for _, islands := range counts[1:] {
		check(fmt.Sprintf("islands=%d", islands), islands)
	}
	// Repeated runs at the widest partition must also agree: goroutine
	// scheduling may interleave islands differently every time, and none
	// of it may reach the output.
	last := counts[len(counts)-1]
	check(fmt.Sprintf("islands=%d repeat", last), last)
}

// TestIslandKernelByteIdentity64 is the island kernel's determinism
// gate at CI scale: one 64-processor point per fabric class (TokenB on
// the 8x8 torus, snooping on the ordered tree) emits byte-identical
// JSONL rows, hop-level trace exports, flight-recorder dumps, and raw
// event-stream hashes (hops included) across island counts 1, 2, and 4
// and across repeated 4-island runs.
func TestIslandKernelByteIdentity64(t *testing.T) {
	for _, tc := range []struct{ proto, topo string }{
		{engine.ProtoTokenB, engine.TopoTorus},
		{engine.ProtoSnooping, engine.TopoTree},
	} {
		tc := tc
		t.Run(tc.proto, func(t *testing.T) {
			t.Parallel()
			checkIslandIdentity(t, engine.Point{
				Protocol: tc.proto, Topo: tc.topo, Workload: "apache",
				Procs: 64, Ops: 120, Warmup: 120, Seed: 5,
			}, []int{1, 2, 4}, true)
		})
	}
}

// TestIslandKernelByteIdentity256 extends the byte-identity gate to one
// 256-processor point — the scale the island kernel exists for —
// comparing a serial run, a 4-island run, and a repeated 4-island run.
// The tracer records transaction spans but not per-link hops: a 256p
// broadcast protocol emits thousands of hop events per miss, which
// multiplies the run cost far past a unit-test budget, and the hop
// stream's byte-identity is already pinned at 64p above. Skipped in
// -short mode.
func TestIslandKernelByteIdentity256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor island determinism skipped in -short mode")
	}
	checkIslandIdentity(t, engine.Point{
		Protocol: engine.ProtoTokenB, Topo: engine.TopoTorus, Workload: "apache",
		Procs: 256, Ops: 12, Warmup: 12, Seed: 5,
	}, []int{1, 4}, false)
}

// TestIslandMetricsAllProtocols checks every protocol on its default
// fabric: a 16-processor run at 2 and 4 islands reproduces the serial
// run's metric snapshot exactly, value for value.
func TestIslandMetricsAllProtocols(t *testing.T) {
	for _, proto := range []string{engine.ProtoTokenB, engine.ProtoTokenD, engine.ProtoTokenM,
		engine.ProtoSnooping, engine.ProtoDirectory, engine.ProtoHammer,
		engine.ProtoDir2, engine.ProtoRegionFilter} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			base := engine.Point{Protocol: proto,
				Workload: "apache", Procs: 16, Ops: 200, Warmup: 200, Seed: 1}
			_, ref, err := engine.RunPoint(base, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, islands := range []int{2, 4} {
				pt := base
				pt.Islands = islands
				_, snap, err := engine.RunPoint(pt, nil)
				if err != nil {
					t.Fatalf("islands=%d: %v", islands, err)
				}
				for _, name := range ref.Names() {
					want, _ := ref.Value(name)
					got, _ := snap.Value(name)
					if want != got {
						t.Errorf("islands=%d: metric %s = %v, want %v", islands, name, got, want)
					}
				}
			}
		})
	}
}

// TestIslandValidation locks the expansion-time checks: island counts
// above the processor count are rejected, and the knob never leaks into
// serialized output (the JSONL schema has no islands field, so a sweep
// rerun on more cores diffs clean against its archive).
func TestIslandValidation(t *testing.T) {
	if err := (engine.Point{Protocol: engine.ProtoTokenB, Workload: "apache",
		Procs: 4, Islands: 8}).Validate(); err == nil {
		t.Error("islands > procs not rejected")
	}
	if err := (engine.Point{Protocol: engine.ProtoTokenB, Workload: "apache",
		Procs: 8, Islands: 8}).Validate(); err != nil {
		t.Errorf("islands == procs rejected: %v", err)
	}
	plan := engine.Plan{
		Variants: []engine.Variant{{Point: engine.Point{Protocol: engine.ProtoTokenB, Workload: "apache"}}},
		Procs:    4, Islands: 9,
	}
	if _, err := plan.Jobs(); err == nil {
		t.Error("plan with islands > procs expanded without error")
	}
	plan.Islands = 2
	jobs, err := plan.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Point.Islands != 2 {
		t.Errorf("plan islands not applied: job has %d", jobs[0].Point.Islands)
	}
}
