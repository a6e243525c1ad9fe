package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/harness"
)

// TestSweepDeterminismSerialVsParallel locks in the engine's core
// guarantee for every parameter sweep in the experiment catalogue: a
// plan executed with one worker and with many workers emits
// byte-identical CSV and JSONL (at reduced point sizes so it stays
// fast).
func TestSweepDeterminismSerialVsParallel(t *testing.T) {
	for _, e := range harness.Catalogue() {
		if e.Print != nil {
			continue // a paper table, not a parameter sweep
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			// apache completes a transaction every 120 operations, so 150
			// measured ops per processor keep every metric finite (a
			// transaction-less run would serialize null cycles_per_txn,
			// hiding the runtime metric this test wants covered). The
			// procs sweep stops at 8 processors and the mutation sweeps
			// carry long axes; trim both so the test exercises the same
			// plan shapes at unit-test cost.
			plan := e.Plan(e.Defaults(harness.Options{Workload: "apache", Seeds: []uint64{3},
				Ops: 150, Warmup: 150, Procs: 8, MaxProcs: 8}))
			cols := e.Columns
			if len(plan.Mutations) > 4 {
				plan.Mutations = plan.Mutations[:4]
			}

			run := func(workers, islands int, format string) []byte {
				var buf bytes.Buffer
				var sink engine.Sink
				if format == "csv" {
					sink = &engine.CSVSink{W: &buf, Columns: cols}
				} else {
					sink = &engine.JSONLSink{W: &buf}
				}
				p := plan
				p.Islands = islands
				eng := engine.Engine{Workers: workers}
				if _, err := eng.Execute(context.Background(), p, sink); err != nil {
					t.Fatalf("workers=%d islands=%d %s: %v", workers, islands, format, err)
				}
				return buf.Bytes()
			}

			for _, format := range []string{"csv", "json"} {
				serial := run(1, 0, format)
				if len(serial) == 0 {
					t.Fatalf("%s: empty serial output", format)
				}
				for _, workers := range []int{0, 4} {
					parallel := run(workers, 0, format)
					if !bytes.Equal(serial, parallel) {
						t.Fatalf("%s output differs between workers=1 and workers=%d:\nserial:\n%s\nparallel:\n%s",
							format, workers, firstDiff(serial, parallel), parallel)
					}
				}
				// The island kernel gives the same guarantee along the other
				// axis: every point split across two conservative-parallel
				// islands must emit the bytes the serial kernel emits.
				islanded := run(1, 2, format)
				if !bytes.Equal(serial, islanded) {
					t.Fatalf("%s output differs between islands=1 and islands=2:\n%s",
						format, firstDiff(serial, islanded))
				}
			}
		})
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d bytes", len(a), len(b))
}
