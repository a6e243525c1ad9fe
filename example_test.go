package tokencoherence_test

import (
	"fmt"

	"tokencoherence"
)

// ExampleSimulate is the package's compiled quick start: run one
// simulation point and read its headline statistics. The run is
// deterministic, audited for token conservation, and checked by the
// coherence oracle.
func ExampleSimulate() {
	snap, err := tokencoherence.Simulate(tokencoherence.Point{
		Protocol: tokencoherence.ProtoTokenB,
		Topo:     tokencoherence.TopoTorus,
		Workload: "oltp",
		Procs:    8,
		Ops:      500,
		Warmup:   1000,
		Seed:     1,
	})
	if err != nil {
		// A non-nil error includes token-conservation audit and
		// coherence-oracle violations.
		fmt.Println("simulate:", err)
		return
	}
	// Every measurement is a named metric (tokensim -list-metrics).
	v := func(name string) float64 { x, _ := snap.Value(name); return x }
	fmt.Println("made progress:", v("transactions") > 0 && v("misses") > 0)
	fmt.Println("finite metrics:", v("cycles_per_txn") > 0 && v("bytes_per_miss") > 0)
	// Output:
	// made progress: true
	// finite metrics: true
}
