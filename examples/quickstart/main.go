// Quickstart: simulate the paper's 16-processor system running the OLTP
// workload under TokenB on the unordered torus, and print the headline
// statistics. This is the smallest complete use of the public API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tokencoherence"
)

func main() {
	if err := run(os.Stdout, 3000, 6000); err != nil {
		log.Fatal(err)
	}
}

// run simulates the quickstart point at the given size and prints the
// headline statistics; main and the smoke test call it.
func run(w io.Writer, ops, warmup int) error {
	snap, err := tokencoherence.Simulate(tokencoherence.Point{
		Protocol: tokencoherence.ProtoTokenB,
		Topo:     tokencoherence.TopoTorus,
		Workload: "oltp",
		Ops:      ops,
		Warmup:   warmup,
		Seed:     42,
	})
	if err != nil {
		return err
	}

	// Every measurement is a named metric (tokensim -list-metrics).
	v := func(name string) float64 { x, _ := snap.Value(name); return x }
	pct := func(name string) float64 {
		if v("misses") == 0 {
			return 0
		}
		return 100 * v(name) / v("misses")
	}
	fmt.Fprintln(w, "TokenB / torus / OLTP (16 processors)")
	fmt.Fprintf(w, "  runtime:           %.1f cycles per transaction\n", v("cycles_per_txn"))
	fmt.Fprintf(w, "  avg miss latency:  %.1fns\n", v("avg_miss_ns"))
	fmt.Fprintf(w, "  traffic:           %.1f bytes per miss\n", v("bytes_per_miss"))
	fmt.Fprintf(w, "  transient success: %.2f%% of %.0f misses on first attempt\n",
		pct("misses_not_reissued"), v("misses"))
	fmt.Fprintf(w, "  reissued:          %.2f%% once, %.2f%% more than once\n",
		pct("misses_reissued_once"), pct("misses_reissued_more"))
	fmt.Fprintf(w, "  persistent:        %.3f%% fell back to the correctness substrate\n",
		v("persistent_pct"))
	return nil
}
