// Protocolcompare runs all four protocols of the paper's evaluation on
// the Apache workload and prints the latency/bandwidth trade-off in one
// table — a miniature of Figures 4 and 5. Snooping runs on the ordered
// tree (it cannot run on the torus); the others use the torus.
//
// The five simulations are declared as one plan and executed
// concurrently on the parallel engine; results come back in plan order.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"

	"tokencoherence"
)

func main() {
	if err := run(os.Stdout, 2500, 6000); err != nil {
		log.Fatal(err)
	}
}

// run executes the four-protocol comparison at the given size; main and
// the smoke test call it.
func run(out io.Writer, ops, warmup int) error {
	plan := tokencoherence.Plan{
		Variants: []tokencoherence.Variant{
			{Point: tokencoherence.Point{Protocol: tokencoherence.ProtoSnooping, Topo: tokencoherence.TopoTree}},
			{Point: tokencoherence.Point{Protocol: tokencoherence.ProtoTokenB, Topo: tokencoherence.TopoTree}},
			{Point: tokencoherence.Point{Protocol: tokencoherence.ProtoTokenB, Topo: tokencoherence.TopoTorus}},
			{Point: tokencoherence.Point{Protocol: tokencoherence.ProtoHammer, Topo: tokencoherence.TopoTorus}},
			{Point: tokencoherence.Point{Protocol: tokencoherence.ProtoDirectory, Topo: tokencoherence.TopoTorus}},
		},
		Workloads: []string{"apache"},
		Seeds:     []uint64{3},
		Ops:       ops,
		Warmup:    warmup,
	}

	var eng tokencoherence.Engine // zero value: one worker per CPU
	results, err := eng.Execute(context.Background(), plan)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "protocol\tfabric\tcycles/txn\tavg miss\tbytes/miss\treissued")
	for _, r := range results {
		value := func(name string) float64 {
			v, _ := r.Metrics.Value(name)
			return v
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1fns\t%.0f\t%.2f%%\n",
			r.Point.Protocol, r.Point.Topo, value("cycles_per_txn"), value("avg_miss_ns"),
			value("bytes_per_miss"), value("reissued_pct")+value("persistent_pct"))
	}
	w.Flush()

	fmt.Fprintln(out, "\nReadings (the paper's headline results):")
	fmt.Fprintln(out, "  - TokenB on the torus runs fastest: no ordering point, no indirection.")
	fmt.Fprintln(out, "  - Snooping matches TokenB on the tree but cannot use the faster torus.")
	fmt.Fprintln(out, "  - Directory adds home indirection + directory latency to every cache-to-cache miss.")
	fmt.Fprintln(out, "  - Hammer avoids the directory lookup but pays broadcast + per-node acks in bandwidth.")
	return nil
}
