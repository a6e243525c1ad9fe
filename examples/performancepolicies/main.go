// Performancepolicies demonstrates the decoupling that gives the paper
// its title: three different performance protocols — TokenB (broadcast),
// TokenD (home-redirected, directory-like traffic) and TokenM
// (destination-set prediction) — run on the *same unmodified correctness
// substrate*. Changing the request policy trades latency against
// bandwidth but can never break safety: every run below passes the token
// conservation audit and the coherence oracle.
package main

import (
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

// run compares the three performance policies at the given size; main
// and the smoke test call it.
func run(out io.Writer, ops, warmup int) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tcycles/txn\tavg miss\trequest bytes/miss\ttotal bytes/miss\treissued")
	for _, proto := range []string{
		tokencoherence.ProtoTokenB,
		tokencoherence.ProtoTokenM,
		tokencoherence.ProtoTokenD,
	} {
		snap, err := tokencoherence.Simulate(tokencoherence.Point{
			Protocol: proto,
			Topo:     tokencoherence.TopoTorus,
			Workload: "specjbb",
			Ops:      ops,
			Warmup:   warmup,
			Seed:     9,
		})
		if err != nil {
			return err
		}
		v := func(name string) float64 { x, _ := snap.Value(name); return x }
		fmt.Fprintf(w, "%s\t%.1f\t%.1fns\t%.1f\t%.1f\t%.2f%%\n",
			proto, v("cycles_per_txn"), v("avg_miss_ns"), v("bytes_per_miss_request"),
			v("bytes_per_miss"), v("reissued_pct")+v("persistent_pct"))
	}
	w.Flush()

	fmt.Fprintln(out, "\nAll three policies ran on the identical correctness substrate;")
	fmt.Fprintln(out, "the audit verified token conservation and coherent data in every case.")
	fmt.Fprintln(out, "TokenB buys the lowest latency with broadcast bandwidth; TokenD")
	fmt.Fprintln(out, "approaches directory-protocol traffic; TokenM sits in between —")
	fmt.Fprintln(out, "exactly the design space §7 of the paper describes.")
	return nil
}
