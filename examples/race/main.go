// Race reproduces the paper's Figure 2: a GetM from P0 racing a GetS
// from P1 on the same block over an unordered interconnect. With token
// counting there is no ordering point: the race may split the tokens,
// the loser times out and reissues, and in the pathological limit the
// persistent-request substrate guarantees completion. The example drives
// the race directly against the protocol controllers and narrates what
// each processor ended up holding.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"tokencoherence/internal/core"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/topology"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the Figure 2 race; main and the smoke test call it.
func run(w io.Writer) error {
	cfg := machine.DefaultConfig()
	cfg.Procs = 4
	cfg.TokensPerBlock = 4
	sys := machine.NewSystem(cfg, topology.NewTorusFor(4), 7)
	ts := core.BuildTokenB(sys)

	const addr = msg.Addr(0x1000)
	block := msg.BlockOf(addr)
	fmt.Fprintf(w, "Block %d starts with all %d tokens at its home memory (node %d).\n\n",
		block, cfg.TokensPerBlock, msg.HomeOf(block, cfg.Procs))

	var writeDone, readDone bool
	sys.K.Schedule(0, func() {
		fmt.Fprintln(w, "t=0: P0 issues a transient GetM (wants all tokens) ...")
		ts.Caches[0].Access(machine.Op{Addr: addr, Write: true}, func() {
			writeDone = true
			fmt.Fprintf(w, "t=%v: P0's store commits (it gathered all tokens)\n", sys.K.Now())
		})
	})
	sys.K.Schedule(0, func() {
		fmt.Fprintln(w, "t=0: P1 issues a transient GetS (wants one token) — the race of Figure 2")
		ts.Caches[1].Access(machine.Op{Addr: addr, Write: false}, func() {
			readDone = true
			fmt.Fprintf(w, "t=%v: P1's load commits (it has a token and valid data)\n", sys.K.Now())
		})
	})
	sys.K.Run()

	if !writeDone || !readDone {
		return errors.New("race did not resolve — the substrate failed")
	}
	if err := sys.Oracle.Err(); err != nil {
		return err
	}
	if err := ts.Audit(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nFinal token distribution:")
	for i, c := range ts.Caches {
		if l := c.L2.Lookup(block); l != nil && l.Tokens > 0 {
			fmt.Fprintf(w, "  P%d holds %d token(s), owner=%v, data=v%d\n", i, l.Tokens, l.Owner, l.Data)
		}
	}
	if tokens, owner := ts.Mems[msg.HomeOf(block, cfg.Procs)].Tokens(block); tokens > 0 {
		fmt.Fprintf(w, "  home memory holds %d token(s), owner=%v\n", tokens, owner)
	}
	count := sys.Metrics.Count
	fmt.Fprintf(w, "\nMisses: %d issued, %d reissued, %d persistent — safety held without any ordering point.\n",
		count("misses"), count("misses_reissued_once")+count("misses_reissued_more"), count("misses_persistent"))
	fmt.Fprintln(w, "Token conservation audit: passed.")
	return nil
}
