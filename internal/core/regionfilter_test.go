package core

import (
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

// newRegionFilterSystem builds the token substrate with the region
// filter on the 16-processor tree, whose root subtrees give four
// 4-node clusters.
func newRegionFilterSystem(t *testing.T, seed uint64) (*machine.System, *TokenSystem) {
	t.Helper()
	cfg := machine.DefaultConfig()
	sys := machine.NewSystem(cfg, topology.NewTree(cfg.Procs), seed)
	return sys, WithPolicy(NewRegionFilterPolicy, false)(sys)
}

func TestRegionFilterDestinationSets(t *testing.T) {
	_, ts := newRegionFilterSystem(t, 1)
	c := ts.Caches[0] // cluster {0,1,2,3}
	m := &machine.MSHR{Block: 5}

	// A never-observed region multicasts to the cluster plus the
	// machine-wide home: 3 peer caches + home.
	first := c.policy.Destinations(c, m, false, nil)
	if len(first) != 4 {
		t.Errorf("cluster-private first issue sent to %d ports, want 4", len(first))
	}
	for _, p := range first[:len(first)-1] {
		if p.Node > 3 || p.Node == c.ID || p.Unit != msg.UnitCache {
			t.Errorf("unexpected cluster destination %+v", p)
		}
	}
	if home := first[len(first)-1]; home != c.HomePort(m.Block) {
		t.Errorf("last destination %+v, want machine-wide home %+v", home, c.HomePort(m.Block))
	}

	// Reissues always broadcast: 15 peer caches + home.
	if re := c.policy.Destinations(c, m, true, nil); len(re) != 16 {
		t.Errorf("reissue sent to %d ports, want broadcast (16)", len(re))
	}

	// Token supply from a cache outside the cluster stickily marks the
	// whole 16-block region external; first issues broadcast from then on.
	c.policy.Observe(c, &msg.Message{
		Src:  msg.Port{Node: 7, Unit: msg.UnitCache},
		Addr: msg.Addr(m.Block) << msg.BlockShift,
	})
	if after := c.policy.Destinations(c, m, false, nil); len(after) != 16 {
		t.Errorf("externally-shared first issue sent to %d ports, want broadcast (16)", len(after))
	}
	other := &machine.MSHR{Block: 5 ^ 8} // same 16-block region
	if sib := c.policy.Destinations(c, other, false, nil); len(sib) != 16 {
		t.Errorf("region sibling sent to %d ports, want broadcast (16)", len(sib))
	}
	far := &machine.MSHR{Block: 5 + 16} // next region: still private
	if out := c.policy.Destinations(c, far, false, nil); len(out) != 4 {
		t.Errorf("neighboring region sent to %d ports, want 4", len(out))
	}

	// In-cluster supply must not poison the region.
	c.policy.Observe(c, &msg.Message{
		Src:  msg.Port{Node: 2, Unit: msg.UnitCache},
		Addr: msg.Addr(far.Block) << msg.BlockShift,
	})
	if out := c.policy.Destinations(c, far, false, nil); len(out) != 4 {
		t.Errorf("in-cluster supply poisoned the region: %d ports, want 4", len(out))
	}
}

func TestRegionFilterStressIsCorrect(t *testing.T) {
	sys, ts := newRegionFilterSystem(t, 107)
	gen := &uniformGen{blocks: 24, pWrite: 0.4, think: 5 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(ts.Caches), gen, 300); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if err := ts.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}
