package core

import (
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

func newPolicySystem(t *testing.T, buildFn func(*machine.System) *TokenSystem, procs int, seed uint64) (*machine.System, *TokenSystem) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	if cfg.TokensPerBlock < procs {
		cfg.TokensPerBlock = procs
	}
	sys := machine.NewSystem(cfg, topology.NewTorusFor(procs), seed)
	return sys, buildFn(sys)
}

func runPolicyStress(t *testing.T, buildFn func(*machine.System) *TokenSystem, seed uint64) *machine.System {
	t.Helper()
	sys, ts := newPolicySystem(t, buildFn, 16, seed)
	gen := &uniformGen{blocks: 24, pWrite: 0.4, think: 5 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(ts.Caches), gen, 300); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if err := ts.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	return sys
}

func TestTokenDStressIsCorrect(t *testing.T) {
	runPolicyStress(t, BuildTokenD, 101)
}

func TestTokenMStressIsCorrect(t *testing.T) {
	runPolicyStress(t, BuildTokenM, 102)
}

func TestTokenDBasicSharing(t *testing.T) {
	sys, ts := newPolicySystem(t, BuildTokenD, 4, 103)
	const addr = msg.Addr(0x1000)
	w := access(sys, ts.Caches[0], addr, true)
	finish(t, sys, ts, w)
	// The home's soft state now knows cache 0 owns the block; a read from
	// cache 2 must be redirected there and succeed.
	r := access(sys, ts.Caches[2], addr, false)
	finish(t, sys, ts, r)
	l := ts.Caches[2].L2.Lookup(msg.BlockOf(addr))
	if l == nil || l.Tokens == 0 || !l.Valid {
		t.Fatalf("redirected read failed: %+v", l)
	}
}

func TestTokenDUsesLessRequestTrafficThanTokenB(t *testing.T) {
	trafficOf := func(buildFn func(*machine.System) *TokenSystem) uint64 {
		sys, ts := newPolicySystem(t, buildFn, 16, 104)
		gen := &uniformGen{blocks: 512, pWrite: 0.3, think: 5 * sim.Nanosecond}
		if err := sys.Execute(machine.Controllers(ts.Caches), gen, 200); err != nil {
			t.Fatalf("execute: %v", err)
		}
		return sys.Metrics.Count("bytes_request")
	}
	b := trafficOf(BuildTokenB)
	d := trafficOf(BuildTokenD)
	if float64(d) > 0.5*float64(b) {
		t.Errorf("TokenD request bytes (%d) should be well under half of TokenB (%d)", d, b)
	}
}

func TestTokenMTrafficBetweenTokenDAndTokenB(t *testing.T) {
	trafficOf := func(buildFn func(*machine.System) *TokenSystem) uint64 {
		sys, ts := newPolicySystem(t, buildFn, 16, 105)
		gen := &uniformGen{blocks: 64, pWrite: 0.3, think: 5 * sim.Nanosecond}
		if err := sys.Execute(machine.Controllers(ts.Caches), gen, 200); err != nil {
			t.Fatalf("execute: %v", err)
		}
		return sys.Metrics.Count("bytes_request")
	}
	b := trafficOf(BuildTokenB)
	m := trafficOf(BuildTokenM)
	if m >= b {
		t.Errorf("TokenM request bytes (%d) not below TokenB (%d)", m, b)
	}
}

func TestHolderSetLRU(t *testing.T) {
	var h holderSet
	for _, n := range []msg.NodeID{1, 2, 3, 4} {
		h.add(n)
	}
	h.add(2) // duplicate: no change
	if h.n != 4 {
		t.Fatalf("n = %d, want 4", h.n)
	}
	h.add(5) // evicts 1
	found := map[msg.NodeID]bool{}
	for i := 0; i < h.n; i++ {
		found[h.nodes[i]] = true
	}
	if found[1] || !found[5] || !found[2] {
		t.Errorf("holder set after overflow = %v", h.nodes)
	}
}

func TestPredictPolicyFallsBackToBroadcastOnReissue(t *testing.T) {
	sys, ts := newPolicySystem(t, BuildTokenM, 4, 106)
	c := ts.Caches[0]
	m := &machine.MSHR{Block: 5}
	first := c.policy.Destinations(c, m, false, nil)
	re := c.policy.Destinations(c, m, true, nil)
	if len(first) != 1 {
		t.Errorf("untrained prediction sent to %d ports, want home only", len(first))
	}
	if len(re) != 4 { // 3 other caches + home
		t.Errorf("reissue sent to %d ports, want broadcast (4)", len(re))
	}
	_ = sys
}
