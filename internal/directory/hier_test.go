package directory

import (
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

// newDir2System builds the two-level directory on the fanout-4 tree,
// whose root-child subtrees give 16 processors four 4-node clusters.
func newDir2System(t *testing.T, seed uint64, mutate func(*machine.Config)) (*machine.System, *System2) {
	t.Helper()
	cfg := machine.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sys := machine.NewSystem(cfg, topology.NewTree(cfg.Procs), seed)
	s, err := Build2(sys)
	if err != nil {
		t.Fatal(err)
	}
	return sys, s
}

// clusterHomeOf returns the node serving block b in node n's cluster.
func clusterHomeOf(s *System2, n msg.NodeID, b msg.Block) msg.NodeID {
	return s.Caches[n].Scope.Home(b)
}

// auditDir2 checks the two tiers agree at quiescence: no transaction in
// flight anywhere, and every held authority is claimed by exactly the
// cluster home the global tier granted it to.
func auditDir2(t *testing.T, s *System2) {
	t.Helper()
	holders := make(map[msg.Block]msg.NodeID)
	for _, g := range s.Global {
		for b, e := range g.lines.Unordered() {
			if e.busy {
				t.Errorf("block %d: authority recall still in flight at quiescence", b)
			}
			if e.held {
				holders[b] = e.holder
			}
		}
	}
	claims := make(map[msg.Block][]msg.NodeID)
	for _, h := range s.Homes {
		for b, a := range h.auths.Unordered() {
			if a.acquiring || a.recalling || a.pendingRecall {
				t.Errorf("block %d: cluster home %d still mid-transition at quiescence", b, h.id)
			}
			if a.have {
				claims[b] = append(claims[b], h.id)
			}
		}
	}
	for b, holder := range holders {
		cs := claims[b]
		if len(cs) != 1 || cs[0] != holder {
			t.Errorf("block %d: global tier granted node %d but cluster claims are %v", b, holder, cs)
		}
	}
	for b, cs := range claims {
		if _, held := holders[b]; !held {
			t.Errorf("block %d: claimed by %v but the global tier shows it released", b, cs)
		}
	}
}

func TestDir2ClusterPrivateRead(t *testing.T) {
	sys, s := newDir2System(t, 1, nil)
	const addr = msg.Addr(0x100)
	b := msg.BlockOf(addr)
	done := new(bool)
	s.Caches[2].Access(machine.Op{Addr: addr}, func() { *done = true })
	sys.K.Run()
	if !*done {
		t.Fatal("read did not complete")
	}
	if err := sys.Oracle.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if l := s.Caches[2].L2.Lookup(b); l == nil || l.State != machine.StateS {
		t.Fatalf("reader line = %+v, want S", l)
	}
	home := clusterHomeOf(s, 2, b)
	if home < 0 || home > 3 {
		t.Fatalf("cluster home %d for node 2 is outside cluster {0..3}", home)
	}
	have, _, _ := s.Homes[home].Authority(b)
	if !have {
		t.Errorf("cluster home %d did not acquire authority for block %d", home, b)
	}
	held, holder := s.Global[msg.HomeOf(b, 16)].Holder(b)
	if !held || holder != home {
		t.Errorf("global authority (held=%v holder=%d), want held by %d", held, holder, home)
	}
	auditDir2(t, s)
}

func TestDir2CrossClusterWriteRecallsAuthority(t *testing.T) {
	sys, s := newDir2System(t, 2, nil)
	const addr = msg.Addr(0x100) // block 4: cluster homes at nodes 0 and 4
	b := msg.BlockOf(addr)
	d0 := new(bool)
	s.Caches[0].Access(machine.Op{Addr: addr, Write: true}, func() { *d0 = true })
	sys.K.Run()
	d1 := new(bool)
	s.Caches[4].Access(machine.Op{Addr: addr, Write: true}, func() { *d1 = true })
	sys.K.Run()
	if !*d0 || !*d1 {
		t.Fatal("writes did not complete")
	}
	if err := sys.Oracle.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	home0, home1 := clusterHomeOf(s, 0, b), clusterHomeOf(s, 4, b)
	if have, _, _ := s.Homes[home0].Authority(b); have {
		t.Errorf("cluster home %d kept authority across the recall", home0)
	}
	if have, _, _ := s.Homes[home1].Authority(b); !have {
		t.Errorf("cluster home %d did not gain authority", home1)
	}
	if held, holder := s.Global[msg.HomeOf(b, 16)].Holder(b); !held || holder != home1 {
		t.Errorf("global authority (held=%v holder=%d), want held by %d", held, holder, home1)
	}
	// The recall invalidated the first writer's copy.
	if l := s.Caches[0].L2.Lookup(b); l != nil && l.Valid {
		t.Errorf("node 0 still holds a valid copy after the recall: %+v", l)
	}
	auditDir2(t, s)
}

func TestDir2Stress(t *testing.T) {
	for _, seed := range []uint64{71, 72, 73} {
		t.Run("", func(t *testing.T) {
			sys, s := newDir2System(t, seed, nil)
			gen := &uniformGen{blocks: 24, pWrite: 0.4, think: 5 * sim.Nanosecond}
			err := sys.Execute(machine.Controllers(s.Caches), gen, 300)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if sys.Metrics.Count("misses") == 0 {
				t.Error("no misses in stress run")
			}
			auditDir2(t, s)
		})
	}
}

func TestDir2StressHighContention(t *testing.T) {
	sys, s := newDir2System(t, 80, nil)
	gen := &uniformGen{blocks: 2, pWrite: 0.6, think: 1 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(s.Caches), gen, 150); err != nil {
		t.Fatalf("execute: %v", err)
	}
	auditDir2(t, s)
}

func TestDir2StressTinyCachesWritebackRaces(t *testing.T) {
	sys, s := newDir2System(t, 81, func(c *machine.Config) {
		c.L2Size = 4 * msg.BlockSize
		c.L2Assoc = 1
		c.L1Size = msg.BlockSize
		c.L1Assoc = 1
	})
	gen := &uniformGen{blocks: 12, pWrite: 0.5, think: 2 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(s.Caches), gen, 250); err != nil {
		t.Fatalf("execute: %v", err)
	}
	auditDir2(t, s)
}

// TestDir2LargeClusters runs the two-level directory on a 256-processor
// binary tree, whose two root subtrees make 128-node clusters: cluster
// homes track sharers by node ID, so a cluster may be any size. The run
// must finish oracle-clean with the tiers in agreement at quiescence.
func TestDir2LargeClusters(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Procs = 256
	cfg.TokensPerBlock = 2 * cfg.Procs
	sys := machine.NewSystem(cfg, topology.NewTreeFanout(cfg.Procs, 2), 82)
	s, err := Build2(sys)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Caches[200].Scope.Members); n != 128 {
		t.Fatalf("node 200's cluster has %d members, want 128", n)
	}
	gen := &uniformGen{blocks: 16, pWrite: 0.4, think: 5 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(s.Caches), gen, 20); err != nil {
		t.Fatalf("execute: %v", err)
	}
	sys.Cluster.Run(func(sim.Time) bool { return false })
	auditDir2(t, s)
}
