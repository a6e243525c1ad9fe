package snooping

import (
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

func newSnoopSystem(t *testing.T, seed uint64, mutate func(*machine.Config)) (*machine.System, *System) {
	t.Helper()
	cfg := machine.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sys := machine.NewSystem(cfg, topology.NewTree(cfg.Procs), seed)
	return sys, Build(sys)
}

func access(sys *machine.System, c *Cache, addr msg.Addr, write bool) *bool {
	done := new(bool)
	c.Access(machine.Op{Addr: addr, Write: write}, func() { *done = true })
	return done
}

func finish(t *testing.T, sys *machine.System, done ...*bool) {
	t.Helper()
	sys.K.Run()
	for i, d := range done {
		if !*d {
			t.Fatalf("operation %d did not complete", i)
		}
	}
	if err := sys.Oracle.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

func TestBuildRequiresOrderedFabric(t *testing.T) {
	cfg := machine.DefaultConfig()
	sys := machine.NewSystem(cfg, topology.NewTorus(4, 4), 1)
	defer func() {
		if recover() == nil {
			t.Error("snooping on a torus did not panic")
		}
	}()
	Build(sys)
}

func TestColdWriteGetsMFromMemory(t *testing.T) {
	sys, s := newSnoopSystem(t, 1, nil)
	const addr = msg.Addr(0x100)
	w := access(sys, s.Caches[0], addr, true)
	finish(t, sys, w)
	l := s.Caches[0].L2.Lookup(msg.BlockOf(addr))
	if l == nil || l.State != machine.StateM {
		t.Fatalf("writer line = %+v, want M", l)
	}
	// Memory gave up ownership.
	home := s.Mems[msg.HomeOf(msg.BlockOf(addr), 16)]
	if home.OwnerBit(msg.BlockOf(addr)) {
		t.Error("memory still owner after GetM")
	}
}

func TestReadAfterRemoteWriteTransfersCacheToCache(t *testing.T) {
	sys, s := newSnoopSystem(t, 2, nil)
	const addr = msg.Addr(0x200)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[3], addr, true)
	finish(t, sys, w)
	r := access(sys, s.Caches[7], addr, false)
	finish(t, sys, r)
	// Migratory optimization: the written block moves exclusively.
	l := s.Caches[7].L2.Lookup(b)
	if l == nil || l.State != machine.StateM {
		t.Fatalf("reader line = %+v, want M (migratory grant)", l)
	}
	if lw := s.Caches[3].L2.Lookup(b); lw != nil && lw.State != machine.StateI {
		t.Errorf("old writer line = %+v, want gone/I", lw)
	}
}

func TestNonMigratoryGetSGoesToO(t *testing.T) {
	sys, s := newSnoopSystem(t, 3, nil)
	const addr = msg.Addr(0x300)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[0], addr, true)
	finish(t, sys, w)
	// First GetS migrates (written). The new holder has not written, so a
	// second GetS must produce O + S sharing.
	r1 := access(sys, s.Caches[1], addr, false)
	finish(t, sys, r1)
	r2 := access(sys, s.Caches[2], addr, false)
	finish(t, sys, r2)
	l1 := s.Caches[1].L2.Lookup(b)
	l2 := s.Caches[2].L2.Lookup(b)
	if l1 == nil || l1.State != machine.StateO {
		t.Fatalf("cache 1 line = %+v, want O", l1)
	}
	if l2 == nil || l2.State != machine.StateS {
		t.Fatalf("cache 2 line = %+v, want S", l2)
	}
}

func TestUpgradeCompletesAtOrderPoint(t *testing.T) {
	sys, s := newSnoopSystem(t, 4, nil)
	const addr = msg.Addr(0x400)
	b := msg.BlockOf(addr)
	r := access(sys, s.Caches[1], addr, false)
	finish(t, sys, r)
	w := access(sys, s.Caches[1], addr, true)
	finish(t, sys, w)
	l := s.Caches[1].L2.Lookup(b)
	if l == nil || l.State != machine.StateM {
		t.Fatalf("upgraded line = %+v, want M", l)
	}
	if sys.Metrics.Count("misses") != 2 {
		t.Errorf("misses = %d, want 2", sys.Metrics.Count("misses"))
	}
}

func TestGetMInvalidatesSharers(t *testing.T) {
	sys, s := newSnoopSystem(t, 5, nil)
	const addr = msg.Addr(0x500)
	b := msg.BlockOf(addr)
	var dones []*bool
	for i := 1; i < 6; i++ {
		dones = append(dones, access(sys, s.Caches[i], addr, false))
		finish(t, sys, dones...)
	}
	w := access(sys, s.Caches[0], addr, true)
	finish(t, sys, w)
	for i := 1; i < 6; i++ {
		if l := s.Caches[i].L2.Lookup(b); l != nil && l.State != machine.StateI {
			t.Errorf("cache %d line = %+v after remote GetM, want invalid", i, l)
		}
	}
}

func TestWritebackReachesMemory(t *testing.T) {
	sys, s := newSnoopSystem(t, 6, func(c *machine.Config) {
		c.L2Size = 2 * msg.BlockSize
		c.L2Assoc = 1
		c.L1Size = msg.BlockSize
		c.L1Assoc = 1
	})
	c := s.Caches[0]
	a := msg.Addr(0)
	conflict := msg.Addr(2 * msg.BlockSize)
	w1 := access(sys, c, a, true)
	finish(t, sys, w1)
	w2 := access(sys, c, conflict, true) // evicts block of a
	finish(t, sys, w2)
	home := s.Mems[msg.HomeOf(msg.BlockOf(a), 16)]
	if !home.OwnerBit(msg.BlockOf(a)) {
		t.Fatal("memory did not regain ownership after writeback")
	}
	// A later read must see the written data (served by memory).
	r := access(sys, s.Caches[5], a, false)
	finish(t, sys, r)
}

func TestRacingWritesSameBlock(t *testing.T) {
	sys, s := newSnoopSystem(t, 7, nil)
	const addr = msg.Addr(0x700)
	var dones []*bool
	for i := 0; i < 8; i++ {
		dones = append(dones, access(sys, s.Caches[i], addr, true))
	}
	finish(t, sys, dones...)
	if got := sys.Oracle.Latest(msg.BlockOf(addr)); got != 8 {
		t.Errorf("final version = %d, want 8", got)
	}
	// Exactly one M owner at the end.
	owners := 0
	for _, c := range s.Caches {
		if l := c.L2.Lookup(msg.BlockOf(addr)); l != nil && l.State == machine.StateM {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d M-state owners after racing writes, want 1", owners)
	}
}

func TestRacingReadersAndWriter(t *testing.T) {
	sys, s := newSnoopSystem(t, 8, nil)
	const addr = msg.Addr(0x800)
	var dones []*bool
	dones = append(dones, access(sys, s.Caches[0], addr, true))
	for i := 1; i < 8; i++ {
		dones = append(dones, access(sys, s.Caches[i], addr, false))
	}
	finish(t, sys, dones...)
}

func TestStress(t *testing.T) {
	for _, seed := range []uint64{31, 32, 33} {
		seed := seed
		t.Run("", func(t *testing.T) {
			sys, s := newSnoopSystem(t, seed, nil)
			gen := &uniformGen{blocks: 24, pWrite: 0.4, think: 5 * sim.Nanosecond}
			err := sys.Execute(machine.Controllers(s.Caches), gen, 300)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if sys.Metrics.Count("misses") == 0 {
				t.Error("no misses in stress run")
			}
			// Snooping never reissues.
			if sys.Metrics.Count("misses_reissued_once")+sys.Metrics.Count("misses_reissued_more")+sys.Metrics.Count("misses_persistent") != 0 {
				t.Error("snooping reported reissued/persistent misses")
			}
		})
	}
}

func TestStressHighContention(t *testing.T) {
	sys, s := newSnoopSystem(t, 40, nil)
	gen := &uniformGen{blocks: 2, pWrite: 0.6, think: 1 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(s.Caches), gen, 150); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

func TestStressTinyCachesWritebackRaces(t *testing.T) {
	sys, s := newSnoopSystem(t, 41, func(c *machine.Config) {
		c.L2Size = 4 * msg.BlockSize
		c.L2Assoc = 1
		c.L1Size = msg.BlockSize
		c.L1Assoc = 1
	})
	gen := &uniformGen{blocks: 12, pWrite: 0.5, think: 2 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(s.Caches), gen, 250); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

type uniformGen struct {
	blocks int
	pWrite float64
	think  sim.Time
}

func (g *uniformGen) Next(proc int, rng *sim.Source) machine.Op {
	return machine.Op{
		Addr:  msg.Addr(rng.Intn(g.blocks)) * msg.BlockSize,
		Write: rng.Bool(g.pWrite),
		Think: g.think,
	}
}
