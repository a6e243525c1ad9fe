package hammer

import (
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

func newHammerSystem(t *testing.T, seed uint64, mutate func(*machine.Config)) (*machine.System, *System) {
	t.Helper()
	cfg := machine.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sys := machine.NewSystem(cfg, topology.NewTorusFor(cfg.Procs), seed)
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

func TestColdReadUsesMemoryData(t *testing.T) {
	sys, s := newHammerSystem(t, 1, nil)
	const addr = msg.Addr(0x100)
	r := access(sys, s.Caches[2], addr, false)
	finish(t, sys, r)
	l := s.Caches[2].L2.Lookup(msg.BlockOf(addr))
	if l == nil || l.State != machine.StateS {
		t.Fatalf("reader line = %+v, want S", l)
	}
}

func TestEveryProcessorAcknowledges(t *testing.T) {
	sys, s := newHammerSystem(t, 2, nil)
	const addr = msg.Addr(0x200)
	w := access(sys, s.Caches[0], addr, true)
	finish(t, sys, w)
	// 15 probe responses (all acks, nobody had data) must have crossed
	// the interconnect: that is Hammer's defining overhead.
	if got := sys.Metrics.Count("msgs_control"); got < 15 {
		t.Errorf("control traversals = %d, want >= 15 (one ack per probed node)", got)
	}
}

func TestOwnerDataBeatsStaleMemory(t *testing.T) {
	sys, s := newHammerSystem(t, 3, nil)
	const addr = msg.Addr(0x300)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[1], addr, true)
	finish(t, sys, w)
	// Memory's copy is stale (version 0); the reader must get version 1
	// from the owner's probe response. The oracle verifies freshness.
	r := access(sys, s.Caches[2], addr, false)
	finish(t, sys, r)
	l := s.Caches[2].L2.Lookup(b)
	if l == nil || l.Data != 1 {
		t.Fatalf("reader got %+v, want owner's version 1", l)
	}
	if l.State != machine.StateM {
		t.Errorf("written block should migrate exclusively, got state %d", l.State)
	}
}

func TestNonMigratorySharing(t *testing.T) {
	sys, s := newHammerSystem(t, 4, nil)
	const addr = msg.Addr(0x400)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[0], addr, true)
	finish(t, sys, w)
	r1 := access(sys, s.Caches[1], addr, false) // migratory -> M at 1
	finish(t, sys, r1)
	r2 := access(sys, s.Caches[2], addr, false) // 1 has not written -> O/S
	finish(t, sys, r2)
	l1 := s.Caches[1].L2.Lookup(b)
	l2 := s.Caches[2].L2.Lookup(b)
	if l1 == nil || l1.State != machine.StateO {
		t.Fatalf("cache 1 = %+v, want O", l1)
	}
	if l2 == nil || l2.State != machine.StateS {
		t.Fatalf("cache 2 = %+v, want S", l2)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	sys, s := newHammerSystem(t, 5, nil)
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
			t.Errorf("cache %d = %+v after exclusive probe", i, l)
		}
	}
}

func TestWritebackKeepsMemoryCurrent(t *testing.T) {
	sys, s := newHammerSystem(t, 6, func(c *machine.Config) {
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
	w2 := access(sys, c, conflict, true)
	finish(t, sys, w2)
	// After the writeback nobody owns block a; a read must get the
	// written version from memory (the oracle checks freshness).
	r := access(sys, s.Caches[9], a, false)
	finish(t, sys, r)
	l := s.Caches[9].L2.Lookup(msg.BlockOf(a))
	if l == nil || l.Data != 1 {
		t.Fatalf("memory served %+v, want written version 1", l)
	}
}

func TestRacingWrites(t *testing.T) {
	sys, s := newHammerSystem(t, 7, nil)
	const addr = msg.Addr(0x700)
	var dones []*bool
	for i := 0; i < 10; i++ {
		dones = append(dones, access(sys, s.Caches[i], addr, true))
	}
	finish(t, sys, dones...)
	if got := sys.Oracle.Latest(msg.BlockOf(addr)); got != 10 {
		t.Errorf("final version = %d, want 10", got)
	}
}

func TestStress(t *testing.T) {
	for _, seed := range []uint64{71, 72, 73} {
		seed := seed
		t.Run("", func(t *testing.T) {
			sys, s := newHammerSystem(t, seed, nil)
			gen := &uniformGen{blocks: 24, pWrite: 0.4, think: 5 * sim.Nanosecond}
			err := sys.Execute(machine.Controllers(s.Caches), gen, 300)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if sys.Metrics.Count("misses") == 0 {
				t.Error("no misses in stress run")
			}
		})
	}
}

func TestStressHighContention(t *testing.T) {
	sys, s := newHammerSystem(t, 80, nil)
	gen := &uniformGen{blocks: 2, pWrite: 0.6, think: 1 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(s.Caches), gen, 150); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

func TestStressTinyCachesWritebackRaces(t *testing.T) {
	sys, s := newHammerSystem(t, 81, func(c *machine.Config) {
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
