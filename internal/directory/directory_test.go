package directory

import (
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

func newDirSystem(t *testing.T, seed uint64, mutate func(*machine.Config)) (*machine.System, *System) {
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

func TestColdReadFromMemory(t *testing.T) {
	sys, s := newDirSystem(t, 1, nil)
	const addr = msg.Addr(0x100)
	b := msg.BlockOf(addr)
	r := access(sys, s.Caches[2], addr, false)
	finish(t, sys, r)
	l := s.Caches[2].L2.Lookup(b)
	if l == nil || l.State != machine.StateS {
		t.Fatalf("reader line = %+v, want S", l)
	}
	state, _, sharers := s.Mems[msg.HomeOf(b, 16)].State(b)
	if dirState(state) != dirS || sharers != 1 {
		t.Errorf("dir = (%d, sharers=%d), want (dirS, 1)", state, sharers)
	}
}

func TestColdWriteGetsExclusive(t *testing.T) {
	sys, s := newDirSystem(t, 2, nil)
	const addr = msg.Addr(0x200)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[0], addr, true)
	finish(t, sys, w)
	l := s.Caches[0].L2.Lookup(b)
	if l == nil || l.State != machine.StateM {
		t.Fatalf("writer line = %+v, want M", l)
	}
	state, owner, _ := s.Mems[msg.HomeOf(b, 16)].State(b)
	if dirState(state) != dirM || owner != 0 {
		t.Errorf("dir = (%d, owner=%d), want (dirM, 0)", state, owner)
	}
}

func TestCacheToCacheForwarding(t *testing.T) {
	sys, s := newDirSystem(t, 3, nil)
	const addr = msg.Addr(0x300)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[1], addr, true)
	finish(t, sys, w)
	// GetS forwarded to owner; migratory (written) -> exclusive handover.
	r := access(sys, s.Caches[4], addr, false)
	finish(t, sys, r)
	l := s.Caches[4].L2.Lookup(b)
	if l == nil || l.State != machine.StateM {
		t.Fatalf("reader line = %+v, want M (migratory)", l)
	}
	state, owner, _ := s.Mems[msg.HomeOf(b, 16)].State(b)
	if dirState(state) != dirM || owner != 4 {
		t.Errorf("dir = (%d, owner=%d), want (dirM, 4)", state, owner)
	}
}

func TestNonMigratoryGetSCreatesOwnerAndSharer(t *testing.T) {
	sys, s := newDirSystem(t, 4, nil)
	const addr = msg.Addr(0x400)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[1], addr, true)
	finish(t, sys, w)
	r1 := access(sys, s.Caches[2], addr, false) // migratory -> M at cache 2
	finish(t, sys, r1)
	r2 := access(sys, s.Caches[3], addr, false) // cache 2 has not written: -> O/S
	finish(t, sys, r2)
	l2 := s.Caches[2].L2.Lookup(b)
	l3 := s.Caches[3].L2.Lookup(b)
	if l2 == nil || l2.State != machine.StateO {
		t.Fatalf("cache 2 line = %+v, want O", l2)
	}
	if l3 == nil || l3.State != machine.StateS {
		t.Fatalf("cache 3 line = %+v, want S", l3)
	}
	state, owner, sharers := s.Mems[msg.HomeOf(b, 16)].State(b)
	if dirState(state) != dirO || owner != 2 || sharers != 1 {
		t.Errorf("dir = (%d, owner=%d, sharers=%d), want (dirO, 2, 1)", state, owner, sharers)
	}
}

func TestWriteInvalidatesSharersWithAcks(t *testing.T) {
	sys, s := newDirSystem(t, 5, nil)
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
			t.Errorf("cache %d = %+v after invalidation", i, l)
		}
	}
	state, owner, _ := s.Mems[msg.HomeOf(b, 16)].State(b)
	if dirState(state) != dirM || owner != 0 {
		t.Errorf("dir = (%d, owner=%d), want (dirM, 0)", state, owner)
	}
}

func TestUpgradeFromOwnerUsesGrant(t *testing.T) {
	sys, s := newDirSystem(t, 6, nil)
	const addr = msg.Addr(0x600)
	b := msg.BlockOf(addr)
	w := access(sys, s.Caches[1], addr, true)
	finish(t, sys, w)
	r1 := access(sys, s.Caches[2], addr, false) // migratory -> M at 2
	finish(t, sys, r1)
	r2 := access(sys, s.Caches[3], addr, false) // 2 -> O, 3 -> S
	finish(t, sys, r2)
	// Cache 2 (owner, O) writes: dataless grant + invalidation of 3.
	w2 := access(sys, s.Caches[2], addr, true)
	finish(t, sys, w2)
	l := s.Caches[2].L2.Lookup(b)
	if l == nil || l.State != machine.StateM {
		t.Fatalf("upgraded line = %+v, want M", l)
	}
	if l3 := s.Caches[3].L2.Lookup(b); l3 != nil && l3.State != machine.StateI {
		t.Errorf("sharer not invalidated: %+v", l3)
	}
}

func TestWritebackToHome(t *testing.T) {
	sys, s := newDirSystem(t, 7, func(c *machine.Config) {
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
	b := msg.BlockOf(a)
	state, _, _ := s.Mems[msg.HomeOf(b, 16)].State(b)
	if dirState(state) != dirI {
		t.Fatalf("dir state after writeback = %d, want dirI", state)
	}
	r := access(sys, s.Caches[9], a, false)
	finish(t, sys, r)
}

func TestRacingWrites(t *testing.T) {
	sys, s := newDirSystem(t, 8, nil)
	const addr = msg.Addr(0x800)
	var dones []*bool
	for i := 0; i < 10; i++ {
		dones = append(dones, access(sys, s.Caches[i], addr, true))
	}
	finish(t, sys, dones...)
	if got := sys.Oracle.Latest(msg.BlockOf(addr)); got != 10 {
		t.Errorf("final version = %d, want 10", got)
	}
}

func TestRacingReadersWithWriter(t *testing.T) {
	sys, s := newDirSystem(t, 9, nil)
	const addr = msg.Addr(0x900)
	var dones []*bool
	dones = append(dones, access(sys, s.Caches[0], addr, true))
	for i := 1; i < 10; i++ {
		dones = append(dones, access(sys, s.Caches[i], addr, false))
	}
	finish(t, sys, dones...)
}

func TestPerfectDirectoryCacheLatency(t *testing.T) {
	// With DirLatency=0 the forwarded path is faster; both must be correct.
	slow, sSlow := newDirSystem(t, 10, nil)
	fast, sFast := newDirSystem(t, 10, func(c *machine.Config) { c.DirLatency = 0 })
	gen := &uniformGen{blocks: 8, pWrite: 0.5, think: 4 * sim.Nanosecond}
	if err := slow.Execute(machine.Controllers(sSlow.Caches), gen, 200); err != nil {
		t.Fatalf("slow: %v", err)
	}
	genF := &uniformGen{blocks: 8, pWrite: 0.5, think: 4 * sim.Nanosecond}
	if err := fast.Execute(machine.Controllers(sFast.Caches), genF, 200); err != nil {
		t.Fatalf("fast: %v", err)
	}
	slowNs, _ := slow.Metrics.Value("elapsed_ns")
	fastNs, _ := fast.Metrics.Value("elapsed_ns")
	if fastNs >= slowNs {
		t.Errorf("perfect directory (%vns) not faster than DRAM directory (%vns)", fastNs, slowNs)
	}
}

func TestStress(t *testing.T) {
	for _, seed := range []uint64{51, 52, 53} {
		seed := seed
		t.Run("", func(t *testing.T) {
			sys, s := newDirSystem(t, seed, nil)
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
	sys, s := newDirSystem(t, 60, nil)
	gen := &uniformGen{blocks: 2, pWrite: 0.6, think: 1 * sim.Nanosecond}
	if err := sys.Execute(machine.Controllers(s.Caches), gen, 150); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

func TestStressTinyCachesWritebackRaces(t *testing.T) {
	sys, s := newDirSystem(t, 61, func(c *machine.Config) {
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

// TestSharerAbove64Invalidated: the full-map directory tracks sharers by
// node ID across the whole machine, so on 128 processors a sharer
// numbered above 64 is recorded, invalidated by another node's write
// like any other, and re-reads the new version.
func TestSharerAbove64Invalidated(t *testing.T) {
	sys, s := newDirSystem(t, 9, func(c *machine.Config) {
		c.Procs = 128
		c.TokensPerBlock = 2 * c.Procs
	})
	const addr = msg.Addr(0x900)
	b := msg.BlockOf(addr)
	finish(t, sys, access(sys, s.Caches[100], addr, false))
	state, _, sharers := s.Mems[msg.HomeOf(b, 128)].State(b)
	if dirState(state) != dirS || sharers != 1 {
		t.Errorf("after node 100's read, dir = (%d, sharers=%d), want (dirS, 1)", state, sharers)
	}
	finish(t, sys, access(sys, s.Caches[3], addr, true))
	if l := s.Caches[100].L2.Lookup(b); l != nil && l.Valid {
		t.Errorf("node 100 kept a valid copy after node 3's write: %+v", l)
	}
	finish(t, sys, access(sys, s.Caches[100], addr, false))
	if l, v := s.Caches[100].L2.Lookup(b), sys.Oracle.Latest(b); l == nil || l.Data != v {
		t.Errorf("node 100 re-read line = %+v, want data v%d", l, v)
	}
}
