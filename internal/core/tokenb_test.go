package core

import (
	"testing"

	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

// newTokenSystem builds a TokenB machine on a 4x4 torus (or a smaller
// torus for fewer procs) with test-friendly defaults.
func newTokenSystem(t *testing.T, procs int, seed uint64, mutate func(*machine.Config)) (*machine.System, *TokenSystem) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	if cfg.TokensPerBlock < procs {
		cfg.TokensPerBlock = procs
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys := machine.NewSystem(cfg, topology.NewTorusFor(procs), seed)
	return sys, BuildTokenB(sys)
}

// access drives one memory operation and returns a completion flag.
func access(sys *machine.System, c *TokenB, addr msg.Addr, write bool) *bool {
	done := new(bool)
	c.Access(machine.Op{Addr: addr, Write: write}, func() { *done = true })
	return done
}

func finish(t *testing.T, sys *machine.System, ts *TokenSystem, done ...*bool) {
	t.Helper()
	sys.K.Run()
	for i, d := range done {
		if !*d {
			t.Fatalf("operation %d did not complete (deadlock)", i)
		}
	}
	if err := sys.Oracle.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if err := ts.Audit(); err != nil {
		t.Fatalf("token audit: %v", err)
	}
}

func TestSingleWriteThenRead(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 1, nil)
	c := ts.Caches[0]
	const addr = msg.Addr(0x1000)
	w := access(sys, c, addr, true)
	finish(t, sys, ts, w)
	// The writer must now hold all tokens.
	l := c.L2.Lookup(msg.BlockOf(addr))
	if l == nil || l.Tokens != ts.Ledger.T || !l.Owner || !l.Valid || !l.Dirty {
		t.Fatalf("writer line = %+v, want all %d tokens, owner, valid, dirty", l, ts.Ledger.T)
	}
	r := access(sys, c, addr, false)
	finish(t, sys, ts, r)
	if sys.Metrics.Count("misses") != 1 {
		t.Errorf("misses = %d, want 1 (read hits after write)", sys.Metrics.Count("misses"))
	}
}

func TestReadFromMemoryGrantsOneTokenPath(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 2, nil)
	const addr = msg.Addr(0x2000)
	r := access(sys, ts.Caches[1], addr, false)
	finish(t, sys, ts, r)
	l := ts.Caches[1].L2.Lookup(msg.BlockOf(addr))
	if l == nil || l.Tokens < 1 || !l.Valid {
		t.Fatalf("reader line = %+v, want >=1 token with valid data", l)
	}
	if l.Tokens == ts.Ledger.T {
		t.Errorf("clean read from memory took all %d tokens; memory should keep some", l.Tokens)
	}
}

func TestCacheToCacheTransferOnWrite(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 3, nil)
	const addr = msg.Addr(0x3000)
	b := msg.BlockOf(addr)
	w0 := access(sys, ts.Caches[0], addr, true)
	finish(t, sys, ts, w0)
	w1 := access(sys, ts.Caches[1], addr, true)
	finish(t, sys, ts, w1)
	if l := ts.Caches[0].L2.Lookup(b); l != nil && l.Tokens != 0 {
		t.Errorf("old writer still holds %d tokens", l.Tokens)
	}
	l := ts.Caches[1].L2.Lookup(b)
	if l == nil || l.Tokens != ts.Ledger.T {
		t.Fatalf("new writer line = %+v, want all tokens", l)
	}
	if got := sys.Oracle.Latest(b); got != 2 {
		t.Errorf("block version = %d, want 2", got)
	}
}

func TestMultipleReadersShareTokens(t *testing.T) {
	sys, ts := newTokenSystem(t, 8, 4, nil)
	const addr = msg.Addr(0x4000)
	b := msg.BlockOf(addr)
	w := access(sys, ts.Caches[0], addr, true)
	finish(t, sys, ts, w)
	// Several readers: the first takes the migratory grant; later ones
	// pull single tokens from the new owner.
	var dones []*bool
	for i := 1; i < 5; i++ {
		dones = append(dones, access(sys, ts.Caches[i], addr, false))
		finish(t, sys, ts, dones...)
	}
	readers := 0
	for _, c := range ts.Caches {
		if l := c.L2.Lookup(b); l != nil && l.Tokens > 0 && l.Valid {
			readers++
		}
	}
	if readers < 3 {
		t.Errorf("only %d caches hold readable copies, want >=3 concurrent readers", readers)
	}
}

func TestMigratoryOptimizationGrantsAllTokens(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 5, nil)
	const addr = msg.Addr(0x5000)
	b := msg.BlockOf(addr)
	w := access(sys, ts.Caches[0], addr, true)
	finish(t, sys, ts, w)
	// A GetS hitting a dirty M-state block receives ALL tokens
	// (migratory-sharing optimization), so the reader can write next
	// without another miss.
	r := access(sys, ts.Caches[2], addr, false)
	finish(t, sys, ts, r)
	l := ts.Caches[2].L2.Lookup(b)
	if l == nil || l.Tokens != ts.Ledger.T {
		t.Fatalf("migratory reader got %+v, want all %d tokens", l, ts.Ledger.T)
	}
	if lw := ts.Caches[0].L2.Lookup(b); lw != nil && lw.Tokens > 0 {
		t.Errorf("old writer kept %d tokens after migratory grant", lw.Tokens)
	}
}

func TestCleanSharedReadIsNotMigratory(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 6, nil)
	const addr = msg.Addr(0x6000)
	b := msg.BlockOf(addr)
	// Reader 1 gets data from memory (clean).
	r1 := access(sys, ts.Caches[1], addr, false)
	finish(t, sys, ts, r1)
	// Reader 2 should get a single token, not the whole block.
	r2 := access(sys, ts.Caches[2], addr, false)
	finish(t, sys, ts, r2)
	l1 := ts.Caches[1].L2.Lookup(b)
	l2 := ts.Caches[2].L2.Lookup(b)
	if l1 == nil || l1.Tokens == 0 {
		t.Error("reader 1 lost its copy after a clean shared read")
	}
	if l2 == nil || l2.Tokens == 0 || l2.Tokens == ts.Ledger.T {
		t.Errorf("reader 2 tokens = %+v, want a partial share", l2)
	}
}

// TestFigure2Race reproduces the paper's motivating example: a GetM from
// P0 racing a GetS from P1 on the same block. Token counting resolves it
// without any interconnect ordering; both operations complete and the
// oracle observes coherent data.
func TestFigure2Race(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 7, nil)
	const addr = msg.Addr(0x7000)
	var w, r *bool
	sys.K.Schedule(0, func() { w = access(sys, ts.Caches[0], addr, true) })
	sys.K.Schedule(0, func() { r = access(sys, ts.Caches[1], addr, false) })
	sys.K.Run()
	if !*w || !*r {
		t.Fatal("racing requests did not both complete")
	}
	if err := sys.Oracle.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if err := ts.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestWriterInvalidatesAllReaders(t *testing.T) {
	sys, ts := newTokenSystem(t, 8, 8, nil)
	const addr = msg.Addr(0x8000)
	b := msg.BlockOf(addr)
	var dones []*bool
	for i := 1; i < 6; i++ {
		dones = append(dones, access(sys, ts.Caches[i], addr, false))
	}
	finish(t, sys, ts, dones...)
	w := access(sys, ts.Caches[0], addr, true)
	finish(t, sys, ts, w)
	for i, c := range ts.Caches {
		l := c.L2.Lookup(b)
		if i == 0 {
			if l == nil || l.Tokens != ts.Ledger.T {
				t.Fatalf("writer holds %+v, want all tokens", l)
			}
			continue
		}
		if l != nil && l.Tokens > 0 {
			t.Errorf("cache %d still holds %d tokens after exclusive write", i, l.Tokens)
		}
	}
}

func TestEvictionWritesBackToMemory(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 9, func(c *machine.Config) {
		c.L2Size = 2 * msg.BlockSize // two lines total
		c.L2Assoc = 1
		c.L1Size = msg.BlockSize
		c.L1Assoc = 1
	})
	c := ts.Caches[0]
	// Write block A, then write conflicting blocks to force eviction.
	a := msg.Addr(0)                     // set 0
	bAddr := msg.Addr(2 * msg.BlockSize) // set 0 again (2 sets, stride 2)
	w1 := access(sys, c, a, true)
	finish(t, sys, ts, w1)
	w2 := access(sys, c, bAddr, true)
	finish(t, sys, ts, w2)
	// Block A must have been written back to its home with its data.
	home := ts.Mems[msg.HomeOf(msg.BlockOf(a), 4)]
	tokens, owner := home.Tokens(msg.BlockOf(a))
	if tokens != ts.Ledger.T || !owner {
		t.Fatalf("home holds %d tokens (owner=%v) after eviction, want all", tokens, owner)
	}
	// Reading A again must return the written version.
	r := access(sys, ts.Caches[1], a, false)
	finish(t, sys, ts, r)
}

func TestPersistentRequestEscalation(t *testing.T) {
	// MaxReissues=0 and BackoffFactor=0 make every timed-out miss
	// escalate straight to a persistent request, exercising the arbiter
	// under heavy contention.
	sys, ts := newTokenSystem(t, 8, 10, func(c *machine.Config) {
		c.MaxReissues = 0
		c.BackoffFactor = 0
	})
	const addr = msg.Addr(0x9000)
	var dones []*bool
	for i := 0; i < 8; i++ {
		i := i
		sys.K.Schedule(sim.Time(i)*sim.Nanosecond, func() {
			dones = append(dones, access(sys, ts.Caches[i], addr, true))
		})
	}
	sys.K.Run()
	for i, d := range dones {
		if !*d {
			t.Fatalf("writer %d starved", i)
		}
	}
	if err := sys.Oracle.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if err := ts.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	var activations uint64
	for _, a := range ts.Arbiters {
		activations += a.Activations
	}
	if activations == 0 {
		t.Error("no persistent requests were activated; test lost its purpose")
	}
	if got := sys.Oracle.Latest(msg.BlockOf(addr)); got != 8 {
		t.Errorf("final version = %d, want 8 (all writes committed)", got)
	}
}

// TestLateActivationAfterRecordReuse: a persistent miss is satisfied by
// a late transient response before the arbiter activates it, and a new
// miss to the same block reuses the retired MSHR record. When the old
// epoch's activation finally arrives, the node must deactivate at once:
// the recycled record carries a different miss, so matching by record
// would mistake it for the starving one and hold the arbiter forever.
func TestLateActivationAfterRecordReuse(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Procs, cfg.TokensPerBlock = 4, 4
	sys := machine.NewSystem(cfg, topology.NewTorusFor(4), 1)
	ledger := NewLedger(cfg.TokensPerBlock)
	c := NewTokenController(sys, 0, ledger, NewBroadcastPolicy())
	var deactivations int
	stub := interconnect.HandlerFunc(func(m *msg.Message) {
		if m.Kind == msg.KindPersistentDeactivate {
			deactivations++
		}
	})
	for n := 0; n < cfg.Procs; n++ {
		for _, u := range []msg.Unit{msg.UnitCache, msg.UnitMem, msg.UnitArbiter} {
			if p := (msg.Port{Node: msg.NodeID(n), Unit: u}); p != c.CachePort() {
				sys.Net.Register(p, stub)
			}
		}
	}

	const b = msg.Block(12)
	c.Access(machine.Op{Addr: b.Base()}, func() {})
	old := c.Outstanding(b)
	oldSerial := old.Serial
	c.goPersistent(old) // the reissue timer ran out: epoch 1

	ledger.InitBlock(b)
	ledger.Sent(b, 1, false, true)
	c.Handle(&msg.Message{
		Kind: msg.KindData, Cat: msg.CatData,
		Src: msg.Port{Node: 1, Unit: msg.UnitMem}, Dst: c.CachePort(), Addr: b.Base(),
		Tokens: 1, HasData: true,
	})
	if c.Outstanding(b) != nil {
		t.Fatal("the transient response did not satisfy the persistent read miss")
	}

	c.Access(machine.Op{Addr: b.Base(), Write: true}, func() {})
	cur := c.Outstanding(b)
	if cur != old || cur.Serial == oldSerial {
		t.Fatalf("upgrade miss got record %p serial %d; want the retired record %p with a serial other than %d",
			cur, cur.Serial, old, oldSerial)
	}

	c.Handle(&msg.Message{
		Kind: msg.KindPersistentActivate, Cat: msg.CatReissue,
		Src: c.ArbiterPort(b), Dst: c.CachePort(), Addr: b.Base(),
		Requester: c.CachePort(), Acks: 1,
	})
	if p := c.persist.Get(b); p.starving != 0 || p.seq != 0 {
		t.Errorf("persistent table still names epoch %d of miss %d", p.seq, p.starving)
	}
	sys.K.Run()
	if deactivations != 1 {
		t.Errorf("late activation of epoch 1 sent %d deactivations, want 1", deactivations)
	}
}

func TestUpgradeFromSharedToModified(t *testing.T) {
	sys, ts := newTokenSystem(t, 4, 11, nil)
	const addr = msg.Addr(0xa000)
	r1 := access(sys, ts.Caches[1], addr, false)
	finish(t, sys, ts, r1)
	r2 := access(sys, ts.Caches[2], addr, false)
	finish(t, sys, ts, r2)
	// Cache 1 upgrades: must gather every token including cache 2's.
	w := access(sys, ts.Caches[1], addr, true)
	finish(t, sys, ts, w)
	l := ts.Caches[1].L2.Lookup(msg.BlockOf(addr))
	if l == nil || l.Tokens != ts.Ledger.T {
		t.Fatalf("upgraded line = %+v, want all tokens", l)
	}
}

func TestConcurrentMixedStress(t *testing.T) {
	seeds := []uint64{21, 22, 23}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			sys, ts := newTokenSystem(t, 16, seed, nil)
			gen := &uniformGen{blocks: 24, pWrite: 0.4, think: 5 * sim.Nanosecond}
			err := sys.Execute(machine.Controllers(ts.Caches), gen, 400)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if err := ts.Audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
			if sys.Metrics.Count("misses") == 0 {
				t.Error("stress run produced no coherence misses")
			}
		})
	}
}

func TestHighContentionSingleBlock(t *testing.T) {
	sys, ts := newTokenSystem(t, 16, 33, nil)
	gen := &uniformGen{blocks: 2, pWrite: 0.6, think: 1 * sim.Nanosecond}
	err := sys.Execute(machine.Controllers(ts.Caches), gen, 150)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if err := ts.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	reissued := sys.Metrics.Count("misses_reissued_once") + sys.Metrics.Count("misses_reissued_more") + sys.Metrics.Count("misses_persistent")
	if reissued == 0 {
		t.Error("pathological contention produced no reissues; races untested")
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (elapsed, bytes float64) {
		sys, ts := newTokenSystem(t, 16, 99, nil)
		gen := &uniformGen{blocks: 16, pWrite: 0.3, think: 4 * sim.Nanosecond}
		err := sys.Execute(machine.Controllers(ts.Caches), gen, 200)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		elapsed, _ = sys.Metrics.Value("elapsed_ns")
		bytes, _ = sys.Metrics.Value("bytes_total")
		return elapsed, bytes
	}
	e1, b1 := runOnce()
	e2, b2 := runOnce()
	if e1 != e2 || b1 != b2 {
		t.Errorf("replay diverged: elapsed %vns/%vns bytes %v/%v", e1, e2, b1, b2)
	}
}

// uniformGen is a minimal workload for protocol tests: uniform random
// block selection from a small pool with a fixed write fraction.
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
