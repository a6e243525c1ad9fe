package machine

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tokencoherence/internal/cache"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

// TestMSHRSize holds MSHR to 112 bytes, the 112-byte allocation class
// every miss pays: the fill keeps only the response fields protocols
// commit from, and the flags are packed together.
func TestMSHRSize(t *testing.T) {
	if size := unsafe.Sizeof(MSHR{}); size > 112 {
		t.Errorf("unsafe.Sizeof(MSHR{}) = %d, want <= 112", size)
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.Procs != 16 {
		t.Errorf("Procs = %d, want 16", c.Procs)
	}
	if c.L1Size != 128<<10 || c.L1Assoc != 4 || c.L1Latency != 2*sim.Nanosecond {
		t.Errorf("L1 config mismatch: %+v", c)
	}
	if c.L2Size != 4<<20 || c.L2Assoc != 4 || c.L2Latency != 6*sim.Nanosecond {
		t.Errorf("L2 config mismatch: %+v", c)
	}
	if c.MemLatency != 80*sim.Nanosecond || c.CtrlLatency != 6*sim.Nanosecond {
		t.Errorf("memory latencies mismatch: %+v", c)
	}
	if c.Net.LinkBandwidth != 3.2e9 || c.Net.LinkLatency != 15*sim.Nanosecond {
		t.Errorf("link config mismatch: %+v", c.Net)
	}
	c.Validate() // must not panic
}

func TestConfigValidatePanics(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.TokensPerBlock = c.Procs - 1 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.MaxReissues = -1 },
		func(c *Config) { c.Procs, c.TokensPerBlock = msg.MaxNodes+1, 2*(msg.MaxNodes+1) },
	}
	for i, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			c := DefaultConfig()
			mutate(&c)
			c.Validate()
		}()
	}
}

func TestOracleHappyPath(t *testing.T) {
	o := NewOracle()
	v1 := o.CommitWrite(0, 5, 10)
	if v1 != 1 {
		t.Errorf("first write version = %d, want 1", v1)
	}
	o.CheckRead(1, 5, v1, 20)
	v2 := o.CommitWrite(1, 5, 30)
	o.CheckRead(0, 5, v2, 40)
	if err := o.Err(); err != nil {
		t.Fatalf("clean sequence flagged: %v", err)
	}
	if o.Reads() != 2 || o.Writes() != 2 {
		t.Errorf("counts = %d reads/%d writes, want 2/2", o.Reads(), o.Writes())
	}
}

func TestOracleCatchesBackwardsRead(t *testing.T) {
	o := NewOracle()
	o.CommitWrite(0, 5, 10)
	v2 := o.CommitWrite(0, 5, 20)
	o.CheckRead(1, 5, v2, 30)   // proc 1 sees v2
	o.CheckRead(1, 5, v2-1, 40) // ... then reads v1: coherence violation
	err := o.Err()
	if err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("backwards read not caught: %v", err)
	}
}

func TestOracleAllowsRecentlyOverwrittenRead(t *testing.T) {
	// Split-transaction skew: a read ordered before a racing write may
	// commit shortly after it in wall-clock time. That is legal.
	o := NewOracle()
	v1 := o.CommitWrite(0, 5, 10)
	o.CommitWrite(0, 5, 100)
	o.CheckRead(1, 5, v1, 150) // 50 ps after overwrite: fine
	if err := o.Err(); err != nil {
		t.Fatalf("windowed read flagged: %v", err)
	}
}

func TestOracleCatchesLongStaleRead(t *testing.T) {
	o := NewOracle()
	v1 := o.CommitWrite(0, 5, 10)
	o.CommitWrite(0, 5, 20)
	o.CheckRead(1, 5, v1, 20+2*sim.Millisecond) // way past StaleLimit
	err := o.Err()
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("long-stale read not caught: %v", err)
	}
}

func TestOracleUnwrittenBlockReadsZero(t *testing.T) {
	o := NewOracle()
	o.CheckRead(0, 9, 0, 5)
	if o.Err() != nil {
		t.Error("reading version 0 of unwritten block must be fine")
	}
	o.CheckRead(0, 9, 1, 6)
	if o.Err() == nil {
		t.Error("phantom read not caught")
	}
}

func TestOracleErrorCap(t *testing.T) {
	o := NewOracle()
	o.CommitWrite(0, 1, 1)
	for i := 0; i < 100; i++ {
		o.CheckRead(0, 1, 999, 2)
	}
	if len(o.Violations()) > 16 {
		t.Errorf("recorded %d violations, cap is 16", len(o.Violations()))
	}
}

func TestOraclePruneKeepsWindowUsable(t *testing.T) {
	o := NewOracle()
	var now sim.Time
	for i := 0; i < 10000; i++ {
		now += sim.Microsecond
		o.CommitWrite(0, 7, now)
	}
	// Reading the latest is always fine even after pruning.
	o.CheckRead(1, 7, o.Latest(7), now)
	if err := o.Err(); err != nil {
		t.Fatalf("post-prune read flagged: %v", err)
	}
	// Reading an ancient pruned version must be flagged.
	o.CheckRead(2, 7, 1, now)
	if o.Err() == nil {
		t.Error("ancient pruned read not caught")
	}
}

// fakeCtrl is a trivially correct controller: every access completes
// after a fixed delay with full permission.
type fakeCtrl struct {
	k     *sim.Kernel
	delay sim.Time
	seen  int
}

func (f *fakeCtrl) Access(op Op, done func()) {
	f.seen++
	f.k.After(f.delay, done)
}

// fixedGen issues alternating read/write ops with constant think time.
type fixedGen struct{ think sim.Time }

func (g fixedGen) Next(proc int, rng *sim.Source) Op {
	return Op{Addr: msg.Addr(proc) * msg.BlockSize, Write: rng.Bool(0.5), Think: g.think, EndTxn: true}
}

// storeGen issues only stores so MSHR limits are exercised without the
// outstanding-load bound interfering.
type storeGen struct{ think sim.Time }

func (g storeGen) Next(proc int, rng *sim.Source) Op {
	return Op{Addr: msg.Addr(proc) * msg.BlockSize, Write: true, Think: g.think, EndTxn: true}
}

func TestProcessorIssuesAllOps(t *testing.T) {
	k := sim.NewKernel()
	ctrl := &fakeCtrl{k: k, delay: 10 * sim.Nanosecond}
	cfg := DefaultConfig()
	doneCalled := false
	p := NewProcessor(k, 0, fixedGen{think: 1 * sim.Nanosecond}, ctrl, cfg, sim.NewSource(1), nil, 50, func() { doneCalled = true })
	p.Start()
	k.Run()
	if !p.Done() || !doneCalled {
		t.Fatal("processor did not finish")
	}
	if ctrl.seen != 50 || p.Completed() != 50 {
		t.Errorf("ops seen=%d completed=%d, want 50", ctrl.seen, p.Completed())
	}
}

// slowCtrl never completes, to test MSHR stalling.
type slowCtrl struct{ seen int }

func (s *slowCtrl) Access(op Op, done func()) { s.seen++ }

func TestProcessorStallsAtMSHRLimit(t *testing.T) {
	k := sim.NewKernel()
	ctrl := &slowCtrl{}
	cfg := DefaultConfig()
	cfg.MSHRs = 4
	p := NewProcessor(k, 0, storeGen{think: 1 * sim.Nanosecond}, ctrl, cfg, sim.NewSource(2), nil, 100, nil)
	p.Start()
	k.Run()
	if ctrl.seen != 4 {
		t.Errorf("issued %d store ops with MSHRs=4, want exactly 4", ctrl.seen)
	}
	if p.Done() {
		t.Error("processor claims done while stalled")
	}
}

func TestProcessorStallsAtLoadLimit(t *testing.T) {
	k := sim.NewKernel()
	ctrl := &slowCtrl{}
	cfg := DefaultConfig()
	cfg.MaxLoads = 2
	// Loads only: the processor must stop after MaxLoads outstanding.
	p := NewProcessor(k, 0, loadGen{think: sim.Nanosecond}, ctrl, cfg, sim.NewSource(2), nil, 100, nil)
	p.Start()
	k.Run()
	if ctrl.seen != 2 {
		t.Errorf("issued %d load ops with MaxLoads=2, want exactly 2", ctrl.seen)
	}
}

// loadGen issues only loads.
type loadGen struct{ think sim.Time }

func (g loadGen) Next(proc int, rng *sim.Source) Op {
	return Op{Addr: msg.Addr(proc) * msg.BlockSize, Write: false, Think: g.think, EndTxn: true}
}

func TestProcessorCountsTransactions(t *testing.T) {
	k := sim.NewKernel()
	var txns stats.Counter
	ctrl := &fakeCtrl{k: k, delay: sim.Nanosecond}
	p := NewProcessor(k, 0, fixedGen{think: sim.Nanosecond}, ctrl, DefaultConfig(), sim.NewSource(3), &txns, 25, nil)
	p.Start()
	k.Run()
	if txns.Value() != 25 {
		t.Errorf("transactions = %d, want 25 (every op ends one)", txns.Value())
	}
}

func TestSystemRejectsMismatchedTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 8
	defer func() {
		if recover() == nil {
			t.Error("mismatched topology did not panic")
		}
	}()
	NewSystem(cfg, topology.NewTorus(4, 4), 1)
}

func TestSystemExecuteDetectsDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 4
	sys := NewSystem(cfg, topology.NewTorusFor(4), 1)
	ctrls := make([]Controller, 4)
	for i := range ctrls {
		ctrls[i] = &slowCtrl{}
	}
	err := sys.Execute(ctrls, fixedGen{think: sim.Nanosecond}, 10)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not reported: %v", err)
	}
}

func TestSystemExecuteControllerCountMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 4
	sys := NewSystem(cfg, topology.NewTorusFor(4), 1)
	if err := sys.Execute(nil, fixedGen{}, 1); err == nil {
		t.Error("controller count mismatch not reported")
	}
}

// hookRecorder implements CacheHooks for CacheBase unit tests: every
// line grants permission matching its State field (0=none,1=read,2=write).
type hookRecorder struct {
	base    *CacheBase
	misses  []*MSHR
	evicted []cache.Line
}

func (h *hookRecorder) HasPermission(l *cache.Line, write bool) bool {
	if write {
		return l.State >= 2
	}
	return l.State >= 1
}
func (h *hookRecorder) StartMiss(m *MSHR)    { h.misses = append(h.misses, m) }
func (h *hookRecorder) EvictL2(v cache.Line) { h.evicted = append(h.evicted, v) }

func newTestBase(t *testing.T) (*sim.Kernel, *CacheBase, *hookRecorder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Procs = 4
	sys := NewSystem(cfg, topology.NewTorusFor(4), 7)
	h := &hookRecorder{}
	b := &CacheBase{}
	b.InitBase(sys, 0, h)
	h.base = b
	return sys.K, b, h
}

func TestCacheBaseHitPath(t *testing.T) {
	k, b, h := newTestBase(t)
	l := b.EnsureL2(5)
	l.State = 2
	l.Valid = true
	completed := false
	b.Access(Op{Addr: msg.Block(5).Base(), Write: false}, func() { completed = true })
	k.Run()
	if !completed {
		t.Fatal("hit did not complete")
	}
	if len(h.misses) != 0 {
		t.Error("hit path started a miss")
	}
	if n := b.Sys.Metrics.Count("l2_hits"); n != 1 {
		t.Errorf("l2_hits = %d, want 1 (first touch misses L1)", n)
	}
	// Second access should now hit L1.
	b.Access(Op{Addr: msg.Block(5).Base()}, func() {})
	k.Run()
	if n := b.Sys.Metrics.Count("l1_hits"); n != 1 {
		t.Errorf("l1_hits = %d, want 1", n)
	}
}

func TestCacheBaseMissMergesWaiters(t *testing.T) {
	k, b, h := newTestBase(t)
	var order []int
	blk := msg.Block(9)
	for i := 0; i < 3; i++ {
		b.Access(Op{Addr: blk.Base()}, func() { order = append(order, i) })
	}
	if len(h.misses) != 1 {
		t.Fatalf("issued %d misses for same block, want 1 (merged)", len(h.misses))
	}
	if n := b.Sys.Metrics.Count("misses"); n != 1 {
		t.Errorf("misses = %d, want 1", n)
	}
	// Resolve the miss: grant read permission and complete. With the
	// block in the L1 too, every replayed access takes the same latency,
	// so completion order is replay order.
	l := b.EnsureL2(blk)
	l.State = 1
	l.Valid = true
	b.L1.Insert(blk)
	b.CompleteMiss(h.misses[0])
	k.Run()
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Errorf("waiters completed in order %v, want issue order [0 1 2]", order)
	}
}

// TestMSHRRecordsRecycled: a controller makes no MSHR record before its
// first miss and one per miss it has outstanding at once; a retired
// record carries the next miss, with a fresh serial and the timer
// callback a protocol bound to it.
func TestMSHRRecordsRecycled(t *testing.T) {
	_, b, _ := newTestBase(t)
	if n := b.MSHRRecords(); n != 0 {
		t.Fatalf("a new controller holds %d MSHR records, want 0", n)
	}
	resolve := func(blk msg.Block) {
		l := b.EnsureL2(blk)
		l.State, l.Valid = 1, true
		b.CompleteMiss(b.Outstanding(blk))
		if b.Outstanding(blk) != nil {
			t.Fatalf("block %d still outstanding after CompleteMiss", blk)
		}
	}
	b.Access(Op{Addr: msg.Block(3).Base()}, func() {})
	first := b.Outstanding(3)
	fire := func() {}
	first.OnTimer = fire
	resolve(3)
	b.Access(Op{Addr: msg.Block(4).Base()}, func() {})
	b.Access(Op{Addr: msg.Block(5).Base()}, func() {})
	m4, m5 := b.Outstanding(4), b.Outstanding(5)
	if m4 != first || m4.Serial != 2 || m4.OnTimer == nil || m4.Persistent {
		t.Errorf("second miss: record %p serial %d, want the retired record %p, serial 2, its timer callback kept",
			m4, m4.Serial, first)
	}
	if m5 == first || m5.Serial != 3 {
		t.Errorf("concurrent third miss: record %p serial %d, want a new record with serial 3", m5, m5.Serial)
	}
	resolve(4)
	resolve(5)
	if n := b.MSHRRecords(); n != 2 {
		t.Errorf("at most two misses outstanding made %d records, want 2", n)
	}
}

func TestCacheBaseUpgradeMissAfterReadMiss(t *testing.T) {
	k, b, h := newTestBase(t)
	blk := msg.Block(3)
	var wDone bool
	b.Access(Op{Addr: blk.Base()}, func() {})
	b.Access(Op{Addr: blk.Base(), Write: true}, func() { wDone = true })
	// First resolution grants read-only; the write waiter must issue a
	// second (upgrade) miss.
	l := b.EnsureL2(blk)
	l.State = 1
	l.Valid = true
	b.CompleteMiss(h.misses[0])
	k.RunUntil(k.Now() + sim.Microsecond)
	if len(h.misses) != 2 {
		t.Fatalf("expected an upgrade miss, have %d misses", len(h.misses))
	}
	if !h.misses[1].Write {
		t.Error("upgrade miss is not a write miss")
	}
	l.State = 2
	b.CompleteMiss(h.misses[1])
	k.Run()
	if !wDone {
		t.Error("write never completed")
	}
}

func TestCacheBaseMissLatencyEWMA(t *testing.T) {
	k, b, h := newTestBase(t)
	before := b.AvgMiss
	b.Access(Op{Addr: msg.Block(4).Base()}, func() {})
	k.RunUntil(400 * sim.Nanosecond)
	l := b.EnsureL2(4)
	l.State = 2
	l.Valid = true
	b.CompleteMiss(h.misses[0])
	k.Run()
	if b.AvgMiss == before {
		t.Error("AvgMiss not updated after a miss")
	}
	if h := b.Sys.Metrics.Merged("avg_miss_ns"); h.Count() != 1 {
		t.Errorf("completed misses = %d, want 1", h.Count())
	}
}

func TestCacheBaseEvictionHook(t *testing.T) {
	_, b, h := newTestBase(t)
	// Shrink L2 to 1 line by allocating conflicting blocks directly.
	small := cache.New(msg.BlockSize, 1)
	b.L2 = small
	l := b.EnsureL2(1)
	l.Tokens = 3
	b.EnsureL2(2)
	if len(h.evicted) != 1 || h.evicted[0].Block != 1 || h.evicted[0].Tokens != 3 {
		t.Fatalf("eviction hook got %+v", h.evicted)
	}
}

func TestCompleteMissUnknownPanics(t *testing.T) {
	_, b, _ := newTestBase(t)
	defer func() {
		if recover() == nil {
			t.Error("CompleteMiss of unknown MSHR did not panic")
		}
	}()
	b.CompleteMiss(&MSHR{Block: 77})
}

// warmCtrl completes every access after a fixed delay and counts them.
type warmCtrl struct {
	k    *sim.Kernel
	seen int
}

func (c *warmCtrl) Access(op Op, done func()) {
	c.seen++
	c.k.After(5*sim.Nanosecond, done)
}

func TestExecuteWarmResetsStatistics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 4
	sys := NewSystem(cfg, topology.NewTorusFor(4), 3)
	ctrls := make([]Controller, 4)
	for i := range ctrls {
		ctrls[i] = &warmCtrl{k: sys.K}
	}
	const warmup, ops = 30, 50
	if err := sys.ExecuteWarm(ctrls, fixedGen{think: sim.Nanosecond}, warmup, ops); err != nil {
		t.Fatal(err)
	}
	// Transactions measured must reflect only the post-warmup interval
	// (some slack: processors cross the warmup boundary at different
	// times, so a few of other processors' ops may land pre-reset).
	txns := sys.Metrics.Count("transactions")
	if txns < ops*4/2 || txns > (warmup+ops)*4 {
		t.Errorf("transactions = %d, want about %d", txns, ops*4)
	}
	if txns >= (warmup+ops)*4 {
		t.Error("warmup interval was not excluded from statistics")
	}
	if sys.elapsed <= 0 {
		t.Errorf("elapsed = %v, want positive post-warmup interval", sys.elapsed)
	}
}

func TestExecuteWithoutWarmupCountsEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 2
	// NewTorusFor rejects sizes below 2x2; an explicit degenerate ring
	// is fine for this two-controller wiring test.
	sys := NewSystem(cfg, topology.NewTorus(2, 1), 3)
	ctrls := []Controller{&warmCtrl{k: sys.K}, &warmCtrl{k: sys.K}}
	if err := sys.Execute(ctrls, fixedGen{think: sim.Nanosecond}, 25); err != nil {
		t.Fatal(err)
	}
	if n := sys.Metrics.Count("transactions"); n != 50 {
		t.Errorf("transactions = %d, want 50", n)
	}
}

// sink accepts and drops messages.
type sink struct{}

func (sink) Handle(*msg.Message) {}

// TestRunMetrics checks the ratios derived from the machine and fabric
// counters: runtime per transaction and traffic per miss.
func TestRunMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 4
	sys := NewSystem(cfg, topology.NewTorusFor(4), 1)
	for i := 0; i < 4; i++ {
		sys.Net.Register(msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache}, sink{})
	}
	// One data message over one link: 72 bytes.
	sys.Net.Send(msg.Message{Kind: msg.KindData, Cat: msg.CatData, HasData: true,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache}, Dst: msg.Port{Node: 1, Unit: msg.UnitCache}})
	sys.K.Run()
	isle := sys.Isles[0]
	isle.counts[transactions].Add(50)
	isle.counts[misses].Inc()
	sys.elapsed = 100 * sim.Microsecond
	for name, want := range map[string]float64{
		"cycles_per_txn":         2000,
		"bytes_per_miss":         72,
		"bytes_per_miss_data":    72,
		"bytes_per_miss_request": 0,
	} {
		if got, _ := sys.Metrics.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestRunZeroGuards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 4
	sys := NewSystem(cfg, topology.NewTorusFor(4), 1)
	if v, _ := sys.Metrics.Value("cycles_per_txn"); !math.IsInf(v, 1) {
		t.Errorf("zero transactions should yield +Inf cycles/txn, got %v", v)
	}
	for _, name := range []string{"bytes_per_miss", "avg_miss_ns", "reissued_pct", "miss_latency_p99_ns"} {
		if v, _ := sys.Metrics.Value(name); v != 0 {
			t.Errorf("zero misses should yield 0 %s, got %v", name, v)
		}
	}
}
