package machine

import (
	"tokencoherence/internal/cache"
	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// Op is one memory operation issued by a processor.
type Op struct {
	Addr msg.Addr
	// Write distinguishes stores from loads.
	Write bool
	// Think is the non-memory work modelled between this operation's
	// issue and the next one.
	Think sim.Time
	// EndTxn marks the last operation of a workload transaction; the
	// runtime metric is cycles per completed transaction.
	EndTxn bool
}

// Generator produces the memory-operation stream for one processor.
// Implementations must be deterministic given the rng stream.
type Generator interface {
	Next(proc int, rng *sim.Source) Op
}

// Controller is the processor-facing side of a coherence controller.
type Controller interface {
	// Access performs a load or store, invoking done when the operation
	// has committed (permission obtained and data read/written).
	Access(op Op, done func())
}

// MSHR tracks one outstanding coherence miss.
type MSHR struct {
	Block  msg.Block
	Issued sim.Time
	// Waiters re-execute their access when the miss resolves.
	Waiters []func()

	// Reissues counts transient-request reissues (Token Coherence).
	Reissues int
	// Timer is the pending reissue/starvation timer, if any.
	Timer *sim.Event

	// Generic transaction scratch space used by the directory and hammer
	// protocols.
	AcksNeeded int
	AcksGot    int
	// Fill holds the data response until the transaction can commit
	// (e.g., while invalidation acknowledgments are still outstanding).
	Fill Fill

	Write bool
	// Persistent marks escalation to a persistent request.
	Persistent bool
	// Ordered marks that the request has reached its serialization point
	// (its place in the snooping total order, or acceptance at the
	// directory/home).
	Ordered bool
	GotData bool
	// Grant marks a dataless exclusivity grant (the requester upgrades
	// its own resident copy instead of filling from Fill).
	Grant bool
}

// Fill is what an MSHR keeps of a data response: the fields the
// directory and hammer protocols commit from.
type Fill struct {
	Data, Seq    uint64
	Src          msg.Port
	Owner, Dirty bool
	// Valid marks that a response has been recorded.
	Valid bool
}

// FillOf returns the fill that response m carries.
func FillOf(m *msg.Message) Fill {
	return Fill{Data: m.Data, Seq: m.Seq, Src: m.Src, Owner: m.Owner, Dirty: m.Dirty, Valid: true}
}

// CacheHooks is what a protocol supplies to specialize CacheBase.
type CacheHooks interface {
	// HasPermission reports whether the resident L2 line grants the
	// access (read needs a readable copy, write an exclusive one).
	HasPermission(l *cache.Line, write bool) bool
	// StartMiss begins the protocol transaction for a newly allocated
	// MSHR.
	StartMiss(m *MSHR)
	// EvictL2 disposes of an evicted L2 victim line (writeback, token
	// return, ...). The line has already been removed from the cache.
	EvictL2(v cache.Line)
}

// CacheBase implements the protocol-independent half of a cache
// controller: the L1 latency filter, the L2 tag/state array, MSHR
// allocation and merging, hit/miss timing, the safety-oracle calls, and
// miss-latency bookkeeping. Protocol controllers embed it and provide
// CacheHooks.
type CacheBase struct {
	K      *sim.Kernel
	Net    *interconnect.Network
	ID     msg.NodeID
	Cfg    Config
	Oracle *Oracle
	Rng    *sim.Source
	Hooks  CacheHooks
	// Sys is the owning system. Isle is this node's island context: the
	// controller counts into its counter shards, and event sites read
	// Isle.Obs through it so observers attached after protocol
	// construction are still seen (events journal on the island and
	// replay to the system's observers at the barriers).
	Sys  *System
	Isle *Isle

	// Scope is the coherence realm this controller resolves misses in.
	// InitBase wires the system's root scope (the flat machine-wide
	// realm); hierarchical protocols re-point it at the node's cluster
	// scope, rerouting HomePort at the per-cluster tier.
	Scope *Scope

	L1          *cache.Cache
	L2          *cache.Cache
	Outstanding map[msg.Block]*MSHR

	// AvgMiss is an exponentially weighted moving average of recent miss
	// latencies, used by Token Coherence's adaptive reissue timeout.
	AvgMiss sim.Time

	freeWaiters *waiter
}

// waiter is a pooled re-execution record for an access waiting on an
// in-flight miss. Its fire closure is bound once when the record is
// first allocated, so queueing waiters on the hot path allocates
// nothing in steady state.
type waiter struct {
	b    *CacheBase
	op   Op
	done func()
	fire func()
	next *waiter
}

// run recycles the record before re-executing so the re-executed access
// can reuse it for its own waiter.
func (w *waiter) run() {
	b, op, done := w.b, w.op, w.done
	w.done = nil
	w.next = b.freeWaiters
	b.freeWaiters = w
	b.Access(op, done)
}

// waiterFor returns a bound callback that re-executes Access(op, done).
func (b *CacheBase) waiterFor(op Op, done func()) func() {
	w := b.freeWaiters
	if w == nil {
		w = &waiter{b: b}
		w.fire = w.run
	} else {
		b.freeWaiters = w.next
	}
	w.op = op
	w.done = done
	return w.fire
}

// InitBase wires the shared state; protocol constructors call it.
func (b *CacheBase) InitBase(sys *System, id msg.NodeID, hooks CacheHooks) {
	b.Sys = sys
	b.Scope = sys.Scope
	b.Isle = sys.IsleFor(int(id))
	b.K = b.Isle.K
	b.Net = b.Isle.Net
	b.ID = id
	b.Cfg = sys.Cfg
	b.Oracle = sys.Oracle
	b.Rng = sys.Rng.Split()
	b.Hooks = hooks
	b.L1 = cache.New(sys.Cfg.L1Size, sys.Cfg.L1Assoc)
	b.L2 = cache.New(sys.Cfg.L2Size, sys.Cfg.L2Assoc)
	b.Outstanding = make(map[msg.Block]*MSHR)
	b.AvgMiss = 150 * sim.Nanosecond
}

// CachePort returns this controller's network port.
func (b *CacheBase) CachePort() msg.Port { return msg.Port{Node: b.ID, Unit: msg.UnitCache} }

// HomePort returns the home memory port for a block within this
// controller's scope (the machine-wide home under the root scope, the
// cluster home under a cluster scope).
func (b *CacheBase) HomePort(blk msg.Block) msg.Port {
	return msg.Port{Node: b.Scope.Home(blk), Unit: msg.UnitMem}
}

// ArbiterPort returns the persistent-request arbiter port for a block.
// Arbiters always live at the root scope's home: persistent requests are
// the machine-wide starvation-freedom mechanism, so their arbitration
// point never moves into a cluster.
func (b *CacheBase) ArbiterPort(blk msg.Block) msg.Port {
	return msg.Port{Node: b.Sys.Scope.Home(blk), Unit: msg.UnitArbiter}
}

// Access implements Controller.
func (b *CacheBase) Access(op Op, done func()) {
	blk := msg.BlockOf(op.Addr)
	if l2 := b.L2.Lookup(blk); l2 != nil && b.Hooks.HasPermission(l2, op.Write) {
		b.L2.Touch(l2)
		lat := b.Cfg.L1Latency
		if b.L1.Lookup(blk) != nil {
			b.Isle.counts[l1Hits].Inc()
		} else {
			lat += b.Cfg.L2Latency
			b.Isle.counts[l2Hits].Inc()
			b.fillL1(blk)
		}
		b.commit(op, l2)
		b.Isle.counts[accesses].Inc()
		b.K.After(lat, done)
		return
	}
	// Coherence miss: merge into an outstanding transaction when one
	// exists; the waiter re-executes the access after it resolves (and
	// issues a fresh upgrade miss if the resolved permission is too
	// weak).
	if m, ok := b.Outstanding[blk]; ok {
		m.Waiters = append(m.Waiters, b.waiterFor(op, done))
		return
	}
	m := &MSHR{Block: blk, Write: op.Write, Issued: b.K.Now()}
	m.Waiters = append(m.Waiters, b.waiterFor(op, done))
	b.Outstanding[blk] = m
	b.Isle.counts[misses].Inc()
	if o := &b.Isle.Obs; o.Kinds.Has(stats.MissIssued) {
		o.On(stats.Event{Kind: stats.MissIssued, At: m.Issued, Node: int32(b.ID), Block: blk, Flag: op.Write})
	}
	if op.Write && b.L2.Lookup(blk) != nil {
		b.Isle.counts[upgrades].Inc()
	}
	b.Hooks.StartMiss(m)
}

// commit applies the operation to the line and informs the oracle.
func (b *CacheBase) commit(op Op, l *cache.Line) {
	if op.Write {
		l.Data = b.Oracle.CommitWrite(int(b.ID), l.Block, b.K.Now())
		l.Dirty = true
		l.Written = true
	} else {
		b.Oracle.CheckRead(int(b.ID), l.Block, l.Data, b.K.Now())
	}
}

func (b *CacheBase) fillL1(blk msg.Block) {
	if b.L1.Lookup(blk) == nil {
		b.L1.Allocate(blk) // L1 victims drop silently (latency filter)
	}
}

// DropLine removes a block from both cache levels (an invalidation, or
// the copy left with a response).
func (b *CacheBase) DropLine(blk msg.Block) {
	b.L2.Remove(blk)
	b.L1.Remove(blk)
}

// EnsureL2 returns the L2 line for blk, allocating (and evicting a
// victim through the protocol hook) when absent. Victim selection avoids
// lines with in-flight transactions unless the whole set is in flight.
func (b *CacheBase) EnsureL2(blk msg.Block) *cache.Line {
	if l := b.L2.Lookup(blk); l != nil {
		return l
	}
	l, victim, evicted := b.L2.AllocateAvoiding(blk, func(other msg.Block) bool {
		_, busy := b.Outstanding[other]
		return busy
	})
	if evicted {
		b.L1.Remove(victim.Block)
		b.Isle.counts[writebacks].Inc()
		b.Hooks.EvictL2(victim)
	}
	return l
}

// CompleteMiss retires an MSHR: cancels its timer, records latency,
// classifies the miss for Table 2, and replays the waiting accesses.
func (b *CacheBase) CompleteMiss(m *MSHR) {
	if b.Outstanding[m.Block] != m {
		panic("machine: CompleteMiss for unknown MSHR")
	}
	delete(b.Outstanding, m.Block)
	if m.Timer != nil {
		b.K.Cancel(m.Timer)
		m.Timer = nil
	}
	lat := b.K.Now() - m.Issued
	b.Isle.missLatency.Observe(lat)
	b.AvgMiss += (lat - b.AvgMiss) / 8
	switch {
	case m.Persistent:
		b.Isle.counts[persistent].Inc()
	case m.Reissues == 1:
		b.Isle.counts[reissuedOnce].Inc()
	case m.Reissues > 1:
		b.Isle.counts[reissuedMore].Inc()
	}
	if o := &b.Isle.Obs; o.Kinds.Has(stats.MissCompleted) {
		o.On(stats.Event{Kind: stats.MissCompleted, At: b.K.Now(), Node: int32(b.ID), Block: m.Block,
			N: int32(m.Reissues), Aux: lat, Flag: m.Persistent})
	}
	waiters := m.Waiters
	m.Waiters = nil
	for _, w := range waiters {
		w()
	}
}
