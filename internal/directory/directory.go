// Package directory implements the full-map MOSI directory baseline
// (paper §5.1), modelled on the SGI Origin 2000 and Alpha 21364: every
// request goes to the block's home node, whose directory orders requests
// per block, forwards them to the owner, issues invalidations, and
// queues (never nacks) requests that hit a busy block. The directory
// state lives in DRAM (Config.DirLatency = MemLatency) or in a perfect
// directory cache (DirLatency = 0). Full-map means every home keeps its
// sharers as a msg.NodeSet indexed by node ID, so it tracks every node
// of any machine up to msg.MaxNodes; the two-level protocol (dir2)
// reuses the same home state machine per cluster.
//
// The price of the design is the paper's central observation: every
// cache-to-cache miss crosses the interconnect three times (requester ->
// home -> owner -> requester) and pays the directory lookup.
package directory

import (
	"fmt"

	"tokencoherence/internal/cache"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
)

// Cache is the directory protocol's cache controller.
type Cache struct {
	machine.MOSI
	machine.CacheBase
	// wb holds evicted owner lines until the home acknowledges the
	// writeback (WBAck) or declares it stale (WBStale); the home accepts
	// one only if its epoch is the transaction that made this node owner.
	wb machine.Writebacks
	// races holds, per block being filled, what raced with the fill; the
	// entry is deleted when the fill completes.
	races msg.Table[fillRace]
}

// fillRace is what raced with one block's in-flight fill.
type fillRace struct {
	// deferred holds forwards ordered after this node's own transaction,
	// served once it completes (ownership chaining).
	deferred []msg.Message
	// invSeq is the newest home transaction number of an invalidation
	// that overtook the fill (0 = none); the fill is consumed once and
	// then invalidated if it is older.
	invSeq uint64
	// pendingAcks buffers invalidation acks that arrive before the data
	// response reveals the transaction they belong to.
	pendingAcks []uint64
}

// NewCache builds node id's directory cache controller.
func NewCache(sys *machine.System, id msg.NodeID) *Cache {
	c := &Cache{}
	c.InitBase(sys, id, c)
	sys.Net.Register(c.CachePort(), c)
	return c
}

// StartMiss implements machine.CacheHooks: a unicast request to the
// block's home directory.
func (c *Cache) StartMiss(m *machine.MSHR) {
	c.Net.Send(msg.Message{
		Kind: m.Request(), Cat: msg.CatRequest,
		Src: c.CachePort(), Dst: c.HomePort(m.Block),
		Addr: m.Block.Base(), Requester: c.CachePort(),
	})
}

// EvictL2 implements machine.CacheHooks.
func (c *Cache) EvictL2(v cache.Line) {
	if v.State < machine.StateO {
		return // shared lines evict silently; the directory list stays a superset
	}
	c.wb.Push(v)
	c.Net.Send(msg.Message{
		Kind: msg.KindPutM, Cat: msg.CatData,
		Src: c.CachePort(), Dst: c.HomePort(v.Block),
		Addr: v.Block.Base(), HasData: true, Data: v.Data, Dirty: v.Dirty, Seq: v.Epoch,
	})
}

// Handle implements interconnect.Handler.
func (c *Cache) Handle(m *msg.Message) {
	switch m.Kind {
	case msg.KindData:
		c.onData(m)
	case msg.KindAck:
		if m.Src.Unit == msg.UnitMem {
			c.onGrant(m)
		} else {
			c.onInvAck(m)
		}
	case msg.KindInv:
		c.onInv(m)
	case msg.KindFwdGetS, msg.KindFwdGetM:
		c.onFwd(m)
	case msg.KindWBAck, msg.KindWBStale:
		// Acks arrive in PutM order: retire the oldest writeback.
		c.wb.Pop(msg.BlockOf(m.Addr))
	default:
		panic("directory: cache received unexpected " + m.Kind.String())
	}
}

func (c *Cache) onData(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	mshr := c.Outstanding(b)
	if mshr == nil {
		panic(fmt.Sprintf("directory: node %d data for block %d with no MSHR", c.ID, b))
	}
	mshr.GotData = true
	mshr.Fill = machine.FillOf(m)
	mshr.AcksNeeded = m.Acks
	c.absorbPendingAcks(mshr)
	c.maybeComplete(mshr)
}

// absorbPendingAcks counts buffered early acks that match the fill's
// transaction and discards the rest (aborted transactions).
func (c *Cache) absorbPendingAcks(mshr *machine.MSHR) {
	b := mshr.Block
	acks := c.races.Get(b).pendingAcks
	if len(acks) == 0 {
		return
	}
	for _, seq := range acks {
		if seq == mshr.Fill.Seq {
			mshr.AcksGot++
		}
	}
	c.races.At(b).pendingAcks = nil
}

func (c *Cache) onInvAck(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	mshr := c.Outstanding(b)
	if mshr == nil {
		// An ack from an aborted (grant/writeback-race) transaction; the
		// retried request counted only acks matching its own fill.
		return
	}
	if !mshr.GotData {
		r := c.races.At(b)
		r.pendingAcks = append(r.pendingAcks, m.Seq)
		return
	}
	if m.Seq == mshr.Fill.Seq {
		mshr.AcksGot++
		c.maybeComplete(mshr)
	}
}

// onGrant handles a dataless exclusivity grant: the directory saw this
// node as the block's owner, so only invalidation acks are needed.
func (c *Cache) onGrant(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	mshr := c.Outstanding(b)
	if mshr == nil {
		panic(fmt.Sprintf("directory: node %d stray grant for block %d", c.ID, b))
	}
	l := c.L2.Lookup(b)
	if l == nil || !l.Valid {
		// The grant raced with this node's own writeback: the line moved
		// to the writeback buffer, whose data is still the current copy
		// (the grant proves no other transaction intervened). Refill from
		// it; the in-flight PutM will be declared stale by its epoch.
		e := c.wb.Owner(b)
		if e == nil {
			panic("directory: grant with neither line nor owned writeback")
		}
		l = c.EnsureL2(b)
		l.Valid = true
		l.Data = e.Data
		l.Dirty = e.Dirty
		l.Written = e.Written
		l.State = machine.StateO
		e.Owner = false
	}
	mshr.GotData = true
	mshr.Grant = true
	mshr.Fill = machine.FillOf(m)
	mshr.AcksNeeded = m.Acks
	c.absorbPendingAcks(mshr)
	c.maybeComplete(mshr)
}

// maybeComplete commits the transaction once data (or grant) and all
// invalidation acks have arrived.
func (c *Cache) maybeComplete(m *machine.MSHR) {
	if !m.GotData || m.AcksGot < m.AcksNeeded {
		return
	}
	b := m.Block
	var becameM bool
	var fromCache bool
	if m.Grant {
		l := c.L2.Lookup(b)
		if l == nil {
			panic("directory: granted line vanished")
		}
		l.State = machine.StateM
		l.Epoch = m.Fill.Seq
		becameM = true
	} else {
		fill := &m.Fill
		l := c.EnsureL2(b)
		l.Valid = true
		l.Data = fill.Data
		l.Dirty = fill.Dirty
		l.Epoch = fill.Seq
		if m.Write || fill.Owner {
			l.State = machine.StateM
			becameM = true
		} else {
			l.State = machine.StateS
		}
		fromCache = fill.Src.Unit == msg.UnitCache
	}
	c.CompleteMiss(m)
	r := c.races.Get(b)
	c.races.Delete(b)
	// Drain requests the directory forwarded to us while we were filling.
	for i := range r.deferred {
		c.serveFwd(&r.deferred[i], b)
	}
	// An invalidation from a home transaction newer than this fill
	// overtook the data; the fill satisfied the waiting accesses once
	// and dies here.
	if r.invSeq != 0 {
		if l := c.L2.Lookup(b); l != nil && r.invSeq > l.Epoch {
			c.DropLine(b)
		}
	}
	// Forward-served transactions unblock the home (it is busy waiting).
	if fromCache {
		c.Net.Send(msg.Message{
			Kind: msg.KindUnblock, Cat: msg.CatControl,
			Src: c.CachePort(), Dst: c.HomePort(b), Addr: b.Base(),
			Owner: becameM,
		})
	}
}

func (c *Cache) onInv(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	if l := c.L2.Lookup(b); l != nil {
		// Drop the copy only if the invalidation comes from a home
		// transaction newer than the fill that produced this line; a
		// stale invalidation (reordered behind a later fill) is ignored.
		if m.Seq > l.Epoch {
			c.DropLine(b)
		}
	} else if c.Outstanding(b) != nil {
		// Fill in flight: remember the invalidation; the fill may satisfy
		// the waiting accesses once if it is newer, then die.
		if m.Seq > c.races.Get(b).invSeq {
			c.races.At(b).invSeq = m.Seq
		}
	}
	// Always acknowledge, directly to the requesting writer, echoing the
	// home transaction number so the writer can match acks to its fill.
	c.Net.SendAfter(msg.Message{
		Kind: msg.KindAck, Cat: msg.CatControl,
		Src: c.CachePort(), Dst: m.Requester, Addr: m.Addr, Seq: m.Seq,
	}, c.Cfg.L2Latency)
}

func (c *Cache) onFwd(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	// A writeback buffer entry answers first: its data is authoritative
	// and deferring here would deadlock the home behind our queued PutM.
	if c.wb.Owner(b) != nil {
		c.serveFwd(m, b)
		return
	}
	if mshr := c.Outstanding(b); mshr != nil {
		if mshr.GotData {
			if m.Seq > mshr.Fill.Seq {
				// Our own transaction is ordered before this forward at
				// the home; we are the owner-to-be, so serve it after
				// completion (ownership chaining).
				r := c.races.At(b)
				r.deferred = append(r.deferred, *m)
				return
			}
			c.serveFwd(m, b)
			return
		}
		if l := c.L2.Lookup(b); l != nil && l.State >= machine.StateO && l.Valid {
			// The forward's transaction is ordered before our queued
			// upgrade; answer from the stable owner line (deferring would
			// deadlock behind our own queued GetM).
			c.serveFwd(m, b)
			return
		}
		// Our fill is still in flight; chain the forward to completion.
		r := c.races.At(b)
		r.deferred = append(r.deferred, *m)
		return
	}
	c.serveFwd(m, b)
}

// serveFwd answers a forwarded request from stable state or the
// writeback buffer. The home forwards only to the owner, so the answer
// always carries data; a FwdGetM passes on the invalidation-ack count.
func (c *Cache) serveFwd(m *msg.Message, b msg.Block) {
	a := c.AnswerMOSI(&c.wb, b, m.Kind == msg.KindFwdGetM)
	if !a.HasData {
		panic(fmt.Sprintf("directory: node %d forwarded %v for block %d but is not owner", c.ID, m.Kind, b))
	}
	c.Net.SendAfter(msg.Message{
		Kind: msg.KindData, Cat: msg.CatData,
		Src: c.CachePort(), Dst: m.Requester, Addr: b.Base(),
		HasData: true, Data: a.Data, Owner: a.Owner, Dirty: a.Dirty, Acks: m.Acks, Seq: m.Seq,
	}, c.Cfg.L2Latency)
}

// Memory is the flat home directory controller for one node's slice of
// the machine-wide address space: the homeCore state machine (see
// home.go) over the root coherence realm.
type Memory struct {
	homeCore
	id msg.NodeID
}

// NewMemory builds and registers node id's directory controller.
func NewMemory(sys *machine.System, id msg.NodeID) *Memory {
	m := &Memory{
		homeCore: newHomeCore(sys, msg.Port{Node: id, Unit: msg.UnitMem}),
		id:       id,
	}
	sys.Net.Register(m.Port(), m)
	return m
}

// Port returns the directory controller's network port.
func (m *Memory) Port() msg.Port { return m.port }

// State reports the directory state for tests.
func (m *Memory) State(b msg.Block) (state uint8, owner msg.NodeID, sharers int) {
	l := m.lines.Get(b)
	return uint8(l.state), l.owner, l.sharers.Len()
}

// Handle implements interconnect.Handler.
func (m *Memory) Handle(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	l := m.lines.At(b)
	switch mm.Kind {
	case msg.KindGetS, msg.KindGetM, msg.KindPutM:
		if l.busy {
			l.queue = append(l.queue, *mm)
			return
		}
		m.process(l, mm)
	case msg.KindUnblock:
		m.unblock(l, mm)
	default:
		panic("directory: home received unexpected " + mm.Kind.String())
	}
}

// System bundles the directory machine's components.
type System struct {
	Caches []*Cache
	Mems   []*Memory
}

// Build constructs the directory protocol on sys (any topology).
func Build(sys *machine.System) *System {
	s := &System{}
	for i := 0; i < sys.Cfg.Procs; i++ {
		s.Caches = append(s.Caches, NewCache(sys, msg.NodeID(i)))
		s.Mems = append(s.Mems, NewMemory(sys, msg.NodeID(i)))
	}
	return s
}
