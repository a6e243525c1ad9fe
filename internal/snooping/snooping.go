// Package snooping implements the traditional MOSI broadcast snooping
// baseline (paper §5.1): a split-transaction protocol that relies on the
// totally-ordered broadcast tree. Every request (GetS, GetM, PutM) is
// broadcast through the tree's root, so all nodes — including the
// requester itself — observe all requests in one global order, which is
// what resolves every race:
//
//   - A requester's transaction is ordered when its own broadcast
//     arrives back at its node.
//   - Exactly one component is the logical owner of each block at every
//     point in the ordered stream: either one cache (state M or O,
//     possibly still waiting for its data, possibly holding the line in
//     a writeback buffer) or the home memory (tracked with a single
//     owner bit, as in Synapse-style memory-owned snooping [16]).
//   - The owner responds with data; sharers invalidate silently on GetM.
//   - A node whose own ordered request is still awaiting data defers
//     later-ordered foreign requests for that block and services them —
//     in order — once its data arrives (ownership chaining).
//   - An evicted owner line sits in a writeback buffer until the PutM
//     broadcast is ordered; if ownership was lost in the meantime the
//     node tells the memory the writeback is stale.
//
// The migratory-sharing optimization (responding to GetS on a
// self-written modified block with an exclusive grant) is implemented,
// matching the other protocols.
package snooping

import (
	"fmt"

	"tokencoherence/internal/cache"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/stats"
)

// Cache is the snooping cache controller for one node.
type Cache struct {
	machine.MOSI
	machine.CacheBase
	// wb holds evicted owner lines until their PutM broadcast is
	// ordered; a foreign GetM ordered first takes the ownership away.
	wb machine.Writebacks
	// deferred holds foreign requests ordered between this node's own
	// ordered request and its data arrival.
	deferred msg.Table[[]msg.Message]
	// dsts is the broadcast destination scratch buffer, reused across
	// broadcasts (Multicast copies what it keeps).
	dsts []msg.Port
	// broadcasts is the protocol's named metric: address transactions
	// placed on the ordered fabric (requests and PutMs).
	broadcasts *stats.Counter
}

// NewCache builds node id's snooping controller and registers it.
func NewCache(sys *machine.System, id msg.NodeID) *Cache {
	c := &Cache{}
	c.InitBase(sys, id, c)
	c.broadcasts = sys.Metrics.Counter(stats.Desc{
		Name: "snoop_broadcasts", Unit: "count", Fmt: "%.0f",
		Help: "address transactions broadcast on the ordered fabric",
	})
	sys.Net.Register(c.CachePort(), c)
	return c
}

// StartMiss implements machine.CacheHooks: broadcast the request on the
// ordered fabric. No timers are needed; the total order guarantees
// service.
func (c *Cache) StartMiss(m *machine.MSHR) {
	c.broadcast(m.Request(), m.Block)
}

// broadcast sends an address transaction to every cache (including this
// one, to establish its place in the total order) plus the home memory.
func (c *Cache) broadcast(kind msg.Kind, b msg.Block) {
	c.broadcasts.Inc()
	req := msg.Message{
		Kind: kind, Cat: msg.CatRequest,
		Src: c.CachePort(), Addr: b.Base(), Requester: c.CachePort(),
	}
	n := c.Cfg.Procs
	dsts := c.dsts[:0]
	for i := 0; i < n; i++ {
		dsts = append(dsts, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
	}
	dsts = append(dsts, c.HomePort(b))
	c.dsts = dsts
	c.Net.Multicast(req, dsts)
}

// EvictL2 implements machine.CacheHooks: owner lines enter the writeback
// buffer and broadcast a PutM; shared lines are dropped silently.
func (c *Cache) EvictL2(v cache.Line) {
	if v.State < machine.StateO {
		return
	}
	if c.wb.Pending(v.Block) > 0 {
		panic("snooping: evicted block already in writeback buffer")
	}
	c.wb.Push(v)
	c.broadcast(msg.KindPutM, v.Block)
}

// Handle implements interconnect.Handler.
func (c *Cache) Handle(m *msg.Message) {
	switch m.Kind {
	case msg.KindGetS, msg.KindGetM, msg.KindPutM:
		c.ordered(m)
	case msg.KindData:
		c.onData(m)
	default:
		panic("snooping: cache received unexpected " + m.Kind.String())
	}
}

// ordered processes one address transaction in the global order.
func (c *Cache) ordered(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	if m.Requester == c.CachePort() {
		c.ownOrdered(m, b)
		return
	}
	if mshr := c.Outstanding(b); mshr != nil && mshr.Ordered {
		// This node's own ordered request precedes m; it may end up the
		// owner (GetM, or a migratory GetS grant), so m's disposition is
		// decided when the data arrives.
		defs := c.deferred.At(b)
		*defs = append(*defs, *m)
		return
	}
	c.foreign(m, b)
}

// ownOrdered handles this node's own transaction reaching its place in
// the total order.
func (c *Cache) ownOrdered(m *msg.Message, b msg.Block) {
	if m.Kind == msg.KindPutM {
		e := c.wb.Pop(b)
		home := c.HomePort(b)
		var out msg.Message
		if e.Owner {
			out = msg.Message{
				Kind: msg.KindPutM, Cat: msg.CatData,
				Src: c.CachePort(), Dst: home, Addr: b.Base(),
				HasData: true, Data: e.Data, Dirty: e.Dirty,
			}
		} else {
			out = msg.Message{
				Kind: msg.KindWBStale, Cat: msg.CatControl,
				Src: c.CachePort(), Dst: home, Addr: b.Base(),
			}
		}
		c.Net.SendAfter(out, c.Cfg.L2Latency)
		return
	}
	mshr := c.Outstanding(b)
	if mshr == nil {
		panic("snooping: own request ordered with no MSHR")
	}
	if e := c.wb.Owner(b); e != nil {
		// This node evicted the block after issuing the request and is
		// still its owner (the PutM is ordered later): nobody else will
		// respond, so self-serve from the writeback buffer. The eventual
		// PutM order point then reports a stale writeback.
		l := c.EnsureL2(b)
		l.Valid = true
		l.Data = e.Data
		l.Dirty = e.Dirty
		if m.Kind == msg.KindGetM {
			l.State = machine.StateM
		} else {
			l.State = machine.StateO
		}
		e.Owner = false
		c.CompleteMiss(mshr)
		return
	}
	if m.Kind == msg.KindGetM {
		if l := c.L2.Lookup(b); l != nil && l.State == machine.StateO && l.Valid {
			// Upgrade from O: this node is the block's owner at its own
			// order point, so no component will send data — exclusivity
			// is established right here, and every sharer invalidates on
			// seeing this GetM. (An S-state upgrader still receives data
			// from the owner or memory, which cannot tell it has a copy.)
			l.State = machine.StateM
			c.CompleteMiss(mshr)
			return
		}
	}
	mshr.Ordered = true // data will come from the owner
}

// foreign applies the stable-state MOSI response policy to another
// node's ordered request; it also drains deferred requests once
// ownership is established. Another node's PutM needs no answer.
func (c *Cache) foreign(m *msg.Message, b msg.Block) {
	if m.Kind == msg.KindPutM {
		return
	}
	if a := c.AnswerMOSI(&c.wb, b, m.Kind == msg.KindGetM); a.HasData {
		c.Net.SendAfter(msg.Message{
			Kind: msg.KindData, Cat: msg.CatData,
			Src: c.CachePort(), Dst: m.Requester, Addr: b.Base(),
			HasData: true, Data: a.Data, Owner: a.Owner, Dirty: a.Dirty,
		}, c.Cfg.L2Latency)
	}
}

// onData completes an ordered miss and drains any requests that were
// deferred behind it.
func (c *Cache) onData(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	mshr := c.Outstanding(b)
	if mshr == nil || !mshr.Ordered {
		panic(fmt.Sprintf("snooping: node %d got unexpected data for block %d", c.ID, b))
	}
	l := c.EnsureL2(b)
	l.Valid = true
	l.Data = m.Data
	l.Dirty = m.Dirty
	if mshr.Write || m.Owner {
		l.State = machine.StateM
	} else {
		l.State = machine.StateS
	}
	c.CompleteMiss(mshr)
	defs := c.deferred.Get(b)
	c.deferred.Delete(b)
	for i := range defs {
		c.foreign(&defs[i], b)
	}
}

// memLine is the home memory's view of one block. A block starts out
// owned by memory, the zero value.
type memLine struct {
	cacheOwns bool // a cache, not memory, is the block's owner
	data      uint64
	wbPending int
	deferred  []msg.Message
}

// Memory is the snooping home memory controller: it snoops the ordered
// request stream for its blocks, responds when its owner bit is set, and
// sequences writebacks with the wbPending/deferred mechanism.
type Memory struct {
	sys *machine.System
	// isle is the controller's island context; event-time sends go
	// through its network view.
	isle  *machine.Isle
	id    msg.NodeID
	lines msg.Table[memLine]
}

// NewMemory builds and registers node id's memory controller.
func NewMemory(sys *machine.System, id msg.NodeID) *Memory {
	m := &Memory{sys: sys, isle: sys.IsleFor(int(id)), id: id}
	sys.Net.Register(m.Port(), m)
	return m
}

// Port returns the memory controller's network port.
func (m *Memory) Port() msg.Port { return msg.Port{Node: m.id, Unit: msg.UnitMem} }

// OwnerBit reports the owner bit for tests.
func (m *Memory) OwnerBit(b msg.Block) bool { return !m.lines.Get(b).cacheOwns }

// Handle implements interconnect.Handler.
func (m *Memory) Handle(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	l := m.lines.At(b)
	switch mm.Kind {
	case msg.KindGetS, msg.KindGetM:
		if l.wbPending > 0 {
			l.deferred = append(l.deferred, *mm)
			return
		}
		m.serve(l, mm)
	case msg.KindPutM:
		if !mm.HasData {
			// The ordered PutM broadcast: a writeback (real or stale) is
			// on its way; hold responses until it resolves.
			l.wbPending++
			return
		}
		// The writeback data itself.
		l.data = mm.Data
		l.cacheOwns = false
		m.resolveWB(l)
	case msg.KindWBStale:
		m.resolveWB(l)
	default:
		panic("snooping: memory received unexpected " + mm.Kind.String())
	}
}

func (m *Memory) resolveWB(l *memLine) {
	l.wbPending--
	if l.wbPending < 0 {
		panic("snooping: writeback resolution without pending writeback")
	}
	if l.wbPending > 0 {
		return
	}
	// Serving a request leaves wbPending alone, so every deferred request
	// is served now.
	defs := l.deferred
	l.deferred = nil
	for i := range defs {
		m.serve(l, &defs[i])
	}
}

// serve answers one ordered request when the memory owns the block.
func (m *Memory) serve(l *memLine, mm *msg.Message) {
	if l.cacheOwns {
		return // a cache owner will respond
	}
	cfg := m.sys.Cfg
	out := msg.Message{
		Kind: msg.KindData, Cat: msg.CatData,
		Src: m.Port(), Dst: mm.Requester, Addr: mm.Addr,
		HasData: true, Data: l.data,
	}
	if mm.Kind == msg.KindGetM {
		out.Owner = true
		l.cacheOwns = true
	}
	m.isle.Net.SendAfter(out, cfg.CtrlLatency+cfg.MemLatency)
}

// System bundles the snooping machine's components.
type System struct {
	Caches []*Cache
	Mems   []*Memory
}

// Build constructs the snooping protocol on sys. The topology must be
// totally ordered (the tree); building on an unordered fabric panics, as
// the paper notes snooping is "not applicable" there.
func Build(sys *machine.System) *System {
	if !sys.Topo.Ordered() {
		panic("snooping: requires a totally-ordered interconnect")
	}
	s := &System{}
	for i := 0; i < sys.Cfg.Procs; i++ {
		s.Caches = append(s.Caches, NewCache(sys, msg.NodeID(i)))
		s.Mems = append(s.Mems, NewMemory(sys, msg.NodeID(i)))
	}
	return s
}
