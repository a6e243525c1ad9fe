// Package hammer implements a reverse-engineered approximation of AMD's
// Hammer (Opteron) coherence protocol (paper §5.1), representing systems
// that broadcast on unordered interconnects without directory state:
//
//   - A requester sends its GetS/GetM to the block's home node.
//   - The home serializes transactions per block (busy + queue, no
//     nacks) and broadcasts a probe to every other node; in parallel it
//     fetches the block from memory.
//   - Every probed node responds directly to the requester: the owner
//     with data, everyone else with an acknowledgment — the
//     all-processors-acknowledge traffic that Figure 5b highlights.
//   - The requester completes after collecting all N-1 probe responses
//     plus the memory response (preferring owner data over the possibly
//     stale memory copy) and unblocks the home.
//
// Writebacks are serialized through the home as well: the evictor sends
// an intent, the home grants the writeback slot, and the evictor then
// supplies the data — or cancels, if a probe took ownership away in the
// meantime. This keeps memory's copy current whenever no cache owner
// exists, which is what makes the memory response safe to use.
//
// Hammer avoids the directory lookup (lower latency than Directory for
// cache-to-cache misses) but pays indirection through the home and heavy
// acknowledgment traffic, exactly the trade-off the paper measures.
package hammer

import (
	"fmt"
	"slices"

	"tokencoherence/internal/cache"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/stats"
)

// MOSI stable states in cache.Line.State.
const (
	stateI = iota
	stateS
	stateO
	stateM
)

// Cache is the Hammer cache controller.
type Cache struct {
	machine.CacheBase
	// wb holds evicted owner lines until the home grants the writeback
	// slot.
	wb machine.Writebacks
}

// NewCache builds node id's Hammer controller.
func NewCache(sys *machine.System, id msg.NodeID) *Cache {
	c := &Cache{}
	c.InitBase(sys, id, c)
	sys.Net.Register(c.CachePort(), c)
	return c
}

// HasPermission implements machine.CacheHooks.
func (c *Cache) HasPermission(l *cache.Line, write bool) bool {
	if write {
		return l.State == stateM && l.Valid
	}
	return l.State >= stateS && l.Valid
}

// StartMiss implements machine.CacheHooks.
func (c *Cache) StartMiss(m *machine.MSHR) {
	// Expect one response from every other node plus the memory.
	m.AcksNeeded = c.Cfg.Procs
	kind := msg.KindGetS
	if m.Write {
		kind = msg.KindGetM
	}
	c.Net.Send(msg.Message{
		Kind: kind, Cat: msg.CatRequest,
		Src: c.CachePort(), Dst: c.HomePort(m.Block),
		Addr: m.Block.Base(), Requester: c.CachePort(),
	})
}

// EvictL2 implements machine.CacheHooks: owner evictions announce intent
// to the home and park the line in the writeback buffer until the home
// grants the slot.
func (c *Cache) EvictL2(v cache.Line) {
	if v.State != stateM && v.State != stateO {
		return
	}
	c.wb.Push(v)
	c.Net.Send(msg.Message{
		Kind: msg.KindPutM, Cat: msg.CatControl,
		Src: c.CachePort(), Dst: c.HomePort(v.Block), Addr: v.Block.Base(),
	})
}

// Handle implements interconnect.Handler.
func (c *Cache) Handle(m *msg.Message) {
	switch m.Kind {
	case msg.KindProbe:
		c.onProbe(m)
	case msg.KindProbeData, msg.KindProbeAck, msg.KindMemData:
		c.onResponse(m)
	case msg.KindWBAck:
		c.onWBProceed(m)
	default:
		panic("hammer: cache received unexpected " + m.Kind.String())
	}
}

// onProbe answers a home broadcast. Probes are totally serialized by the
// home, so they always find stable state (or the writeback buffer).
func (c *Cache) onProbe(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	exclusive := m.Owner // probe for a GetM
	if e := c.wb.Owner(b); e != nil {
		if exclusive {
			c.respond(m.Requester, b, msg.KindProbeData, e.Data, true, e.Dirty)
			e.Owner = false
		} else {
			c.respond(m.Requester, b, msg.KindProbeData, e.Data, false, false)
		}
		return
	}
	l := c.L2.Lookup(b)
	if l == nil || l.State == stateI {
		c.respond(m.Requester, b, msg.KindProbeAck, 0, false, false)
		return
	}
	switch {
	case exclusive && l.State >= stateO:
		c.respond(m.Requester, b, msg.KindProbeData, l.Data, true, l.Dirty)
		c.DropLine(b)
	case exclusive: // shared copy: invalidate and ack
		c.DropLine(b)
		c.respond(m.Requester, b, msg.KindProbeAck, 0, false, false)
	case c.Cfg.Migratory && l.State == stateM && l.Written:
		// Migratory-sharing optimization.
		c.respond(m.Requester, b, msg.KindProbeData, l.Data, true, l.Dirty)
		c.DropLine(b)
	case l.State == stateM:
		c.respond(m.Requester, b, msg.KindProbeData, l.Data, false, false)
		l.State = stateO
	case l.State == stateO:
		c.respond(m.Requester, b, msg.KindProbeData, l.Data, false, false)
	default: // S on a GetS probe
		c.respond(m.Requester, b, msg.KindProbeAck, 0, false, false)
	}
}

func (c *Cache) respond(to msg.Port, b msg.Block, kind msg.Kind, data uint64, grantOwner, dirty bool) {
	cat := msg.CatControl
	hasData := kind == msg.KindProbeData
	if hasData {
		cat = msg.CatData
	}
	c.Net.SendAfter(msg.Message{
		Kind: kind, Cat: cat,
		Src: c.CachePort(), Dst: to, Addr: b.Base(),
		HasData: hasData, Data: data, Owner: grantOwner, Dirty: dirty,
	}, c.Cfg.L2Latency)
}

// onResponse collects probe responses and the memory response.
func (c *Cache) onResponse(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	mshr := c.Outstanding[b]
	if mshr == nil {
		panic(fmt.Sprintf("hammer: node %d stray %v for block %d", c.ID, m.Kind, b))
	}
	mshr.AcksGot++
	if m.Kind == msg.KindProbeData {
		// Owner data beats the (possibly stale) memory copy.
		mshr.Fill = machine.FillOf(m)
		mshr.GotData = true
	} else if m.Kind == msg.KindMemData && !mshr.GotData {
		mshr.Fill = machine.FillOf(m)
	}
	if mshr.AcksGot < mshr.AcksNeeded {
		return
	}
	// All responses in: pick the best data and fill.
	fill := &mshr.Fill
	if !fill.Valid {
		panic("hammer: transaction completed without any data")
	}
	data, dirty, owner := fill.Data, fill.Dirty, fill.Owner
	written := false
	if e := c.wb.Owner(b); e != nil {
		// Our own evicted copy is the real owner copy (self-race).
		data, dirty, owner, written = e.Data, e.Dirty, true, e.Written
		e.Owner = false
	}
	l := c.EnsureL2(b)
	l.Valid = true
	l.Data = data
	l.Dirty = dirty
	l.Written = written
	if mshr.Write || owner {
		l.State = stateM
	} else {
		l.State = stateS
	}
	c.CompleteMiss(mshr)
	c.Net.Send(msg.Message{
		Kind: msg.KindUnblock, Cat: msg.CatControl,
		Src: c.CachePort(), Dst: c.HomePort(b), Addr: b.Base(),
	})
}

// onWBProceed supplies the writeback data (or cancels a stale one).
func (c *Cache) onWBProceed(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	e := c.wb.Pop(b)
	var out msg.Message
	if e.Owner {
		out = msg.Message{
			Kind: msg.KindPutM, Cat: msg.CatData,
			Src: c.CachePort(), Dst: c.HomePort(b), Addr: b.Base(),
			HasData: true, Data: e.Data, Dirty: e.Dirty,
		}
	} else {
		out = msg.Message{
			Kind: msg.KindWBStale, Cat: msg.CatControl,
			Src: c.CachePort(), Dst: c.HomePort(b), Addr: b.Base(),
		}
	}
	c.Net.Send(out)
}

// homeLine is the per-block serialization state at the home.
type homeLine struct {
	data  uint64
	busy  bool
	queue []msg.Message
}

// Memory is the Hammer home node controller: a per-block transaction
// queue and the DRAM copy, with no directory state at all.
type Memory struct {
	sys *machine.System
	// isle is the controller's island context; event-time sends go
	// through its network view.
	isle  *machine.Isle
	id    msg.NodeID
	lines msg.Table[homeLine]
	// probeDsts caches, per requesting node, the static probe broadcast
	// set (every cache but the requester's).
	probeDsts [][]msg.Port
	// homeReqs is the protocol's named metric: transactions serialized
	// at home controllers.
	homeReqs *stats.Counter
}

// NewMemory builds and registers node id's home controller.
func NewMemory(sys *machine.System, id msg.NodeID) *Memory {
	m := &Memory{sys: sys, isle: sys.IsleFor(int(id)), id: id}
	m.homeReqs = sys.Metrics.Counter(stats.Desc{
		Name: "hammer_home_requests", Unit: "count", Fmt: "%.0f",
		Help: "transactions serialized at home controllers",
	})
	sys.Net.Register(m.Port(), m)
	return m
}

// Port returns the home controller's network port.
func (m *Memory) Port() msg.Port { return msg.Port{Node: m.id, Unit: msg.UnitMem} }

// Handle implements interconnect.Handler.
func (m *Memory) Handle(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	l := m.lines.At(b)
	switch mm.Kind {
	case msg.KindGetS, msg.KindGetM:
		if l.busy {
			l.queue = append(l.queue, *mm)
			return
		}
		m.startGet(l, mm)
	case msg.KindPutM:
		if mm.HasData {
			// Writeback data for the granted slot.
			l.data = mm.Data
			m.finish(l)
			return
		}
		if l.busy {
			l.queue = append(l.queue, *mm)
			return
		}
		m.startPut(l, mm)
	case msg.KindWBStale:
		m.finish(l)
	case msg.KindUnblock:
		m.finish(l)
	default:
		panic("hammer: home received unexpected " + mm.Kind.String())
	}
}

// probeTargets returns the cached probe destination set for a requester.
func (m *Memory) probeTargets(req msg.NodeID) []msg.Port {
	if m.probeDsts == nil {
		m.probeDsts = make([][]msg.Port, m.sys.Cfg.Procs)
	}
	if m.probeDsts[req] == nil {
		dsts := make([]msg.Port, 0, m.sys.Cfg.Procs-1)
		for i := 0; i < m.sys.Cfg.Procs; i++ {
			if msg.NodeID(i) != req {
				dsts = append(dsts, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
			}
		}
		m.probeDsts[req] = dsts
	}
	return m.probeDsts[req]
}

// startGet broadcasts probes to every node except the requester and
// fetches the memory copy in parallel.
func (m *Memory) startGet(l *homeLine, mm *msg.Message) {
	m.homeReqs.Inc()
	l.busy = true
	cfg := m.sys.Cfg
	m.isle.Net.MulticastAfter(msg.Message{
		Kind: msg.KindProbe, Cat: msg.CatRequest,
		Src: m.Port(), Addr: mm.Addr, Requester: mm.Requester,
		Owner: mm.Kind == msg.KindGetM, // exclusive probe
	}, m.probeTargets(mm.Requester.Node), cfg.CtrlLatency)
	m.isle.Net.SendAfter(msg.Message{
		Kind: msg.KindMemData, Cat: msg.CatData,
		Src: m.Port(), Dst: mm.Requester, Addr: mm.Addr,
		HasData: true, Data: l.data,
	}, cfg.CtrlLatency+cfg.MemLatency)
}

// startPut grants the writeback slot.
func (m *Memory) startPut(l *homeLine, mm *msg.Message) {
	m.homeReqs.Inc()
	l.busy = true
	m.isle.Net.SendAfter(msg.Message{
		Kind: msg.KindWBAck, Cat: msg.CatControl,
		Src: m.Port(), Dst: mm.Src, Addr: mm.Addr,
	}, m.sys.Cfg.CtrlLatency)
}

// finish completes the current transaction and starts the next.
func (m *Memory) finish(l *homeLine) {
	if !l.busy {
		panic("hammer: completion on idle line")
	}
	l.busy = false
	if len(l.queue) == 0 {
		return
	}
	next := l.queue[0]
	l.queue = slices.Delete(l.queue, 0, 1)
	switch next.Kind {
	case msg.KindGetS, msg.KindGetM:
		m.startGet(l, &next)
	case msg.KindPutM:
		m.startPut(l, &next)
	}
}

// System bundles the Hammer machine's components.
type System struct {
	Caches []*Cache
	Mems   []*Memory
}

// Build constructs the Hammer protocol on sys (any topology).
func Build(sys *machine.System) *System {
	s := &System{}
	for i := 0; i < sys.Cfg.Procs; i++ {
		s.Caches = append(s.Caches, NewCache(sys, msg.NodeID(i)))
		s.Mems = append(s.Mems, NewMemory(sys, msg.NodeID(i)))
	}
	return s
}

// Controllers adapts the caches for machine.System.Execute.
func (s *System) Controllers() []machine.Controller {
	out := make([]machine.Controller, len(s.Caches))
	for i, c := range s.Caches {
		out[i] = c
	}
	return out
}
