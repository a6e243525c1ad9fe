package directory

import (
	"slices"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// Directory states at the home.
type dirState uint8

const (
	dirI dirState = iota // memory owns; no cached copies known
	dirS                 // memory owns; read-only sharers
	dirO                 // a cache owns; possibly sharers
	dirM                 // a cache owns exclusively
)

// dirLine is one block's home state. Its fields are ordered to pack
// into 104 bytes.
type dirLine struct {
	state dirState
	busy  bool
	// txnKind and txnReq record the in-flight forwarded transaction.
	txnKind msg.Kind
	owner   msg.NodeID
	txnReq  msg.Port
	sharers msg.NodeSet // nodes known to hold a read-only copy
	data    uint64
	// seq numbers this block's home transactions; every outgoing data,
	// grant, forward and invalidation is stamped with it so caches can
	// order messages that raced on the unordered fabric.
	seq uint64
	// ownerSeq is the transaction that made the current cache owner the
	// owner; a PutM is genuine only if it carries this epoch.
	ownerSeq uint64
	txnSeq   uint64
	// queue holds the requests that found the line busy, oldest first.
	// Drains pop by shifting, so a line's queue reuses its storage.
	queue []msg.Message
}

// homeCore is the per-block MOSI home directory state machine, reusable
// across coherence realms: the flat machine-wide home (Memory) embeds it
// over all nodes, and the two-level protocol's per-cluster tier
// (ClusterHome) embeds it over one cluster's members. Either way a
// line's sharers are node IDs, so the core needs no notion of its
// realm. The embedding wrapper owns message reception, queueing policy,
// and network registration; the core owns the line state, request
// processing, and the unblock path.
type homeCore struct {
	sys  *machine.System
	isle *machine.Isle
	// port is the home's own network port; every outgoing message is
	// stamped with it as Src.
	port  msg.Port
	lines msg.Table[dirLine]
	// homeReqs is this home's shard of the protocol's named metric
	// dir_home_requests: transactions serialized at home directories.
	homeReqs *stats.Counter

	// onIdle, when non-nil, runs in the unblock path after a transaction
	// completes (the line just went idle) and before the queue drains.
	// Returning true transfers queue ownership to the wrapper, which
	// leaves the queue untouched here (the hierarchical home uses this
	// to start a pending authority recall ahead of queued requests).
	onIdle func(l *dirLine, b msg.Block) bool
}

// newHomeCore builds a home state machine sending from port.
func newHomeCore(sys *machine.System, port msg.Port) homeCore {
	hc := homeCore{sys: sys, isle: sys.IsleFor(int(port.Node)), port: port}
	hc.homeReqs = sys.Metrics.Counter(stats.Desc{
		Name: "dir_home_requests", Unit: "count", Fmt: "%.0f",
		Help: "requests serialized at home directories",
	})
	return hc
}

// latencies: actions that read memory data pay controller + DRAM; pure
// directory actions pay controller + directory lookup.
func (m *homeCore) dataLat() sim.Time { return m.sys.Cfg.CtrlLatency + m.sys.Cfg.MemLatency }
func (m *homeCore) dirLat() sim.Time  { return m.sys.Cfg.CtrlLatency + m.sys.Cfg.DirLatency }

func (m *homeCore) send(out msg.Message, lat sim.Time) {
	m.isle.Net.SendAfter(out, lat)
}

func (m *homeCore) process(l *dirLine, mm *msg.Message) {
	m.homeReqs.Inc()
	req := mm.Requester
	l.seq++
	seq := l.seq
	switch mm.Kind {
	case msg.KindGetS:
		switch l.state {
		case dirI, dirS:
			l.state = dirS
			l.sharers.Add(req.Node)
			m.send(msg.Message{
				Kind: msg.KindData, Cat: msg.CatData,
				Src: m.port, Dst: req, Addr: mm.Addr,
				HasData: true, Data: l.data, Seq: seq,
			}, m.dataLat())
		case dirM, dirO:
			l.busy = true
			l.txnKind = msg.KindGetS
			l.txnReq = req
			l.txnSeq = seq
			m.send(msg.Message{
				Kind: msg.KindFwdGetS, Cat: msg.CatRequest,
				Src: m.port, Dst: msg.Port{Node: l.owner, Unit: msg.UnitCache},
				Addr: mm.Addr, Requester: req, Seq: seq,
			}, m.dirLat())
		}
	case msg.KindGetM:
		switch l.state {
		case dirI:
			l.state = dirM
			l.owner = req.Node
			l.ownerSeq = seq
			l.sharers = msg.NodeSet{}
			m.send(msg.Message{
				Kind: msg.KindData, Cat: msg.CatData,
				Src: m.port, Dst: req, Addr: mm.Addr,
				HasData: true, Data: l.data, Owner: true, Seq: seq,
			}, m.dataLat())
		case dirS:
			others := l.sharers.Without(req.Node)
			n := others.Len()
			l.state = dirM
			l.owner = req.Node
			l.ownerSeq = seq
			l.sharers = msg.NodeSet{}
			m.send(msg.Message{
				Kind: msg.KindData, Cat: msg.CatData,
				Src: m.port, Dst: req, Addr: mm.Addr,
				HasData: true, Data: l.data, Owner: true, Acks: n, Seq: seq,
			}, m.dataLat())
			m.sendInvals(others, mm.Addr, req, seq)
		case dirM, dirO:
			if l.owner == req.Node {
				// Upgrade by the current owner: dataless grant plus
				// invalidations; the directory moves to M immediately.
				others := l.sharers.Without(req.Node)
				n := others.Len()
				l.state = dirM
				l.ownerSeq = seq
				l.sharers = msg.NodeSet{}
				m.send(msg.Message{
					Kind: msg.KindAck, Cat: msg.CatControl,
					Src: m.port, Dst: req, Addr: mm.Addr, Acks: n, Seq: seq,
				}, m.dirLat())
				m.sendInvals(others, mm.Addr, req, seq)
				return
			}
			others := l.sharers.Without(req.Node).Without(l.owner)
			n := others.Len()
			l.busy = true
			l.txnKind = msg.KindGetM
			l.txnReq = req
			l.txnSeq = seq
			m.send(msg.Message{
				Kind: msg.KindFwdGetM, Cat: msg.CatRequest,
				Src: m.port, Dst: msg.Port{Node: l.owner, Unit: msg.UnitCache},
				Addr: mm.Addr, Requester: req, Acks: n, Seq: seq,
			}, m.dirLat())
			m.sendInvals(others, mm.Addr, req, seq)
		}
	case msg.KindPutM:
		if (l.state == dirM || l.state == dirO) && l.owner == mm.Src.Node && l.ownerSeq == mm.Seq {
			l.data = mm.Data
			if l.state == dirM {
				l.state = dirI
			} else {
				l.state = dirS
			}
			l.owner = 0
			m.send(msg.Message{
				Kind: msg.KindWBAck, Cat: msg.CatControl,
				Src: m.port, Dst: mm.Src, Addr: mm.Addr,
			}, m.dirLat())
		} else {
			m.send(msg.Message{
				Kind: msg.KindWBStale, Cat: msg.CatControl,
				Src: m.port, Dst: mm.Src, Addr: mm.Addr,
			}, m.dirLat())
		}
	}
}

// sendInvals invalidates every node of set, in ascending node order.
func (m *homeCore) sendInvals(set msg.NodeSet, addr msg.Addr, req msg.Port, seq uint64) {
	for n := set.Next(0); n >= 0; n = set.Next(n + 1) {
		m.send(msg.Message{
			Kind: msg.KindInv, Cat: msg.CatRequest,
			Src: m.port, Dst: msg.Port{Node: n, Unit: msg.UnitCache},
			Addr: addr, Requester: req, Seq: seq,
		}, m.dirLat())
	}
}

func (m *homeCore) unblock(l *dirLine, mm *msg.Message) {
	if !l.busy {
		panic("directory: unblock on idle line")
	}
	req := l.txnReq
	switch l.txnKind {
	case msg.KindGetS:
		if mm.Owner {
			// Migratory handover: the requester took exclusive ownership.
			l.state = dirM
			l.owner = req.Node
			l.ownerSeq = l.txnSeq
			l.sharers = msg.NodeSet{}
		} else {
			if l.state == dirM {
				l.sharers = msg.NodeSet{}
			}
			l.state = dirO
			l.sharers.Add(req.Node)
			// owner unchanged
		}
	case msg.KindGetM:
		l.state = dirM
		l.owner = req.Node
		l.ownerSeq = l.txnSeq
		l.sharers = msg.NodeSet{}
	}
	l.busy = false
	if m.onIdle != nil && m.onIdle(l, msg.BlockOf(mm.Addr)) {
		return // queue ownership transferred to the wrapper
	}
	// Drain queued requests until one blocks again.
	for len(l.queue) > 0 && !l.busy {
		next := l.queue[0]
		l.queue = slices.Delete(l.queue, 0, 1)
		m.process(l, &next)
	}
}
