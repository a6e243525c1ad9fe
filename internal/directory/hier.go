package directory

// This file is the two-level directory protocol ("dir2"): the homeCore
// MOSI state machine replicated per cluster, under a machine-wide
// authority tier.
//
// Every node runs a ClusterHome for its cluster's slice of the address
// space (homes block-interleaved across the cluster's members, see
// machine.Scope.Home), so a miss that stays cluster-private is
// serialized one or two hops away instead of crossing the machine. A
// cluster home may only serve a block while it holds that block's
// authority, granted by the GlobalAuth tier at the block's machine-wide
// home. When another cluster wants the block, the global tier recalls
// the authority: the holding cluster home invalidates every cached copy
// in its cluster, gathers the current data, and returns both. Authority
// transfers are FIFO at the global tier, so cross-cluster sharing is
// starvation-free; each tenure serves at least the requests queued when
// the grant arrived.

import (
	"slices"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/stats"
)

// authLine is a cluster home's authority state for one block.
type authLine struct {
	// have marks held authority: the homeCore line is live and may
	// serialize requests for the block.
	have bool
	// acquiring marks an AuthReq in flight to the global tier.
	acquiring bool
	// pendingRecall marks a recall that arrived while a forwarded
	// transaction was in flight; the unblock path starts it.
	pendingRecall bool
	// recalling marks an in-progress recall: cluster copies are being
	// invalidated and gathered before the authority returns.
	recalling bool
	// needData marks a recall waiting for the cluster owner's data.
	needData bool
	// recallAcks counts outstanding invalidation acks of the recall.
	recallAcks int
}

// ClusterHome is the per-cluster directory tier of the two-level
// protocol: node id's homeCore over its cluster's members, serving only
// while it holds the block's authority from the global tier.
type ClusterHome struct {
	homeCore
	id    msg.NodeID
	scope *machine.Scope
	auths msg.Table[authLine]
	// acquires counts authority acquisitions (cluster-level misses that
	// escalated to the global tier).
	acquires *stats.Counter
}

// NewClusterHome builds and registers node id's cluster directory tier
// over scope (the cluster containing id).
func NewClusterHome(sys *machine.System, id msg.NodeID, scope *machine.Scope) *ClusterHome {
	h := &ClusterHome{
		homeCore: newHomeCore(sys, msg.Port{Node: id, Unit: msg.UnitMem}),
		id:       id,
		scope:    scope,
	}
	h.onIdle = h.idleHook
	h.acquires = sys.Metrics.Counter(stats.Desc{
		Name: "dir2_authority_acquires", Unit: "count", Fmt: "%.0f",
		Help: "block authorities acquired by cluster homes from the global tier",
	})
	sys.Net.Register(h.Port(), h)
	return h
}

// Port returns the cluster home's network port.
func (h *ClusterHome) Port() msg.Port { return h.port }

// Authority reports the block's authority state for tests.
func (h *ClusterHome) Authority(b msg.Block) (have, acquiring, recalling bool) {
	a := h.auths.Get(b)
	return a.have, a.acquiring, a.recalling || a.pendingRecall
}

// globalPort returns the block's global authority port: the machine-wide
// home node's arbiter unit (free in dir2, which runs no persistent
// requests).
func (h *ClusterHome) globalPort(b msg.Block) msg.Port {
	return msg.Port{Node: h.sys.Scope.Home(b), Unit: msg.UnitArbiter}
}

// Handle implements interconnect.Handler.
func (h *ClusterHome) Handle(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	switch mm.Kind {
	case msg.KindGetS, msg.KindGetM, msg.KindPutM:
		if !h.scope.Set.Has(mm.Src.Node) {
			panic("directory: request from a node outside the home's realm")
		}
		l := h.lines.At(b)
		a := h.auths.At(b)
		if !a.have || a.acquiring || a.recalling || a.pendingRecall || l.busy {
			l.queue = append(l.queue, *mm)
			h.ensureAuthority(b, a)
			return
		}
		h.process(l, mm)
	case msg.KindUnblock:
		h.unblock(h.lines.At(b), mm)
	case msg.KindAuthGrant:
		h.onGrant(b, mm)
	case msg.KindRecall:
		h.onRecall(b)
	case msg.KindData:
		h.onRecallData(b, mm)
	case msg.KindAck:
		h.onRecallAck(b)
	default:
		panic("directory: cluster home received unexpected " + mm.Kind.String())
	}
}

// ensureAuthority escalates to the global tier when the cluster neither
// holds nor is already requesting the block's authority.
func (h *ClusterHome) ensureAuthority(b msg.Block, a *authLine) {
	if a.have || a.acquiring {
		return
	}
	a.acquiring = true
	h.acquires.Inc()
	h.send(msg.Message{
		Kind: msg.KindAuthReq, Cat: msg.CatRequest,
		Src: h.port, Dst: h.globalPort(b), Addr: b.Base(),
	}, h.sys.Cfg.CtrlLatency)
}

func (h *ClusterHome) onGrant(b msg.Block, mm *msg.Message) {
	a := h.auths.At(b)
	if !a.acquiring || a.have {
		panic("directory: stray authority grant")
	}
	l := h.lines.At(b)
	if l.state != dirI || l.sharers.Len() != 0 || l.busy {
		panic("directory: authority granted over live cluster state")
	}
	a.acquiring = false
	a.have = true
	l.data = mm.Data
	for len(l.queue) > 0 && !l.busy {
		next := l.queue[0]
		l.queue = slices.Delete(l.queue, 0, 1)
		h.process(l, &next)
	}
}

func (h *ClusterHome) onRecall(b msg.Block) {
	a := h.auths.At(b)
	// Grants and recalls share the global->cluster-home path with equal
	// latency, so FIFO delivery guarantees a recall always finds the
	// authority held, never still in flight.
	if !a.have || a.acquiring || a.recalling || a.pendingRecall {
		panic("directory: recall without held authority")
	}
	l := h.lines.At(b)
	if l.busy {
		a.pendingRecall = true // the unblock path starts the recall
		return
	}
	h.startRecall(b, l, a)
}

// idleHook is the homeCore onIdle hook: a recall that arrived during the
// just-completed transaction runs before any queued requests, taking
// queue ownership (the queue drains after the authority is re-acquired).
func (h *ClusterHome) idleHook(l *dirLine, b msg.Block) bool {
	a := h.auths.At(b)
	if !a.pendingRecall {
		return false
	}
	a.pendingRecall = false
	h.startRecall(b, l, a)
	return true
}

// startRecall invalidates every cached copy in the cluster and gathers
// the current data, running as its own pseudo-transaction (a fresh line
// seq) so racing fills order themselves against it like any other.
func (h *ClusterHome) startRecall(b msg.Block, l *dirLine, a *authLine) {
	a.recalling = true
	l.seq++
	seq := l.seq
	switch l.state {
	case dirI, dirS:
		// The cluster home's copy is current; drop any read-only sharers.
		a.needData = false
		a.recallAcks = l.sharers.Len()
		h.sendInvals(l.sharers, b.Base(), h.port, seq)
	case dirM, dirO:
		// Pull the data from the cluster owner and drop the rest.
		others := l.sharers.Without(l.owner)
		a.needData = true
		a.recallAcks = others.Len()
		h.send(msg.Message{
			Kind: msg.KindFwdGetM, Cat: msg.CatRequest,
			Src: h.port, Dst: msg.Port{Node: l.owner, Unit: msg.UnitCache},
			Addr: b.Base(), Requester: h.port, Acks: a.recallAcks, Seq: seq,
		}, h.dirLat())
		h.sendInvals(others, b.Base(), h.port, seq)
	}
	h.maybeFinishRecall(b, l, a)
}

func (h *ClusterHome) onRecallData(b msg.Block, mm *msg.Message) {
	a := h.auths.At(b)
	if !a.recalling || !a.needData {
		panic("directory: cluster home received data outside a recall")
	}
	l := h.lines.At(b)
	l.data = mm.Data
	a.needData = false
	h.maybeFinishRecall(b, l, a)
}

func (h *ClusterHome) onRecallAck(b msg.Block) {
	a := h.auths.At(b)
	if !a.recalling || a.recallAcks <= 0 {
		panic("directory: cluster home received a stray invalidation ack")
	}
	a.recallAcks--
	h.maybeFinishRecall(b, h.lines.At(b), a)
}

func (h *ClusterHome) maybeFinishRecall(b msg.Block, l *dirLine, a *authLine) {
	if !a.recalling || a.needData || a.recallAcks > 0 {
		return
	}
	a.recalling = false
	a.have = false
	// Every cluster copy is gone; reset the realm to I. The line seq
	// keeps counting so messages from before the recall stay ordered
	// against the next tenure's.
	l.state = dirI
	l.owner = 0
	l.sharers = msg.NodeSet{}
	h.send(msg.Message{
		Kind: msg.KindRecallAck, Cat: msg.CatData,
		Src: h.port, Dst: h.globalPort(b), Addr: b.Base(),
		HasData: true, Data: l.data,
	}, h.sys.Cfg.CtrlLatency)
	if len(l.queue) > 0 {
		h.ensureAuthority(b, a)
	}
}

// authEntry is the global tier's per-block authority record.
type authEntry struct {
	held   bool
	holder msg.NodeID // cluster home currently holding the authority
	busy   bool       // recall in flight to holder
	data   uint64     // current data while no cluster holds the authority
	queue  []msg.NodeID
}

// GlobalAuth is the machine-wide authority tier of the two-level
// directory: one per node, at the block-interleaved machine home,
// serving block authorities to cluster homes FIFO and recalling them on
// conflicting requests. It registers on the arbiter unit, which dir2
// leaves free (the protocol runs no persistent requests).
type GlobalAuth struct {
	sys   *machine.System
	isle  *machine.Isle
	id    msg.NodeID
	lines msg.Table[authEntry]
	// recalls counts authority recalls (cross-cluster conflicts).
	recalls *stats.Counter
}

// NewGlobalAuth builds and registers node id's global authority tier.
func NewGlobalAuth(sys *machine.System, id msg.NodeID) *GlobalAuth {
	g := &GlobalAuth{sys: sys, isle: sys.IsleFor(int(id)), id: id}
	g.recalls = sys.Metrics.Counter(stats.Desc{
		Name: "dir2_authority_recalls", Unit: "count", Fmt: "%.0f",
		Help: "block authorities recalled from cluster homes on cross-cluster conflicts",
	})
	sys.Net.Register(g.Port(), g)
	return g
}

// Port returns the global authority's network port.
func (g *GlobalAuth) Port() msg.Port { return msg.Port{Node: g.id, Unit: msg.UnitArbiter} }

// Holder reports the block's authority holder for tests.
func (g *GlobalAuth) Holder(b msg.Block) (held bool, holder msg.NodeID) {
	e := g.lines.Get(b)
	return e.held, e.holder
}

// Handle implements interconnect.Handler.
func (g *GlobalAuth) Handle(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	e := g.lines.At(b)
	switch mm.Kind {
	case msg.KindAuthReq:
		req := mm.Src.Node
		if !e.held && !e.busy {
			g.grant(e, b, req)
			return
		}
		e.queue = append(e.queue, req)
		if !e.busy {
			g.recall(e, b)
		}
	case msg.KindRecallAck:
		if !e.held || !e.busy {
			panic("directory: recall ack without an outstanding recall")
		}
		e.data = mm.Data
		e.held = false
		e.busy = false
		next := e.queue[0]
		e.queue = e.queue[1:]
		g.grant(e, b, next)
		if len(e.queue) > 0 {
			g.recall(e, b) // FIFO: the grant precedes this on the same path
		}
	default:
		panic("directory: global authority received unexpected " + mm.Kind.String())
	}
}

func (g *GlobalAuth) grant(e *authEntry, b msg.Block, to msg.NodeID) {
	e.held = true
	e.holder = to
	g.isle.Net.SendAfter(msg.Message{
		Kind: msg.KindAuthGrant, Cat: msg.CatData,
		Src: g.Port(), Dst: msg.Port{Node: to, Unit: msg.UnitMem}, Addr: b.Base(),
		HasData: true, Data: e.data,
	}, g.sys.Cfg.CtrlLatency)
}

func (g *GlobalAuth) recall(e *authEntry, b msg.Block) {
	e.busy = true
	g.recalls.Inc()
	g.isle.Net.SendAfter(msg.Message{
		Kind: msg.KindRecall, Cat: msg.CatRequest,
		Src: g.Port(), Dst: msg.Port{Node: e.holder, Unit: msg.UnitMem}, Addr: b.Base(),
	}, g.sys.Cfg.CtrlLatency)
}

// System2 bundles the two-level directory machine's components.
type System2 struct {
	Caches []*Cache
	Homes  []*ClusterHome
	Global []*GlobalAuth
}

// Build2 constructs the two-level directory protocol on sys. The
// topology must expose cluster metadata (topology.Clustered).
func Build2(sys *machine.System) (*System2, error) {
	byNode, err := sys.ScopesFor()
	if err != nil {
		return nil, err
	}
	s := &System2{}
	for i := 0; i < sys.Cfg.Procs; i++ {
		id := msg.NodeID(i)
		c := NewCache(sys, id)
		// Re-point the cache at its cluster realm: requests, writebacks
		// and unblocks go to the cluster home instead of the machine home.
		c.Scope = byNode[i]
		s.Caches = append(s.Caches, c)
		s.Homes = append(s.Homes, NewClusterHome(sys, id, byNode[i]))
		s.Global = append(s.Global, NewGlobalAuth(sys, id))
	}
	return s, nil
}
