package core

import (
	"fmt"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/stats"
)

// arbPhase is the arbiter state machine of Figure 3c.
type arbPhase uint8

const (
	arbIdle arbPhase = iota
	arbActivating
	arbActive
	arbDeactivating
)

// Arbiter is the persistent-request arbiter co-located with each home
// memory module. It serializes persistent requests (FIFO, hence fair),
// activates at most one at a time by informing every node, collects
// acknowledgments to avoid activation/deactivation races, and deactivates
// when the starving processor reports satisfaction.
type Arbiter struct {
	sys *machine.System
	// isle is the arbiter's island context; event-time sends, clock reads,
	// and observations must go through it, not the system-level handles.
	isle  *machine.Isle
	id    msg.NodeID
	phase arbPhase

	queue []arbEntry
	// targets caches the static activation broadcast set.
	targets []msg.Port
	// acksPending counts outstanding activate/deactivate acknowledgments.
	acksPending int
	// deactRequested remembers a deactivation that arrived while the
	// activation broadcast was still being acknowledged.
	deactRequested bool
	seq            uint64

	// Activations counts served persistent requests (for tests/stats).
	Activations uint64
	// activations is this arbiter's shard of the same count as a named
	// metric.
	activations *stats.Counter
}

type arbEntry struct {
	requester msg.Port
	addr      msg.Addr
	// epoch is the starver's per-node persistent-request number, echoed
	// in activations/deactivations so the starver can match them.
	epoch int
}

// NewArbiter builds node id's arbiter and registers it on the network.
func NewArbiter(sys *machine.System, id msg.NodeID) *Arbiter {
	a := &Arbiter{sys: sys, isle: sys.IsleFor(int(id)), id: id}
	a.activations = sys.Metrics.Counter(stats.Desc{
		Name: "persistent_activations", Unit: "count", Fmt: "%.0f",
		Help: "persistent requests activated by home arbiters",
	})
	sys.Net.Register(a.Port(), a)
	return a
}

// Port returns the arbiter's network port.
func (a *Arbiter) Port() msg.Port { return msg.Port{Node: a.id, Unit: msg.UnitArbiter} }

// QueueLen reports persistent requests waiting behind the active one.
func (a *Arbiter) QueueLen() int {
	if a.phase == arbIdle {
		return len(a.queue)
	}
	return len(a.queue) - 1
}

// Handle implements interconnect.Handler.
func (a *Arbiter) Handle(m *msg.Message) {
	switch m.Kind {
	case msg.KindPersistentReq:
		a.queue = append(a.queue, arbEntry{requester: m.Requester, addr: m.Addr, epoch: m.Acks})
		if a.phase == arbIdle {
			a.startActivation()
		}
	case msg.KindPersistentActivateAck:
		a.collectAck(m, arbActivating)
	case msg.KindPersistentDeactivate:
		a.handleDeactivateRequest(m)
	case msg.KindPersistentDeactivateAck:
		a.collectAck(m, arbDeactivating)
	default:
		panic("core: arbiter received unexpected " + m.Kind.String())
	}
}

// broadcastTargets returns every port that tracks persistent requests:
// all cache controllers of the root scope plus this home's memory
// controller. Persistent requests are the machine-wide mechanism, so
// the set always spans the root scope's members, never a cluster.
func (a *Arbiter) broadcastTargets() []msg.Port {
	members := a.sys.Scope.Members
	ports := make([]msg.Port, 0, len(members)+1)
	for _, n := range members {
		ports = append(ports, msg.Port{Node: n, Unit: msg.UnitCache})
	}
	ports = append(ports, msg.Port{Node: a.id, Unit: msg.UnitMem})
	return ports
}

func (a *Arbiter) broadcast(kind msg.Kind, e arbEntry) {
	a.seq++
	a.acksPending = len(a.broadcastTargetsCached())
	a.isle.Net.MulticastAfter(msg.Message{
		Kind: kind, Cat: msg.CatReissue,
		Src: a.Port(), Addr: e.addr, Requester: e.requester, Seq: a.seq,
		Acks: e.epoch,
	}, a.broadcastTargetsCached(), a.sys.Cfg.CtrlLatency)
}

// broadcastTargetsCached memoizes the static activation broadcast set.
func (a *Arbiter) broadcastTargetsCached() []msg.Port {
	if a.targets == nil {
		a.targets = a.broadcastTargets()
	}
	return a.targets
}

func (a *Arbiter) startActivation() {
	if len(a.queue) == 0 || a.phase != arbIdle {
		panic("core: startActivation in wrong state")
	}
	a.phase = arbActivating
	a.deactRequested = false
	a.Activations++
	a.activations.Inc()
	if o := &a.isle.Obs; o.Kinds.Has(stats.PersistentActivated) {
		o.On(stats.Event{Kind: stats.PersistentActivated, At: a.isle.K.Now(), Node: int32(a.id), Block: msg.BlockOf(a.queue[0].addr)})
	}
	a.broadcast(msg.KindPersistentActivate, a.queue[0])
}

func (a *Arbiter) startDeactivation() {
	a.phase = arbDeactivating
	a.broadcast(msg.KindPersistentDeactivate, a.queue[0])
}

func (a *Arbiter) handleDeactivateRequest(m *msg.Message) {
	if len(a.queue) == 0 || a.phase == arbIdle {
		panic("core: deactivation with no active persistent request")
	}
	cur := a.queue[0]
	if cur.requester != m.Src || msg.BlockOf(cur.addr) != msg.BlockOf(m.Addr) {
		panic(fmt.Sprintf("core: deactivation from %v for block %d does not match active %v/%d",
			m.Src, msg.BlockOf(m.Addr), cur.requester, msg.BlockOf(cur.addr)))
	}
	switch a.phase {
	case arbActivating:
		a.deactRequested = true // finish collecting activate acks first
	case arbActive:
		a.startDeactivation()
	case arbDeactivating:
		panic("core: duplicate deactivation")
	}
}

func (a *Arbiter) collectAck(m *msg.Message, expect arbPhase) {
	if a.phase != expect || m.Seq != a.seq {
		panic(fmt.Sprintf("core: stray ack %v (phase %d, seq %d/%d)", m.Kind, a.phase, m.Seq, a.seq))
	}
	a.acksPending--
	if a.acksPending > 0 {
		return
	}
	switch a.phase {
	case arbActivating:
		a.phase = arbActive
		if a.deactRequested {
			a.startDeactivation()
		}
	case arbDeactivating:
		done := a.queue[0]
		a.queue = a.queue[1:]
		a.phase = arbIdle
		if o := &a.isle.Obs; o.Kinds.Has(stats.PersistentDeactivated) {
			o.On(stats.Event{Kind: stats.PersistentDeactivated, At: a.isle.K.Now(), Node: int32(a.id), Block: msg.BlockOf(done.addr)})
		}
		if len(a.queue) > 0 {
			a.startActivation()
		}
	}
}
