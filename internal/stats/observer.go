package stats

import (
	"fmt"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// Kind identifies one of the simulation events observers subscribe to:
// the paper's coherence mechanisms (misses, transient-request reissues,
// persistent-request activation and deactivation, token transfers),
// interconnect link traversals, and the warmup boundary.
type Kind uint8

// Event kinds. Adding one means a constant here, its kindNames entry,
// its row in Event's field table, and its fire site.
const (
	// MissIssued: a processor's access missed and a coherence
	// transaction started.
	MissIssued Kind = iota
	// MissCompleted: the miss committed.
	MissCompleted
	// Reissued: a Token Coherence transient request timed out and was
	// reissued.
	Reissued
	// PersistentActivated: a home arbiter activated a persistent request
	// (the starvation-avoidance mechanism engaging).
	PersistentActivated
	// PersistentDeactivated: a home arbiter finished a persistent
	// request's deactivation handshake and retired it.
	PersistentDeactivated
	// TokensTransferred: a cache controller received a token-carrying
	// message.
	TokensTransferred
	// NetworkHop: a message crossed one interconnect link (unicast hops
	// and multicast tree edges; same-node deliveries cross no link and
	// fire nothing).
	NetworkHop
	// MeasurementStarted: every processor finished its cache-warming
	// operations and the run's statistics reset; everything after it is
	// the measured interval. Runs without warmup never fire it.
	MeasurementStarted

	numKinds
)

var kindNames = [numKinds]string{
	"MissIssued", "MissCompleted", "Reissued", "PersistentActivated",
	"PersistentDeactivated", "TokensTransferred", "NetworkHop", "MeasurementStarted",
}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Mask is a set of Kinds: bit k is set when Kind k is in the set.
type Mask uint16

// MaskOf returns the set holding kinds.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether Kind k is in the set.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// AllKinds subscribes to every event; ProtocolKinds to every event but
// the per-link NetworkHop, which outnumbers the rest ~100:1.
const (
	AllKinds      Mask = 1<<numKinds - 1
	ProtocolKinds Mask = AllKinds &^ (1 << NetworkHop)
)

// Event is one simulation event, passed by value. Its fields mean, per
// Kind (a field marked - is zero):
//
//	Kind                   At                 Node  N           Aux      Block Cat  Flag
//	MissIssued             issue time         proc  -           -        block -    write
//	MissCompleted          completion time    proc  reissues    latency  block -    persistent
//	Reissued               reissue time       proc  attempt(1+) -        block -    -
//	PersistentActivated    activation time    home  -           -        block -    -
//	PersistentDeactivated  retirement time    home  -           -        block -    -
//	TokensTransferred      arrival time       proc  tokens      -        block -    -
//	NetworkHop             link departure     link  bytes       -        -     cat  -
//	MeasurementStarted     warmup boundary    -     -           -        -     -    -
//
// A NetworkHop's At is when the message starts across the link, after
// any queueing behind earlier traffic on it.
type Event struct {
	At    sim.Time
	Aux   sim.Time
	Block msg.Block
	Node  int32
	N     int32
	Kind  Kind
	Cat   msg.Category
	Flag  bool
}

// Observer subscribes On to the events whose Kind is in Kinds, so
// probes can derive metrics the machine's built-in counters do not carry
// (latency CDFs, per-block heat, inter-reissue intervals, ...). The
// zero Observer subscribes to nothing and attaching it is a no-op.
//
// Events reach On in simulation order on one goroutine, at any island
// count. They fire during warmup too; metrics a probe registers in the
// run's MetricSet are zeroed automatically at the warmup boundary (see
// MetricSet.Reset), so most probes need no warmup handling of their
// own. Probes that buffer events instead — the transaction tracer —
// subscribe to MeasurementStarted and discard their pre-boundary buffer
// themselves.
type Observer struct {
	Kinds Mask
	On    func(Event)
}
