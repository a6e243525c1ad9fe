package core

import (
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
)

// Policy decides where a performance protocol sends transient requests.
// Because the correctness substrate guarantees safety and starvation
// freedom regardless, a policy can be aggressive (broadcast), frugal
// (home only), or predictive (multicast to a guessed destination set) —
// exactly the design space §7 of the paper describes. A policy that
// guesses wrong merely causes reissues, never incorrectness.
type Policy interface {
	// Destinations appends the ports a transient request is sent to onto
	// buf and returns the result. The caller owns buf and reuses it per
	// request, so implementations must not retain the returned slice.
	Destinations(c *TokenB, m *machine.MSHR, reissue bool, buf []msg.Port) []msg.Port
	// Observe trains the policy on an incoming token-carrying message.
	// mm is valid only during the call; a policy that keeps it keeps a
	// copy of the value.
	Observe(c *TokenB, mm *msg.Message)
	// Name identifies the resulting protocol.
	Name() string
}

// ScopedPolicy is a Policy that additionally wants the issuing node's
// cluster scope (the coherence realm derived from topology cluster
// metadata). The builder binds it once at construction time, before any
// traffic, so Destinations can consult cluster membership without
// re-deriving it per request.
type ScopedPolicy interface {
	Policy
	BindScope(*machine.Scope)
}

// NewBroadcastPolicy returns TokenB's policy: broadcast every transient
// request to all other caches plus the home memory.
func NewBroadcastPolicy() Policy { return broadcastPolicy{} }

// NewHomePolicy returns TokenD's policy: send transient requests only to
// the home memory, whose soft-state hints redirect them (enable the
// hints with WithPolicy or TokenPolicy.Hints).
func NewHomePolicy() Policy { return homePolicy{} }

// NewPredictPolicy returns TokenM's policy: multicast to the predicted
// holders of the block's macro-region plus the home, with broadcast
// fallback on reissue.
func NewPredictPolicy() Policy { return newPredictPolicy() }

// broadcastPolicy is TokenB: every transient request goes to all other
// caches plus the home memory.
type broadcastPolicy struct{}

func (broadcastPolicy) Name() string { return "tokenb" }

func (broadcastPolicy) Observe(*TokenB, *msg.Message) {}

func (broadcastPolicy) Destinations(c *TokenB, m *machine.MSHR, _ bool, buf []msg.Port) []msg.Port {
	for _, n := range c.Scope.Members {
		if n != c.ID {
			buf = append(buf, msg.Port{Node: n, Unit: msg.UnitCache})
		}
	}
	return append(buf, c.HomePort(m.Block))
}

// homePolicy is TokenD, the directory-like performance protocol of §7:
// transient requests go only to the home memory, which redirects them to
// probable holders using soft-state hints. Bandwidth approaches a
// directory protocol's; stale hints cost only reissues.
type homePolicy struct{}

func (homePolicy) Name() string { return "tokend" }

func (homePolicy) Observe(*TokenB, *msg.Message) {}

func (homePolicy) Destinations(c *TokenB, m *machine.MSHR, _ bool, buf []msg.Port) []msg.Port {
	return append(buf, c.HomePort(m.Block))
}

// predictPolicy is TokenM, the destination-set prediction protocol of
// §7: first-issue requests are multicast to the nodes that recently
// supplied tokens for the block's macro-region plus the home; a reissue
// falls back to full broadcast. It trades a little latency on
// mispredictions for most of TokenB's latency at a fraction of its
// request bandwidth.
type predictPolicy struct {
	// regionShift groups blocks into macro-regions for prediction
	// (paper-style spatial predictors use 1KB regions: 4 blocks).
	regionShift uint
	// holders remembers the recent token suppliers per region.
	holders msg.Table[holderSet]
}

// holderSet is a tiny LRU of predicted destination nodes.
type holderSet struct {
	nodes [4]msg.NodeID
	n     int
}

func (h *holderSet) add(n msg.NodeID) {
	for i := 0; i < h.n; i++ {
		if h.nodes[i] == n {
			return
		}
	}
	if h.n < len(h.nodes) {
		h.nodes[h.n] = n
		h.n++
		return
	}
	copy(h.nodes[:], h.nodes[1:])
	h.nodes[len(h.nodes)-1] = n
}

func newPredictPolicy() *predictPolicy {
	return &predictPolicy{regionShift: 2}
}

func (p *predictPolicy) Name() string { return "tokenm" }

func (p *predictPolicy) region(b msg.Block) msg.Block { return b >> p.regionShift }

func (p *predictPolicy) Observe(c *TokenB, mm *msg.Message) {
	if mm.Src.Unit != msg.UnitCache {
		return
	}
	p.holders.At(p.region(msg.BlockOf(mm.Addr))).add(mm.Src.Node)
}

func (p *predictPolicy) Destinations(c *TokenB, m *machine.MSHR, reissue bool, buf []msg.Port) []msg.Port {
	if reissue {
		// Mispredicted: fall back to broadcast.
		return broadcastPolicy{}.Destinations(c, m, true, buf)
	}
	buf = append(buf, c.HomePort(m.Block))
	hs := p.holders.Get(p.region(m.Block))
	for i := 0; i < hs.n; i++ {
		if hs.nodes[i] != c.ID {
			buf = append(buf, msg.Port{Node: hs.nodes[i], Unit: msg.UnitCache})
		}
	}
	return buf
}
