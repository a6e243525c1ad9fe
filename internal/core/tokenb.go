package core

import (
	"fmt"

	"tokencoherence/internal/cache"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// TokenB is the Token-Coherence-using-Broadcast performance protocol
// cache controller (paper §4.2): it broadcasts transient requests to all
// other nodes plus the home memory, responds to others' transient
// requests like a MOSI snooping protocol (with the migratory-sharing
// optimization), reissues unsatisfied requests after an adaptive
// randomized timeout, and escalates to a persistent request after
// Config.MaxReissues reissues.
type TokenB struct {
	machine.CacheBase
	holder
	policy Policy

	// reissues and tokenMsgs are this controller's shards of the
	// substrate's named metrics; the MetricSet sums every shard.
	reissues  *stats.Counter
	tokenMsgs *stats.Counter

	// persist is the node's persistent-request table.
	persist    msg.Table[persistLine]
	persistSeq uint64

	// dsts is the transient-request destination scratch buffer, reused
	// across broadcasts (Multicast copies what it keeps).
	dsts []msg.Port
}

// persistLine is one block's entry in a node's persistent-request
// table. The zero value means no persistent request is known.
type persistLine struct {
	// active marks an active persistent request for the block, made by
	// the starving processor at port starver.
	active  bool
	starver msg.Port
	// mine is the epoch of our own active persistent request (0 = none).
	// Epochs disambiguate a fresh request from the tail of an earlier
	// request's deactivation cycle.
	mine uint64
	// starving is the Serial of the miss that invoked our persistent
	// request (0 = none) and seq its epoch, so satisfaction can be
	// matched to deactivation.
	starving uint64
	seq      uint64
}

// NewTokenController builds a Token Coherence cache controller with an
// arbitrary transient-request policy (TokenB, TokenD, TokenM, ...).
func NewTokenController(sys *machine.System, id msg.NodeID, ledger *Ledger, policy Policy) *TokenB {
	c := &TokenB{policy: policy}
	c.InitBase(sys, id, c)
	c.holder = holder{ledger: ledger, net: c.Net, port: c.CachePort()}
	c.reissues = sys.Metrics.Counter(stats.Desc{
		Name: "reissues", Unit: "count", Fmt: "%.0f",
		Help: "transient-request reissue broadcasts (Token Coherence)",
	})
	c.tokenMsgs = sys.Metrics.Counter(stats.Desc{
		Name: "token_transfers", Unit: "count", Fmt: "%.0f",
		Help: "token-carrying messages received by cache controllers",
	})
	sys.Net.Register(c.CachePort(), c)
	return c
}

// HasPermission implements machine.CacheHooks: reads need a token and
// valid data (invariant #3'), writes need all T tokens (invariant #2').
func (c *TokenB) HasPermission(l *cache.Line, write bool) bool {
	if write {
		return l.Tokens == c.ledger.T && l.Valid
	}
	return l.Tokens >= 1 && l.Valid
}

// StartMiss implements machine.CacheHooks: broadcast a transient request
// and arm the reissue timer.
func (c *TokenB) StartMiss(m *machine.MSHR) {
	c.broadcastTransient(m, msg.CatRequest)
	c.armTimer(m)
}

// broadcastTransient sends the transient request to the destinations the
// performance policy chooses (all nodes for TokenB, the home for TokenD,
// a predicted set for TokenM).
func (c *TokenB) broadcastTransient(m *machine.MSHR, cat msg.Category) {
	req := msg.Message{
		Kind: m.Request(), Cat: cat,
		Src: c.CachePort(), Addr: m.Block.Base(), Requester: c.CachePort(),
	}
	c.dsts = c.policy.Destinations(c, m, cat == msg.CatReissue, c.dsts[:0])
	c.Net.Multicast(req, c.dsts)
}

// maxReissueTimeout bounds the adaptive timeout so a burst of very slow
// (persistently-resolved) misses cannot feed back into ever-longer
// timeouts.
const maxReissueTimeout = 20 * sim.Microsecond

// armTimer schedules the reissue/starvation timeout: twice the recent
// average miss latency plus a randomized exponential backoff.
func (c *TokenB) armTimer(m *machine.MSHR) {
	shift := m.Reissues
	if shift > 6 {
		shift = 6
	}
	timeout := sim.Time(c.Cfg.BackoffFactor)*c.AvgMiss + c.Rng.Duration(c.Cfg.BackoffBase<<shift)
	if timeout > maxReissueTimeout {
		timeout = maxReissueTimeout
	}
	if m.OnTimer == nil {
		m.OnTimer = func() {
			m.Timer = nil
			c.onTimeout(m)
		}
	}
	m.Timer = c.K.After(timeout, m.OnTimer)
}

func (c *TokenB) onTimeout(m *machine.MSHR) {
	if c.Outstanding(m.Block) != m {
		return // resolved in the same tick; timer raced with completion
	}
	if m.Reissues >= c.Cfg.MaxReissues {
		c.goPersistent(m)
		return
	}
	m.Reissues++
	c.reissues.Inc()
	if o := &c.Isle.Obs; o.Kinds.Has(stats.Reissued) {
		o.On(stats.Event{Kind: stats.Reissued, At: c.K.Now(), Node: int32(c.ID), Block: m.Block, N: int32(m.Reissues)})
	}
	c.broadcastTransient(m, msg.CatReissue)
	c.armTimer(m)
}

// goPersistent invokes the correctness substrate's starvation-avoidance
// mechanism: a persistent request sent to the block's home arbiter,
// stamped with a per-node epoch so late activations of earlier requests
// cannot be confused with this one.
func (c *TokenB) goPersistent(m *machine.MSHR) {
	m.Persistent = true
	c.persistSeq++
	p := c.persist.At(m.Block)
	p.starving, p.seq = m.Serial, c.persistSeq
	c.Net.Send(msg.Message{
		Kind: msg.KindPersistentReq, Cat: msg.CatReissue,
		Src:  c.CachePort(),
		Dst:  c.ArbiterPort(m.Block),
		Addr: m.Block.Base(), Requester: c.CachePort(),
		Acks: int(c.persistSeq),
	})
}

// EvictL2 implements machine.CacheHooks: evicted tokens (and data when
// the owner token moves) return to the home memory — unless an active
// persistent request redirects them to the starving processor.
func (c *TokenB) EvictL2(v cache.Line) {
	if v.Tokens == 0 {
		return // tag-only line (miss in progress); nothing to write back
	}
	dst := c.HomePort(v.Block)
	if p := c.persist.Get(v.Block); p.active && p.starver != c.CachePort() {
		dst = p.starver
	}
	c.send(dst, v.Block, reply{v.Tokens, v.Owner, v.Owner}, v.Data, v.Dirty, 0)
}

// Handle implements interconnect.Handler.
func (c *TokenB) Handle(m *msg.Message) {
	switch m.Kind {
	case msg.KindGetS, msg.KindGetM:
		c.handleTransient(m)
	case msg.KindData, msg.KindTokens:
		c.receiveTokens(m)
	case msg.KindPersistentActivate:
		c.handleActivate(m)
	case msg.KindPersistentDeactivate:
		c.handleDeactivate(m)
	default:
		panic("core: TokenB received unexpected " + m.Kind.String())
	}
}

// handleTransient answers a transient request by the holders' shared
// rule (answer), with the migratory-sharing optimization. Responses pay
// the L2 access latency; state is committed immediately so racing
// requests cannot double-send tokens.
func (c *TokenB) handleTransient(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	if c.persist.Get(b).active {
		return // active persistent request overrides the policy
	}
	l := c.L2.Lookup(b)
	if l == nil {
		return
	}
	migrate := c.Cfg.Migratory && l.Tokens == c.ledger.T && l.Written
	c.give(l, answer(m.Kind, l.Tokens, l.Owner, migrate), m.Requester, c.Cfg.L2Latency)
}

// give sends r's tokens from line l to to after lat; a line left without
// tokens is dropped.
func (c *TokenB) give(l *cache.Line, r reply, to msg.Port, lat sim.Time) {
	if r.tokens == 0 {
		return
	}
	c.send(to, l.Block, r, l.Data, l.Dirty, lat)
	if l.Tokens -= r.tokens; l.Tokens == 0 {
		c.DropLine(l.Block)
	}
}

func (c *TokenB) receiveTokens(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	c.ledger.Received(b, m.Tokens, m.Owner)
	c.tokenMsgs.Inc()
	if o := &c.Isle.Obs; o.Kinds.Has(stats.TokensTransferred) {
		o.On(stats.Event{Kind: stats.TokensTransferred, At: c.K.Now(), Node: int32(c.ID), Block: b, N: int32(m.Tokens)})
	}
	c.policy.Observe(c, m)
	if p := c.persist.Get(b); p.active && p.starver != c.CachePort() {
		// Tokens arriving while another node's persistent request is
		// active are forwarded to the starver, present and future alike.
		c.forward(p.starver, m, c.Cfg.CtrlLatency)
		return
	}
	mshr := c.Outstanding(b)
	var l *cache.Line
	if mshr != nil {
		l = c.EnsureL2(b)
	} else {
		l = c.L2.Lookup(b)
	}
	if l == nil {
		// Unsolicited tokens with no resident line: redirect to the home
		// memory rather than pollute the cache.
		c.forward(c.HomePort(b), m, c.Cfg.CtrlLatency)
		return
	}
	c.merge(l, m)
	if mshr != nil && c.satisfied(mshr, l) {
		c.completeTokenMiss(mshr)
	}
}

// merge folds an arriving token message into a resident line.
func (c *TokenB) merge(l *cache.Line, m *msg.Message) {
	l.Tokens += m.Tokens
	if l.Tokens > c.ledger.T {
		panic(fmt.Sprintf("core: block %d accumulated %d tokens > T=%d", l.Block, l.Tokens, c.ledger.T))
	}
	if m.Owner {
		l.Owner = true
	}
	if m.HasData {
		if !l.Valid {
			l.Valid = true
			l.Data = m.Data
		}
		if m.Dirty {
			l.Dirty = true
		}
	}
}

func (c *TokenB) satisfied(m *machine.MSHR, l *cache.Line) bool {
	return c.HasPermission(l, m.Write)
}

func (c *TokenB) completeTokenMiss(m *machine.MSHR) {
	b, serial, persistent := m.Block, m.Serial, m.Persistent
	c.CompleteMiss(m) // m is free now: a replayed access may reuse it
	// Deactivate only when OUR epoch is the one currently active; if the
	// activation has not arrived yet (or an older epoch is still
	// draining), the deactivation is sent when the activation shows up.
	if !persistent {
		return
	}
	if p := c.persist.At(b); p.starving == serial && p.mine == p.seq && p.mine != 0 {
		c.sendDeactivate(b)
		p.starving, p.seq = 0, 0
	}
}

func (c *TokenB) sendDeactivate(b msg.Block) {
	c.Net.Send(msg.Message{
		Kind: msg.KindPersistentDeactivate, Cat: msg.CatReissue,
		Src:  c.CachePort(),
		Dst:  c.ArbiterPort(b),
		Addr: b.Base(),
	})
}

func (c *TokenB) handleActivate(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	p := c.persist.At(b)
	p.active, p.starver = true, m.Requester
	if m.Requester == c.CachePort() {
		epoch := uint64(m.Acks)
		p.mine = epoch
		sm, live := p.starving, c.Outstanding(b)
		switch {
		case sm != 0 && p.seq == epoch && live != nil && live.Serial == sm:
			// Our starving miss is still outstanding; tokens will flow
			// and completion will deactivate.
		case sm != 0 && p.seq == epoch:
			// The starving miss was satisfied by a late transient
			// response before activation; deactivate immediately.
			c.sendDeactivate(b)
			p.starving, p.seq = 0, 0
		default:
			// Activation of an older epoch whose miss resolved (and whose
			// bookkeeping was superseded by a newer request): release it.
			c.sendDeactivate(b)
		}
	} else if l := c.L2.Lookup(b); l != nil {
		// Flush all tokens (and data with the owner token) to the
		// starving processor, as a GetM would take them.
		c.give(l, answer(msg.KindGetM, l.Tokens, l.Owner, false), m.Requester, c.Cfg.L2Latency)
	}
	c.ack(m, msg.KindPersistentActivateAck, 0)
}

func (c *TokenB) handleDeactivate(m *msg.Message) {
	b := msg.BlockOf(m.Addr)
	p := c.persist.At(b)
	p.active, p.starver = false, msg.Port{}
	if m.Requester == c.CachePort() && p.mine == uint64(m.Acks) {
		p.mine = 0
	}
	if *p == (persistLine{}) {
		c.persist.Delete(b)
	}
	c.ack(m, msg.KindPersistentDeactivateAck, 0)
}

// ForEachLine visits every resident L2 line's token state, for the
// conservation audit.
func (c *TokenB) ForEachLine(f func(b msg.Block, tokens int, owner bool)) {
	c.L2.ForEach(func(l *cache.Line) { f(l.Block, l.Tokens, l.Owner) })
}
