package core

import (
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// memLine is the home memory's token state for one block. The paper
// stores it in ECC bits (valid bit, owner bit, token count: 2+log2(T)
// bits per block); we model the state, not the encoding. No valid bit is
// kept: the memory sends data only with the owner token, which always
// arrives with the data. Its fields are ordered to pack into 32 bytes.
type memLine struct {
	tokens int
	data   uint64
	// starver is the persistent requester the tokens are pledged to
	// while pledged is set.
	starver msg.Port
	owner   bool
	pledged bool
	// init marks that the block's T tokens were created here; until
	// then the line holds nothing (see line).
	init bool
}

// Memory is the Token Coherence home memory controller for one node's
// slice of the address space. It participates in the substrate exactly
// like a cache, through the same holder: it holds tokens, answers
// transient requests by the same rule, forwards tokens for active
// persistent requests, and accepts writebacks and redirected tokens
// unconditionally. Its copy is never dirty: data that comes home is the
// memory's.
type Memory struct {
	holder
	sys   *machine.System
	id    msg.NodeID
	lines msg.Table[memLine]
	// hints, when hinted (TokenD/TokenM), holds soft-state directory
	// hints: a probable owner and probable sharers per block. Hints may
	// be stale; a bad redirect only delays a transient request.
	hints  msg.Table[hintLine]
	hinted bool
}

// hintLine is the soft-state directory entry for one block.
type hintLine struct {
	owner    msg.NodeID
	hasOwner bool
	sharers  msg.NodeSet
}

// NewMemory builds the home memory controller for node id and registers
// it on the network.
func NewMemory(sys *machine.System, id msg.NodeID, ledger *Ledger) *Memory {
	m := &Memory{sys: sys, id: id}
	m.holder = holder{ledger: ledger, net: sys.IsleFor(int(id)).Net, port: m.Port()}
	sys.Net.Register(m.Port(), m)
	return m
}

// Port returns the memory controller's network port.
func (m *Memory) Port() msg.Port { return msg.Port{Node: m.id, Unit: msg.UnitMem} }

// line returns the state for b, lazily creating it with all T tokens
// (system initialization: "the block's home memory module holds all
// tokens").
func (m *Memory) line(b msg.Block) *memLine {
	l := m.lines.At(b)
	if !l.init {
		if m.sys.Scope.Home(b) != m.id {
			panic("core: memory accessed for block with a different home")
		}
		m.ledger.InitBlock(b)
		l.tokens, l.owner, l.init = m.ledger.T, true, true
	}
	return l
}

// Tokens reports the tokens currently held for b (0 if untouched by this
// home). Used by the conservation audit and tests.
func (m *Memory) Tokens(b msg.Block) (tokens int, owner bool) {
	l := m.lines.Get(b)
	return l.tokens, l.owner
}

// Handle implements interconnect.Handler.
func (m *Memory) Handle(mm *msg.Message) {
	switch mm.Kind {
	case msg.KindGetS, msg.KindGetM:
		m.handleTransient(mm)
	case msg.KindData, msg.KindTokens:
		m.receiveTokens(mm)
	case msg.KindPersistentActivate:
		m.handleActivate(mm)
	case msg.KindPersistentDeactivate:
		m.handleDeactivate(mm)
	default:
		panic("core: memory received unexpected " + mm.Kind.String())
	}
}

// give sends r's tokens from line l to to after lat. State is mutated
// immediately (the tokens are committed to the message) so a racing
// request cannot double-send them.
func (m *Memory) give(b msg.Block, l *memLine, r reply, to msg.Port, lat sim.Time) {
	if r.tokens == 0 {
		return
	}
	m.send(to, b, r, l.data, false, lat)
	l.tokens -= r.tokens
	l.owner = l.owner && !r.owner
}

// EnableHints turns on the soft-state redirect directory (TokenD and
// TokenM memories).
func (m *Memory) EnableHints() { m.hinted = true }

// redirect forwards a transient request towards probable token holders
// and updates the soft state. Hints can go stale (a migratory GetS moves
// ownership without the home seeing it), so a reissued request is
// forwarded to every node: the second attempt always reaches the real
// holders, keeping escalation to persistent requests rare.
func (m *Memory) redirect(mm *msg.Message, served bool) {
	b := msg.BlockOf(mm.Addr)
	h := m.hints.At(b)
	reqNode := mm.Requester.Node
	var targets []msg.Port
	addTarget := func(n msg.NodeID) {
		if n == reqNode {
			return
		}
		for _, t := range targets {
			if t.Node == n {
				return
			}
		}
		targets = append(targets, msg.Port{Node: n, Unit: msg.UnitCache})
	}
	if mm.Cat == msg.CatReissue {
		for _, n := range m.sys.Scope.Members {
			addTarget(n)
		}
	} else {
		switch mm.Kind {
		case msg.KindGetS:
			// Data must come from the owner; redirect unless we served it.
			if !served && h.hasOwner {
				addTarget(h.owner)
			}
		case msg.KindGetM:
			// Every probable holder must give up tokens.
			if h.hasOwner {
				addTarget(h.owner)
			}
			for n := h.sharers.Next(0); n >= 0; n = h.sharers.Next(n + 1) {
				addTarget(n)
			}
		}
	}
	if len(targets) > 0 {
		fwd := *mm
		fwd.Src = m.Port()
		fwd.Cat = msg.CatRequest
		m.net.MulticastAfter(fwd, targets, m.sys.Cfg.CtrlLatency)
	}
	// Update soft state from the request stream.
	switch mm.Kind {
	case msg.KindGetS:
		h.sharers.Add(reqNode)
	case msg.KindGetM:
		h.owner = reqNode
		h.hasOwner = true
		h.sharers = msg.NodeSet{}
	}
}

func (m *Memory) handleTransient(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	l := m.line(b)
	if l.pledged {
		return // tokens are pledged to the persistent requester
	}
	if m.hinted {
		defer m.redirect(mm, l.owner && l.tokens > 0)
	}
	r := answer(mm.Kind, l.tokens, l.owner, false)
	lat := m.sys.Cfg.CtrlLatency
	if r.data {
		lat += m.sys.Cfg.MemLatency // data read
	}
	m.give(b, l, r, mm.Requester, lat)
}

func (m *Memory) receiveTokens(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	m.ledger.Received(b, mm.Tokens, mm.Owner)
	l := m.line(b)
	if l.pledged {
		// Forward everything to the starving processor, per the
		// persistent-request rules.
		m.forward(l.starver, mm, m.sys.Cfg.CtrlLatency)
		return
	}
	l.tokens += mm.Tokens
	if mm.Owner {
		l.owner = true
		if m.hinted {
			m.hints.At(b).hasOwner = false // the memory owns again
		}
	}
	if mm.HasData {
		l.data = mm.Data
	}
}

func (m *Memory) handleActivate(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	// Flush current tokens to the starver. The line is created lazily
	// here too: a persistent request may be the block's first-ever
	// coherence activity (e.g., under a performance protocol that sends
	// no transient requests at all).
	l := m.line(b)
	l.pledged, l.starver = true, mm.Requester
	m.give(b, l, answer(msg.KindGetM, l.tokens, l.owner, false), mm.Requester, m.sys.Cfg.CtrlLatency+m.sys.Cfg.MemLatency)
	m.ack(mm, msg.KindPersistentActivateAck, m.sys.Cfg.CtrlLatency)
}

func (m *Memory) handleDeactivate(mm *msg.Message) {
	l := m.lines.At(msg.BlockOf(mm.Addr))
	l.pledged, l.starver = false, msg.Port{}
	m.ack(mm, msg.KindPersistentDeactivateAck, m.sys.Cfg.CtrlLatency)
}
