package core

import (
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// memLine is the home memory's token state for one block. The paper
// stores it in ECC bits (valid bit, owner bit, token count: 2+log2(T)
// bits per block); we model the state, not the encoding.
type memLine struct {
	tokens int
	owner  bool
	valid  bool
	data   uint64
	dirty  bool
}

// Memory is the Token Coherence home memory controller for one node's
// slice of the address space. It participates in the substrate exactly
// like a cache: it holds tokens, responds to transient requests by
// policy, forwards tokens for active persistent requests, and accepts
// writebacks and redirected tokens unconditionally.
type Memory struct {
	sys *machine.System
	// isle is the controller's island context; event-time sends go
	// through its network view.
	isle   *machine.Isle
	id     msg.NodeID
	ledger *Ledger
	lines  map[msg.Block]*memLine
	// persist tracks active persistent requests (block -> starver).
	persist map[msg.Block]msg.Port
	// hints, when enabled (TokenD/TokenM), holds soft-state directory
	// hints: a probable owner and probable sharers per block. Hints may
	// be stale; a bad redirect only delays a transient request.
	hints map[msg.Block]*hintLine
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
	m := &Memory{
		sys:     sys,
		isle:    sys.IsleFor(int(id)),
		id:      id,
		ledger:  ledger,
		lines:   make(map[msg.Block]*memLine),
		persist: make(map[msg.Block]msg.Port),
	}
	sys.Net.Register(m.Port(), m)
	return m
}

// Port returns the memory controller's network port.
func (m *Memory) Port() msg.Port { return msg.Port{Node: m.id, Unit: msg.UnitMem} }

// line returns the state for b, lazily creating it with all T tokens
// (system initialization: "the block's home memory module holds all
// tokens").
func (m *Memory) line(b msg.Block) *memLine {
	if l, ok := m.lines[b]; ok {
		return l
	}
	if m.sys.Scope.Home(b) != m.id {
		panic("core: memory accessed for block with a different home")
	}
	m.ledger.InitBlock(b)
	l := &memLine{tokens: m.ledger.T, owner: true, valid: true}
	m.lines[b] = l
	return l
}

// Tokens reports the tokens currently held for b (0 if untouched by this
// home). Used by the conservation audit and tests.
func (m *Memory) Tokens(b msg.Block) (tokens int, owner bool) {
	if l, ok := m.lines[b]; ok {
		return l.tokens, l.owner
	}
	return 0, false
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

// respond builds and sends a token-carrying response after the memory
// access latency. State is mutated immediately (the tokens are committed
// to the message) so a racing request cannot double-send them.
func (m *Memory) respond(to msg.Port, b msg.Block, tokens int, owner bool, data uint64, dirty bool, lat sim.Time) {
	kind := msg.KindTokens
	cat := msg.CatControl
	hasData := owner // memory sends data exactly when the owner token moves
	if hasData {
		kind = msg.KindData
		cat = msg.CatData
	}
	m.ledger.Sent(b, tokens, owner, hasData)
	m.isle.Net.SendAfter(msg.Message{
		Kind: kind, Cat: cat,
		Src: m.Port(), Dst: to, Addr: b.Base(),
		Tokens: tokens, Owner: owner, HasData: hasData, Data: data, Dirty: dirty,
	}, lat)
}

// EnableHints turns on the soft-state redirect directory (TokenD and
// TokenM memories).
func (m *Memory) EnableHints() {
	m.hints = make(map[msg.Block]*hintLine)
}

func (m *Memory) hint(b msg.Block) *hintLine {
	h, ok := m.hints[b]
	if !ok {
		h = &hintLine{}
		m.hints[b] = h
	}
	return h
}

// redirect forwards a transient request towards probable token holders
// and updates the soft state. Hints can go stale (a migratory GetS moves
// ownership without the home seeing it), so a reissued request is
// forwarded to every node: the second attempt always reaches the real
// holders, keeping escalation to persistent requests rare.
func (m *Memory) redirect(mm *msg.Message, served bool) {
	b := msg.BlockOf(mm.Addr)
	h := m.hint(b)
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
		m.isle.Net.MulticastAfter(fwd, targets, m.sys.Cfg.CtrlLatency)
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
	if _, active := m.persist[b]; active {
		return // tokens are pledged to the persistent requester
	}
	l := m.line(b)
	if m.hints != nil {
		served := l.owner && l.tokens > 0
		defer m.redirect(mm, served)
	}
	if l.tokens == 0 {
		return
	}
	cfg := m.sys.Cfg
	switch mm.Kind {
	case msg.KindGetS:
		if !l.owner {
			return // non-owner holders ignore shared requests
		}
		if l.tokens == 1 {
			// Only the owner token remains: it must move (with data).
			m.respond(mm.Requester, b, 1, true, l.data, l.dirty, cfg.CtrlLatency+cfg.MemLatency)
			l.tokens, l.owner, l.valid, l.dirty = 0, false, false, false
			return
		}
		// Keep the owner token, hand out one plain token with data.
		m.ledger.Sent(b, 1, false, true)
		out := msg.Message{
			Kind: msg.KindData, Cat: msg.CatData,
			Src: m.Port(), Dst: mm.Requester, Addr: mm.Addr,
			Tokens: 1, HasData: true, Data: l.data, Dirty: l.dirty,
		}
		l.tokens--
		m.isle.Net.SendAfter(out, cfg.CtrlLatency+cfg.MemLatency)
	case msg.KindGetM:
		tokens, owner := l.tokens, l.owner
		lat := cfg.CtrlLatency
		if owner {
			lat += cfg.MemLatency // data read
		}
		m.respond(mm.Requester, b, tokens, owner, l.data, l.dirty, lat)
		l.tokens, l.owner, l.valid, l.dirty = 0, false, false, false
	}
}

func (m *Memory) receiveTokens(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	m.ledger.Received(b, mm.Tokens, mm.Owner)
	if starver, active := m.persist[b]; active {
		// Forward everything to the starving processor, per the
		// persistent-request rules.
		m.ledger.Sent(b, mm.Tokens, mm.Owner, mm.HasData)
		fwd := *mm
		fwd.Src = m.Port()
		fwd.Dst = starver
		fwd.Cat = msg.CatControl
		if fwd.HasData {
			fwd.Cat = msg.CatData
		}
		m.isle.Net.SendAfter(fwd, m.sys.Cfg.CtrlLatency)
		return
	}
	l := m.line(b)
	l.tokens += mm.Tokens
	if mm.Owner {
		l.owner = true
		if m.hints != nil {
			m.hint(b).hasOwner = false // the memory owns again
		}
	}
	if mm.HasData {
		l.valid = true
		l.data = mm.Data
		l.dirty = false // data is now home; the memory copy is clean
	}
	if l.tokens == 0 {
		l.valid = false
	}
}

func (m *Memory) handleActivate(mm *msg.Message) {
	b := msg.BlockOf(mm.Addr)
	m.persist[b] = mm.Requester
	// Flush current tokens to the starver. The line is created lazily
	// here too: a persistent request may be the block's first-ever
	// coherence activity (e.g., under a performance protocol that sends
	// no transient requests at all).
	if l := m.line(b); l.tokens > 0 {
		m.respond(mm.Requester, b, l.tokens, l.owner, l.data, l.dirty, m.sys.Cfg.CtrlLatency+m.sys.Cfg.MemLatency)
		l.tokens, l.owner, l.valid, l.dirty = 0, false, false, false
	}
	m.ack(mm, msg.KindPersistentActivateAck)
}

func (m *Memory) handleDeactivate(mm *msg.Message) {
	delete(m.persist, msg.BlockOf(mm.Addr))
	m.ack(mm, msg.KindPersistentDeactivateAck)
}

func (m *Memory) ack(mm *msg.Message, kind msg.Kind) {
	m.isle.Net.SendAfter(msg.Message{
		Kind: kind, Cat: msg.CatReissue,
		Src: m.Port(), Dst: mm.Src, Addr: mm.Addr, Seq: mm.Seq,
	}, m.sys.Cfg.CtrlLatency)
}
