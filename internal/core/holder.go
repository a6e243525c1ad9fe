package core

import (
	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// holder is what every token holder, cache or home memory, shares: the
// conservation ledger each token send is counted in, the island's
// network view and the holder's own port. TokenB and Memory embed it,
// so tokens leave either one through the same three calls.
type holder struct {
	ledger *Ledger
	net    *interconnect.Network
	port   msg.Port
}

// reply is a holder's answer to a transient request: tokens tokens, the
// owner token among them when owner is set, and the block's data when
// data is set. A reply of no tokens sends nothing.
type reply struct {
	tokens      int
	owner, data bool
}

// answer is the paper's MOSI-like response rule (§4.2) for a holder of
// tokens tokens, the owner token among them when owner is set. A GetS
// takes one plain token and the data from the owner while it has plain
// tokens to spare, and the owner token itself when it is the last one;
// holders without the owner token ignore it. A GetM takes every token,
// with the data when the owner token goes. migrate marks a holder of
// every token whose copy was written: with the migratory-sharing
// optimization on, a GetS then takes the whole block too. The holder
// keeps tokens - reply.tokens; with none left its copy is invalid.
func answer(kind msg.Kind, tokens int, owner, migrate bool) reply {
	switch {
	case tokens == 0, kind == msg.KindGetS && !owner:
		return reply{}
	case kind == msg.KindGetM, migrate, tokens == 1:
		return reply{tokens, owner, owner}
	}
	return reply{1, false, true}
}

// post sends out after lat, at once when lat is zero.
func (h *holder) post(out msg.Message, lat sim.Time) {
	if lat == 0 {
		h.net.Send(out)
		return
	}
	h.net.SendAfter(out, lat)
}

// send emits r's tokens to to after lat, counting them in the ledger and
// keeping invariant #4' (owner implies data). The caller has already
// deducted them from its own state.
func (h *holder) send(to msg.Port, b msg.Block, r reply, data uint64, dirty bool, lat sim.Time) {
	if r.owner && !r.data {
		panic("core: owner token without data")
	}
	kind, cat := msg.KindTokens, msg.CatControl
	if r.data {
		kind, cat = msg.KindData, msg.CatData
	}
	h.ledger.Sent(b, r.tokens, r.owner, r.data)
	h.post(msg.Message{
		Kind: kind, Cat: cat,
		Src: h.port, Dst: to, Addr: b.Base(),
		Tokens: r.tokens, Owner: r.owner, HasData: r.data, Data: data, Dirty: dirty,
	}, lat)
}

// forward passes an arriving token message on to to after lat, unread:
// a persistent request's starver, or the home of tokens no line wants.
func (h *holder) forward(to msg.Port, m *msg.Message, lat sim.Time) {
	h.ledger.Sent(msg.BlockOf(m.Addr), m.Tokens, m.Owner, m.HasData)
	fwd := *m
	fwd.Src = h.port
	fwd.Dst = to
	fwd.Cat = msg.CatControl
	if fwd.HasData {
		fwd.Cat = msg.CatData
	}
	h.post(fwd, lat)
}

// ack acknowledges an arbiter's activation or deactivation m after lat.
func (h *holder) ack(m *msg.Message, kind msg.Kind, lat sim.Time) {
	h.post(msg.Message{
		Kind: kind, Cat: msg.CatReissue,
		Src: h.port, Dst: m.Src, Addr: m.Addr, Seq: m.Seq,
	}, lat)
}
