package core

import (
	"fmt"
	"testing"

	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/topology"
)

// TestAnswer drives the one response rule through both kinds of token
// holder: node 0's TokenB cache and node 0's home memory each answer a
// transient request from node 1, whose cache port records the reply.
// With T = 4, "some" tokens is 2; migrate marks a written cache copy
// (the migratory-sharing optimization is on), which the memory never
// has. Each row gives the reply and the tokens and owner token the
// responder keeps.
func TestAnswer(t *testing.T) {
	const T = 4
	cfg := machine.DefaultConfig()
	cfg.Procs = 4
	cfg.TokensPerBlock = T
	sys := machine.NewSystem(cfg, topology.NewTorusFor(cfg.Procs), 1)
	ledger := NewLedger(T)
	cache := NewTokenController(sys, 0, ledger, NewBroadcastPolicy())
	mem := NewMemory(sys, 0, ledger)
	var got []msg.Message
	req := msg.Port{Node: 1, Unit: msg.UnitCache}
	sys.Net.Register(req, interconnect.HandlerFunc(func(m *msg.Message) { got = append(got, *m) }))
	b := msg.Block(cfg.Procs) // homed at node 0

	rows := []struct {
		kind           msg.Kind
		tokens         int
		owner, migrate bool
		want           reply
		keep           int
		keepOwner      bool
	}{
		{msg.KindGetS, 1, false, false, reply{}, 1, false},
		{msg.KindGetS, 1, false, true, reply{}, 1, false},
		{msg.KindGetS, 2, false, false, reply{}, 2, false},
		{msg.KindGetS, 2, false, true, reply{}, 2, false},
		{msg.KindGetS, 1, true, false, reply{1, true, true}, 0, false},
		{msg.KindGetS, 1, true, true, reply{1, true, true}, 0, false},
		{msg.KindGetS, 2, true, false, reply{1, false, true}, 1, true},
		{msg.KindGetS, 2, true, true, reply{1, false, true}, 1, true},
		{msg.KindGetS, T, true, false, reply{1, false, true}, T - 1, true},
		{msg.KindGetS, T, true, true, reply{T, true, true}, 0, false},
		{msg.KindGetM, 1, false, false, reply{1, false, false}, 0, false},
		{msg.KindGetM, 1, false, true, reply{1, false, false}, 0, false},
		{msg.KindGetM, 2, false, false, reply{2, false, false}, 0, false},
		{msg.KindGetM, 2, false, true, reply{2, false, false}, 0, false},
		{msg.KindGetM, 1, true, false, reply{1, true, true}, 0, false},
		{msg.KindGetM, 1, true, true, reply{1, true, true}, 0, false},
		{msg.KindGetM, 2, true, false, reply{2, true, true}, 0, false},
		{msg.KindGetM, 2, true, true, reply{2, true, true}, 0, false},
		{msg.KindGetM, T, true, false, reply{T, true, true}, 0, false},
		{msg.KindGetM, T, true, true, reply{T, true, true}, 0, false},
	}
	// check delivers request kind to h, then compares the reply and what
	// held reports the responder keeps.
	check := func(name string, h interconnect.Handler, kind msg.Kind, want reply, keep int, keepOwner bool, held func() (int, bool)) {
		t.Helper()
		got = got[:0]
		h.Handle(&msg.Message{Kind: kind, Cat: msg.CatRequest, Src: req, Addr: b.Base(), Requester: req})
		sys.K.Run()
		var r reply
		if len(got) > 1 {
			t.Errorf("%s: %d replies, want at most 1", name, len(got))
		} else if len(got) == 1 {
			r = reply{got[0].Tokens, got[0].Owner, got[0].HasData}
		}
		if r != want {
			t.Errorf("%s: reply %+v, want %+v", name, r, want)
		}
		if n, o := held(); n != keep || o != keepOwner {
			t.Errorf("%s: keeps %d tokens (owner %v), want %d (owner %v)", name, n, o, keep, keepOwner)
		}
	}
	for _, row := range rows {
		name := fmt.Sprintf("%v with %d tokens, owner %v, migrate %v", row.kind, row.tokens, row.owner, row.migrate)
		l := cache.EnsureL2(b)
		l.Tokens, l.Owner, l.Valid, l.Data, l.Written = row.tokens, row.owner, true, 7, row.migrate
		check("cache: "+name, cache, row.kind, row.want, row.keep, row.keepOwner, func() (int, bool) {
			if l := cache.L2.Lookup(b); l != nil {
				return l.Tokens, l.Owner
			}
			return 0, false
		})
		cache.DropLine(b)
		if row.migrate {
			continue
		}
		*mem.lines.At(b) = memLine{tokens: row.tokens, owner: row.owner, data: 7, init: true}
		check("memory: "+name, mem, row.kind, row.want, row.keep, row.keepOwner, func() (int, bool) {
			return mem.Tokens(b)
		})
	}
}
