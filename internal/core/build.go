package core

import (
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
)

// TokenSystem bundles the per-node components of a Token Coherence
// machine so tests and the harness can audit them after a run.
type TokenSystem struct {
	Caches   []*TokenB
	Mems     []*Memory
	Arbiters []*Arbiter
	Ledger   *Ledger
}

// WithPolicy returns a constructor that raises a performance policy to
// a complete protocol on the correctness substrate: token-counting cache
// and home memory controllers, persistent-request arbiters, and the
// conservation ledger, with the policy deciding where transient requests
// go. Every cache controller receives a fresh policy from newPolicy, so
// stateful predictors need no synchronization. hints enables the home
// memory's soft-state hint tracking (TokenD/TokenM-style redirection of
// home-bound requests to probable holders).
//
// This is the paper's decoupling as an API: because the substrate
// guarantees safety and starvation freedom regardless of destination
// sets, any Policy — however speculative — yields a correct protocol.
func WithPolicy(newPolicy func() Policy, hints bool) func(*machine.System) *TokenSystem {
	return func(sys *machine.System) *TokenSystem { return build(sys, newPolicy, hints) }
}

// BuildTokenB constructs the complete Token Coherence system on sys: a
// TokenB cache controller, a token-holding home memory controller, and a
// persistent-request arbiter per node, all registered on the network.
func BuildTokenB(sys *machine.System) *TokenSystem {
	return WithPolicy(NewBroadcastPolicy, false)(sys)
}

// BuildTokenD constructs the directory-like performance protocol of §7:
// transient requests go to the home, whose soft-state hints redirect
// them to probable holders. Same substrate, a fraction of the request
// bandwidth.
func BuildTokenD(sys *machine.System) *TokenSystem {
	return WithPolicy(NewHomePolicy, true)(sys)
}

// BuildTokenM constructs the destination-set-prediction performance
// protocol of §7: multicast to predicted holders plus the home, with
// broadcast fallback on reissue.
func BuildTokenM(sys *machine.System) *TokenSystem {
	return WithPolicy(NewPredictPolicy, true)(sys)
}

func build(sys *machine.System, policy func() Policy, hints bool) *TokenSystem {
	n := sys.Cfg.Procs
	ts := &TokenSystem{Ledger: NewLedger(sys.Cfg.TokensPerBlock)}
	// byNode is resolved lazily: only scoped policies need cluster
	// metadata, and engine validation rejects scoped protocols on
	// topologies without it before construction starts.
	var byNode []*machine.Scope
	for i := 0; i < n; i++ {
		id := msg.NodeID(i)
		p := policy()
		if sp, ok := p.(ScopedPolicy); ok {
			if byNode == nil {
				var err error
				byNode, err = sys.ScopesFor()
				if err != nil {
					panic(err)
				}
			}
			sp.BindScope(byNode[i])
		}
		ts.Caches = append(ts.Caches, NewTokenController(sys, id, ts.Ledger, p))
		mem := NewMemory(sys, id, ts.Ledger)
		if hints {
			mem.EnableHints()
		}
		ts.Mems = append(ts.Mems, mem)
		ts.Arbiters = append(ts.Arbiters, NewArbiter(sys, id))
	}
	return ts
}

// Controllers adapts the cache controllers for machine.System.Execute.
func (ts *TokenSystem) Controllers() []machine.Controller {
	out := make([]machine.Controller, len(ts.Caches))
	for i, c := range ts.Caches {
		out[i] = c
	}
	return out
}

// Audit verifies global token conservation (invariant #1') for every
// block the system touched: tokens held in caches and memories plus
// tokens in flight must equal T, with exactly one owner token. Combined
// with the per-message checks, a nil result means the substrate's safety
// invariants held for the whole run.
func (ts *TokenSystem) Audit() error {
	type held struct {
		tokens int
		owners int
	}
	sums := make(map[msg.Block]held)
	// Gather cache-held tokens.
	for _, c := range ts.Caches {
		c.ForEachLine(func(b msg.Block, tokens int, owner bool) {
			h := sums[b]
			h.tokens += tokens
			if owner {
				h.owners++
			}
			sums[b] = h
		})
	}
	// Gather memory-held tokens.
	for _, m := range ts.Mems {
		for b, l := range m.lines.All() {
			h := sums[b]
			h.tokens += l.tokens
			if l.owner {
				h.owners++
			}
			sums[b] = h
		}
	}
	for _, b := range ts.Ledger.Blocks() {
		h := sums[b]
		ts.Ledger.CheckConservation(b, h.tokens, h.owners)
	}
	return ts.Ledger.Err()
}
