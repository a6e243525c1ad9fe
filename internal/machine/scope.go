package machine

import (
	"fmt"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/topology"
)

// Scope is a coherence realm: the nodes a protocol transaction for a
// block is resolved among, and the home that serializes it. The system's
// root scope spans the whole machine (the flat protocols' realm);
// hierarchical protocols also work in one scope per topology cluster
// (see ScopesFor).
type Scope struct {
	// Members lists the realm's nodes in ascending order. Callers must
	// not mutate it.
	Members []msg.NodeID
	// Set holds the same nodes, for membership tests.
	Set msg.NodeSet
}

// NewScope returns the realm over members (ascending). It panics on an
// empty member set.
func NewScope(members []msg.NodeID) *Scope {
	if len(members) == 0 {
		panic("machine: scope needs at least one member")
	}
	s := &Scope{Members: members}
	for _, n := range members {
		s.Set.Add(n)
	}
	return s
}

// Home returns the node serializing transactions for the block within
// the realm: homes are block-interleaved across the members, so the root
// scope's home is msg.HomeOf.
func (s *Scope) Home(b msg.Block) msg.NodeID {
	return s.Members[uint64(b)%uint64(len(s.Members))]
}

// ScopesFor returns each node's cluster realm (byNode[n] is the scope of
// the cluster containing node n), or an error naming the topology when
// it exposes no cluster metadata. Protocol build functions use it so a
// scope-requiring protocol on a flat topology fails with a diagnosable
// message even when constructed outside the engine's validation path.
func (s *System) ScopesFor() (byNode []*Scope, err error) {
	ct, ok := s.Topo.(topology.Clustered)
	if !ok {
		return nil, fmt.Errorf("machine: topology %q exposes no cluster metadata (topology.Clustered) required by scoped protocols", s.Topo.Name())
	}
	byNode = make([]*Scope, ct.Nodes())
	for _, members := range topology.Clusters(ct) {
		sc := NewScope(members)
		for _, n := range members {
			byNode[n] = sc
		}
	}
	return byNode, nil
}
