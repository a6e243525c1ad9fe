package msg

import "math/bits"

// MaxNodes is the largest machine the simulator models: 256 nodes, the
// largest system any experiment builds. NodeSet covers exactly this
// range, so every node of any machine has its own bit.
const MaxNodes = 256

// NodeSet is a set of node IDs in [0, MaxNodes), stored as a fixed
// bitset indexed by node ID. The zero value is the empty set; a set is a
// small value and copies freely.
type NodeSet [MaxNodes / 64]uint64

// Add inserts node n.
func (s *NodeSet) Add(n NodeID) { s[n>>6] |= 1 << (uint(n) & 63) }

// Without returns a copy of the set with node n removed.
func (s NodeSet) Without(n NodeID) NodeSet {
	s[n>>6] &^= 1 << (uint(n) & 63)
	return s
}

// Has reports whether node n is in the set.
func (s NodeSet) Has(n NodeID) bool { return s[n>>6]&(1<<(uint(n)&63)) != 0 }

// Len returns the number of nodes in the set.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member at or above from, or -1 when there is
// none. Members visit in ascending order with
//
//	for n := s.Next(0); n >= 0; n = s.Next(n + 1) { ... }
func (s NodeSet) Next(from NodeID) NodeID {
	i := int(from >> 6)
	if i >= len(s) {
		return -1
	}
	w := s[i] &^ (1<<(uint(from)&63) - 1)
	for w == 0 {
		if i++; i == len(s) {
			return -1
		}
		w = s[i]
	}
	return NodeID(i<<6 + bits.TrailingZeros64(w))
}
