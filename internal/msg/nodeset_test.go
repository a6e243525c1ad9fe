package msg

import (
	"slices"
	"testing"
)

// members lists s in ascending order through Next.
func members(s NodeSet) []NodeID {
	var out []NodeID
	for n := s.Next(0); n >= 0; n = s.Next(n + 1) {
		out = append(out, n)
	}
	return out
}

// TestNodeSetWordBoundaries exercises the set at the edges of its
// 64-bit words: the first and last node of the first word, the first of
// the second, and the last node a machine can have.
func TestNodeSetWordBoundaries(t *testing.T) {
	edges := []NodeID{0, 63, 64, MaxNodes - 1}
	var s NodeSet
	if s.Len() != 0 || s.Next(0) != -1 {
		t.Fatalf("zero set: Len %d, Next(0) %d; want 0, -1", s.Len(), s.Next(0))
	}
	for _, n := range edges {
		s.Add(n)
		s.Add(n) // adding twice is idempotent
	}
	if got := members(s); !slices.Equal(got, edges) {
		t.Fatalf("members = %v, want %v", got, edges)
	}
	if s.Len() != len(edges) {
		t.Errorf("Len = %d, want %d", s.Len(), len(edges))
	}
	for n := NodeID(0); n < MaxNodes; n++ {
		if want := slices.Contains(edges, n); s.Has(n) != want {
			t.Errorf("Has(%d) = %v, want %v", n, s.Has(n), want)
		}
	}
	nexts := []struct{ from, want NodeID }{
		{0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 255}, {255, 255}, {MaxNodes, -1},
	}
	for _, c := range nexts {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}

	// Without works on a copy: the receiver keeps the node.
	w := s.Without(64).Without(0)
	if got, want := members(w), []NodeID{63, MaxNodes - 1}; !slices.Equal(got, want) {
		t.Errorf("Without(64).Without(0) members = %v, want %v", got, want)
	}
	if !s.Has(64) || !s.Has(0) || s.Len() != len(edges) {
		t.Errorf("Without mutated its receiver: members %v", members(s))
	}
	if w.Without(7) != w {
		t.Error("Without of a non-member changed the set")
	}
}
