package topology

import (
	"testing"

	"tokencoherence/internal/msg"
)

// clusteredCases enumerates the builtin Clustered topologies across the
// sizes the experiments sweep.
func clusteredCases(t *testing.T) map[string]Clustered {
	t.Helper()
	cases := map[string]Clustered{}
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256} {
		cases[sprintName("tree", n)] = NewTree(n)
		cases[sprintName("torus", n)] = NewTorusFor(n)
	}
	return cases
}

func sprintName(kind string, n int) string {
	return kind + "/" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestClustersDisjointCover is the partition property: every node
// appears in exactly one cluster, cluster indices are dense, ClusterOf
// agrees with the materialized member lists, and members are ascending.
func TestClustersDisjointCover(t *testing.T) {
	for name, topo := range clusteredCases(t) {
		t.Run(name, func(t *testing.T) {
			cs := Clusters(topo)
			if len(cs) != topo.NumClusters() {
				t.Fatalf("Clusters returned %d lists, NumClusters says %d", len(cs), topo.NumClusters())
			}
			seen := make(map[msg.NodeID]int)
			for c, members := range cs {
				if len(members) == 0 {
					t.Errorf("cluster %d is empty: indices must be dense", c)
				}
				for i, n := range members {
					if i > 0 && members[i-1] >= n {
						t.Errorf("cluster %d members not ascending: %v", c, members)
					}
					if prev, dup := seen[n]; dup {
						t.Errorf("node %d in clusters %d and %d", n, prev, c)
					}
					seen[n] = c
					if got := topo.ClusterOf(n); got != c {
						t.Errorf("ClusterOf(%d) = %d, but node listed in cluster %d", n, got, c)
					}
				}
			}
			if len(seen) != topo.Nodes() {
				t.Errorf("clusters cover %d nodes, topology has %d", len(seen), topo.Nodes())
			}
		})
	}
}

// TestTreeClustersMatchTierBoundaries pins the tree partition to the
// historical switch-tier boundaries: one cluster per child subtree of
// the root, so the paper's 16-processor tree splits 4x4, the 64- and
// 256-processor trees from the multi-level fabric split 4x16 and 4x64.
func TestTreeClustersMatchTierBoundaries(t *testing.T) {
	for _, tc := range []struct {
		n, clusters, size int
	}{
		{16, 4, 4},
		{64, 4, 16},
		{256, 4, 64},
	} {
		tr := NewTree(tc.n)
		cs := Clusters(tr)
		if len(cs) != tc.clusters {
			t.Fatalf("%d-node tree: %d clusters, want %d", tc.n, len(cs), tc.clusters)
		}
		for c, members := range cs {
			if len(members) != tc.size {
				t.Errorf("%d-node tree cluster %d has %d members, want %d", tc.n, c, len(members), tc.size)
			}
			base := msg.NodeID(c * tc.size)
			for i, n := range members {
				if n != base+msg.NodeID(i) {
					t.Errorf("%d-node tree cluster %d: member %d is node %d, want contiguous block from %d",
						tc.n, c, i, n, base)
				}
			}
		}
	}
}

// TestTreeClustersShareRootSubtree is the tree's link-graph contiguity
// property: all members of one cluster climb into the root over the same
// top-tier up-link (they share a root-child subtree), and members of
// different clusters do not.
func TestTreeClustersShareRootSubtree(t *testing.T) {
	for _, n := range []int{8, 16, 64, 256} {
		tr := NewTree(n)
		top := tr.Levels() - 1
		cs := Clusters(tr)
		rootLink := func(m msg.NodeID) LinkID {
			path := tr.Path(nil, m, m)
			return path[top] // the tier-top up-link into the root
		}
		linkOf := make(map[int]LinkID)
		for c, members := range cs {
			want := rootLink(members[0])
			for _, m := range members[1:] {
				if got := rootLink(m); got != want {
					t.Errorf("%d-node tree cluster %d: nodes %d and %d climb different top-tier links",
						n, c, members[0], m)
				}
			}
			for prev, l := range linkOf {
				if l == want {
					t.Errorf("%d-node tree clusters %d and %d share a top-tier link: not a subtree partition", n, prev, c)
				}
			}
			linkOf[c] = want
		}
	}
}

// TestTorusClustersAreRows is the torus's link-graph contiguity
// property: each cluster is one row — consecutive members (including the
// wraparound pair) are one East/West hop apart, so the cluster is
// connected without leaving its own links.
func TestTorusClustersAreRows(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 256} {
		to := NewTorusFor(n)
		cs := Clusters(to)
		if len(cs) != to.Height() {
			t.Fatalf("%d-node torus: %d clusters, want one per row (%d)", n, len(cs), to.Height())
		}
		for c, members := range cs {
			if len(members) != to.Width() {
				t.Fatalf("%d-node torus cluster %d has %d members, want row width %d", n, c, len(members), to.Width())
			}
			for i, m := range members {
				next := members[(i+1)%len(members)]
				if m == next {
					continue // 1-wide row: nothing to hop
				}
				if hops := len(to.Path(nil, m, next)); hops != 1 {
					t.Errorf("%d-node torus cluster %d: nodes %d -> %d are %d hops apart, want a direct ring link",
						n, c, m, next, hops)
				}
			}
		}
	}
}
