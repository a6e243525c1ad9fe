// Package topology models the two interconnect fabrics evaluated in the
// paper (Figure 1): a totally-ordered pipelined broadcast tree built
// from discrete switches (two levels for the paper's 16 processors,
// deeper for larger systems), and a directly-connected two-dimensional
// bidirectional torus with no ordering guarantees.
//
// A topology maps (source node, destination node) to an ordered sequence
// of directed links. Routing is deterministic and prefix-closed (each
// link is entered from one predecessor among one source's paths), so
// the paths from one source to any destination set form a tree: the
// interconnect charges multicast bandwidth per tree edge as the paper
// does ("bandwidth-efficient tree-based multicast routing").
package topology

import (
	"fmt"

	"tokencoherence/internal/msg"
)

// LinkID names one directed link. IDs are dense in [0, NumLinks).
type LinkID int

// Topology is a static interconnect graph with deterministic routing.
type Topology interface {
	// Name identifies the topology in reports ("tree", "torus").
	Name() string
	// Nodes reports the number of processor nodes.
	Nodes() int
	// NumLinks reports the number of directed links.
	NumLinks() int
	// Path appends the directed links crossed from src to dst, in order,
	// to buf; appending none means local delivery (no fabric crossing).
	Path(buf []LinkID, src, dst msg.NodeID) []LinkID
	// Ordered reports whether the fabric delivers broadcasts in a total
	// order (required by traditional snooping).
	Ordered() bool
}

// AvgHops reports the mean path length over all (src, dst) pairs with
// src != dst; a quick sanity metric (the paper quotes two link crossings
// for the 16-node torus and four for the tree).
func AvgHops(t Topology) float64 {
	n := t.Nodes()
	total, pairs := 0, 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			total += len(t.Path(nil, msg.NodeID(s), msg.NodeID(d)))
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(total) / float64(pairs)
}

// Torus is a w x h bidirectional 2D torus with deterministic
// dimension-order (X then Y) routing and shortest-direction wrap. The
// Alpha 21364 used this fabric; it provides no request ordering.
type Torus struct {
	w, h int
}

// NewTorus constructs a w x h torus. Both dimensions must be positive.
func NewTorus(w, h int) *Torus {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: invalid torus %dx%d", w, h))
	}
	return &Torus{w: w, h: h}
}

// CheckTorusFor reports whether NewTorusFor can build a proper 2D torus
// with exactly n nodes: n must be at least 4 (the smallest torus is 2x2)
// and must factor into two dimensions of at least 2 each. A prime n
// would degenerate to an n x 1 ring whose North/South links are dead yet
// counted by NumLinks, skewing per-link traffic metrics, so it is
// rejected instead.
func CheckTorusFor(n int) error {
	if n < 4 {
		return fmt.Errorf("torus needs at least 4 nodes (2x2), got %d", n)
	}
	if squarestFactor(n) < 2 {
		return fmt.Errorf("torus size %d is prime and would degenerate to a %dx1 ring with dead links; choose a composite size", n, n)
	}
	return nil
}

// squarestFactor returns the largest divisor of n that is at most
// sqrt(n) — the height of the most-square w x h factorization (w >= h).
func squarestFactor(n int) int {
	h := 1
	for h*h <= n {
		h++
	}
	for h--; h > 1; h-- {
		if n%h == 0 {
			return h
		}
	}
	return 1
}

// NewTorusFor returns the most-square torus with exactly n nodes, used
// by the scalability experiment (4=2x2, 8=4x2, ..., 64=8x8, 256=16x16).
// It searches downward from sqrt(n) for the squarest factorization and
// panics on sizes CheckTorusFor rejects (n < 4 or prime).
func NewTorusFor(n int) *Torus {
	if err := CheckTorusFor(n); err != nil {
		panic("topology: " + err.Error())
	}
	h := squarestFactor(n)
	return NewTorus(n/h, h)
}

func (t *Torus) Name() string  { return "torus" }
func (t *Torus) Ordered() bool { return false }
func (t *Torus) Nodes() int    { return t.w * t.h }

// Width and Height expose the grid dimensions.
func (t *Torus) Width() int  { return t.w }
func (t *Torus) Height() int { return t.h }

// Each node has four outgoing links: East, West, South, North.
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	numDirs
)

func (t *Torus) NumLinks() int { return t.Nodes() * numDirs }

func (t *Torus) coord(n msg.NodeID) (x, y int) { return int(n) % t.w, int(n) / t.w }
func (t *Torus) node(x, y int) msg.NodeID      { return msg.NodeID(y*t.w + x) }

// linkFrom returns the outgoing link of node n in direction dir.
func (t *Torus) linkFrom(n msg.NodeID, dir int) LinkID {
	return LinkID(int(n)*numDirs + dir)
}

// ringStep returns the step direction (+1 or -1) and hop count to travel
// from a to b around a ring of size n, preferring the shorter way and
// breaking ties in the positive direction.
func ringStep(a, b, n int) (step, hops int) {
	if a == b {
		return 0, 0
	}
	fwd := (b - a + n) % n
	bwd := (a - b + n) % n
	if fwd <= bwd {
		return +1, fwd
	}
	return -1, bwd
}

// Path implements dimension-order routing: X first, then Y.
func (t *Torus) Path(path []LinkID, src, dst msg.NodeID) []LinkID {
	sx, sy := t.coord(src)
	dx, dy := t.coord(dst)
	// X phase.
	step, hops := ringStep(sx, dx, t.w)
	x := sx
	for i := 0; i < hops; i++ {
		dir := dirEast
		if step < 0 {
			dir = dirWest
		}
		path = append(path, t.linkFrom(t.node(x, sy), dir))
		x = (x + step + t.w) % t.w
	}
	// Y phase.
	step, hops = ringStep(sy, dy, t.h)
	y := sy
	for i := 0; i < hops; i++ {
		dir := dirSouth
		if step < 0 {
			dir = dirNorth
		}
		path = append(path, t.linkFrom(t.node(dx, y), dir))
		y = (y + step + t.h) % t.h
	}
	return path
}

// Tree is the paper's indirect broadcast tree (Figure 1a), generalized
// from the paper's two levels to a k-ary multi-level fabric: n leaf
// nodes, a tier of incoming switches per level funneling up to a single
// root switch, and a mirrored tier of outgoing switches per level
// fanning back down. Every message — unicast or broadcast — climbs
// Levels() links to the root and descends Levels() links to its
// destination, and because all traffic funnels through the single root
// over FIFO links, broadcasts are delivered to every node in one total
// order. That total order is what traditional snooping requires; the
// root is also the fabric's bandwidth bottleneck, which the evaluation
// exposes — more sharply the deeper the tree.
//
// For n = fanout^L the tree is the natural complete k-ary tree; any
// other 4 <= n <= MaxTreeNodes is carried by padding the leaf layer up
// to the next power of the fanout — switch tiers shrink by ceil
// division, so only switches with at least one live descendant (and
// their links) exist, keeping link IDs dense.
type Tree struct {
	n      int
	fanout int
	levels int
	// width[t] is the number of entities at tier t: width[0] = n leaf
	// nodes, then ever-smaller switch tiers up to width[levels] = 1, the
	// root.
	width []int
	// pow[t] = fanout^t, so a node's tier-t ancestor is node/pow[t].
	pow []int
	// upOff[t] and downOff[t] are the first link IDs of the level-t
	// banks (see NumLinks).
	upOff, downOff []int
	numLinks       int
}

// TreeFanout is the paper's switch fan-out of four.
const TreeFanout = 4

// MaxTreeNodes caps the tree (and the sizes the experiments sweep) at
// 256 processors, the largest system the experiments run. The fabric
// itself no longer bounds it: the interconnect builds one O(n) route
// row per source a run uses and pools O(n) multicast trees.
const MaxTreeNodes = 256

// CheckTree reports whether NewTreeFanout can build the ordered
// broadcast tree for n nodes: 4 <= n <= MaxTreeNodes with fanout >= 2.
func CheckTree(n, fanout int) error {
	if fanout < 2 {
		return fmt.Errorf("tree fanout must be at least 2, got %d", fanout)
	}
	if n < 4 || n > MaxTreeNodes {
		return fmt.Errorf("tree supports 4..%d nodes, got %d", MaxTreeNodes, n)
	}
	return nil
}

// NewTree constructs the ordered broadcast tree for n nodes with the
// paper's fan-out of four: two levels for the paper's 16-processor
// configuration (nine switches), three for 64, four for 256.
func NewTree(n int) *Tree { return NewTreeFanout(n, TreeFanout) }

// NewTreeFanout constructs a k-ary ordered broadcast tree. It panics on
// sizes CheckTree rejects.
func NewTreeFanout(n, fanout int) *Tree {
	if err := CheckTree(n, fanout); err != nil {
		panic("topology: " + err.Error())
	}
	t := &Tree{n: n, fanout: fanout}
	// Depth: the smallest L with fanout^L >= n (the padded leaf layer is
	// fanout^L wide; only the first n slots are populated).
	t.levels = 1
	for p := fanout; p < n; p *= fanout {
		t.levels++
	}
	t.width = make([]int, t.levels+1)
	t.pow = make([]int, t.levels+1)
	t.width[0], t.pow[0] = n, 1
	for l := 1; l <= t.levels; l++ {
		t.width[l] = (t.width[l-1] + fanout - 1) / fanout
		t.pow[l] = t.pow[l-1] * fanout
	}
	// Link banks, two per level: the up banks in climbing order, then
	// the down banks from the root back to the leaves, so the paper's
	// 16-node two-level numbering (node->in-switch, in-switch->root,
	// root->out-switch, out-switch->node) is reproduced exactly.
	t.upOff = make([]int, t.levels)
	t.downOff = make([]int, t.levels)
	off := 0
	for l := 0; l < t.levels; l++ {
		t.upOff[l] = off
		off += t.width[l]
	}
	for l := t.levels - 1; l >= 0; l-- {
		t.downOff[l] = off
		off += t.width[l]
	}
	t.numLinks = off
	return t
}

func (t *Tree) Name() string  { return "tree" }
func (t *Tree) Ordered() bool { return true }
func (t *Tree) Nodes() int    { return t.n }

// Fanout reports the per-switch fan-out (the paper uses 4).
func (t *Tree) Fanout() int { return t.fanout }

// Levels reports the tree depth: every path crosses 2*Levels() links.
func (t *Tree) Levels() int { return t.levels }

// Switches reports the number of discrete switch chips ("glue logic"):
// one incoming and one outgoing switch per non-root tier entity, plus
// the single root (9 for the paper's 16-processor system).
func (t *Tree) Switches() int {
	s := 1
	for l := 1; l < t.levels; l++ {
		s += 2 * t.width[l]
	}
	return s
}

// Directed links, numbered in two banks per level:
//
//	up bank l:   tier-l entity i     -> tier-(l+1) switch i/fanout  (width[l] links)
//	down bank l: tier-(l+1) switch   -> tier-l entity i             (width[l] links)
//
// Up banks come first in climbing order, then down banks from the root
// outward, so for the paper's two-level 16-node tree the four banks are
// exactly the historical node->in-switch, in-switch->root,
// root->out-switch, out-switch->node numbering.
func (t *Tree) NumLinks() int { return t.numLinks }

// upLink is the level-l link out of node n's tier-l ancestor.
func (t *Tree) upLink(l int, n msg.NodeID) LinkID {
	return LinkID(t.upOff[l] + int(n)/t.pow[l])
}

// downLink is the level-l link into node n's tier-l ancestor.
func (t *Tree) downLink(l int, n msg.NodeID) LinkID {
	return LinkID(t.downOff[l] + int(n)/t.pow[l])
}

// Path always routes through the root — including src == dst — because
// a node must observe its own broadcast in the global order.
func (t *Tree) Path(path []LinkID, src, dst msg.NodeID) []LinkID {
	for l := 0; l < t.levels; l++ {
		path = append(path, t.upLink(l, src))
	}
	for l := t.levels - 1; l >= 0; l-- {
		path = append(path, t.downLink(l, dst))
	}
	return path
}
