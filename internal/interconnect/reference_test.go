package interconnect

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

// ring is a bidirectional ring with shortest-direction routing (ties go
// clockwise): link 2*i runs clockwise out of node i, link 2*i+1
// counterclockwise. With hub set, every route instead runs clockwise to
// node 0 and on to its destination, so routes from any other node loop
// back over their own first links: not prefix-closed.
type ring struct {
	n   int
	hub bool
}

func (r ring) Name() string {
	if r.hub {
		return "hub-ring"
	}
	return "ring"
}
func (r ring) Nodes() int    { return r.n }
func (r ring) NumLinks() int { return 2 * r.n }
func (r ring) Ordered() bool { return false }

func (r ring) Path(path []topology.LinkID, src, dst msg.NodeID) []topology.LinkID {
	s, d := int(src), int(dst)
	cw, ccw := (d-s+r.n)%r.n, (s-d+r.n)%r.n
	if r.hub && s != d {
		cw, ccw = (r.n-s)%r.n+d, 2*r.n
	}
	for at := s; cw <= ccw && at != s+cw; at++ {
		path = append(path, topology.LinkID(2*(at%r.n)))
	}
	for at := s; cw > ccw && at != s-ccw; at-- {
		path = append(path, topology.LinkID(2*((at+r.n)%r.n)+1))
	}
	return path
}

// refNode and refFold are the pointer prefix-tree fold multicast used
// before its flat tree, kept as the model the flat tree must match.
type refNode struct {
	link     topology.LinkID
	children []*refNode
	dests    []msg.Port
}

func refFold(paths [][]topology.LinkID, dsts []msg.Port) (roots []*refNode) {
	for i, path := range paths {
		level := &roots
		var nd *refNode
		for _, l := range path {
			j := slices.IndexFunc(*level, func(c *refNode) bool { return c.link == l })
			if j < 0 {
				*level = append(*level, &refNode{link: l})
				j = len(*level) - 1
			}
			nd = (*level)[j]
			level = &nd.children
		}
		nd.dests = append(nd.dests, dsts[i])
	}
	return roots
}

// mcLaunch is one multicast of a randomized test run.
type mcLaunch struct {
	at   sim.Time
	src  msg.Port
	data bool
	dsts []msg.Port
}

// record is one reservation (departure time, link) or delivery (time,
// port index) of a run.
type record struct {
	at sim.Time
	id int
}

func portIndex(p msg.Port) int { return int(p.Node)*int(msg.UnitProc+1) + int(p.Unit) }

// runNetwork plays launches through a Network and records every link
// reservation and delivery in order.
func runNetwork(topo topology.Topology, launches []mcLaunch) (hops []record, dels []record) {
	k := sim.NewKernel()
	n := New(k, topo, DefaultConfig())
	for node := 0; node < topo.Nodes(); node++ {
		for u := msg.UnitCache; u <= msg.UnitProc; u++ {
			n.Register(msg.Port{Node: msg.NodeID(node), Unit: u}, HandlerFunc(func(m *msg.Message) {
				dels = append(dels, record{k.Now(), portIndex(m.Dst)})
			}))
		}
	}
	n.SetObserver(stats.Observer{
		Kinds: stats.MaskOf(stats.NetworkHop),
		On:    func(ev stats.Event) { hops = append(hops, record{ev.At, int(ev.Node)}) },
	})
	for _, l := range launches {
		k.Schedule(l.at, func() {
			n.Multicast(msg.Message{Kind: msg.KindData, HasData: l.data, Src: l.src}, l.dsts)
		})
	}
	k.Run()
	return hops, dels
}

// runReference plays launches through refFold and the timing model the
// pointer tree was walked with, scheduling on its kernel in the same
// order the network does.
func runReference(topo topology.Topology, launches []mcLaunch) (hops []record, dels []record) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	nextFree := make([]sim.Time, topo.NumLinks())
	head := func(l topology.LinkID) int32 {
		if pt, ok := topo.(topology.Partitioned); ok {
			return int32(pt.LinkHead(l))
		}
		return 0
	}
	deliver := func(dst msg.Port, at sim.Time) {
		k.ScheduleExec(int32(dst.Node), at, func() { dels = append(dels, record{k.Now(), portIndex(dst)}) })
	}
	var walk func(nodes []*refNode, t, ser sim.Time)
	walk = func(nodes []*refNode, t, ser sim.Time) {
		for _, nd := range nodes {
			d := max(t, nextFree[nd.link])
			nextFree[nd.link] = d + ser
			hops = append(hops, record{d, int(nd.link)})
			arrival := d + cfg.LinkLatency
			for _, dst := range nd.dests {
				deliver(dst, arrival+ser)
			}
			if len(nd.children) > 0 {
				k.ScheduleExec(head(nd.link), arrival, func() { walk(nd.children, arrival, ser) })
			}
		}
	}
	for _, l := range launches {
		k.Schedule(l.at, func() {
			var paths [][]topology.LinkID
			var dsts []msg.Port
			for _, dst := range l.dsts {
				path := topo.Path(nil, l.src.Node, dst.Node)
				if len(path) == 0 {
					deliver(dst, k.Now()+cfg.LocalLatency)
					continue
				}
				paths, dsts = append(paths, path), append(dsts, dst)
			}
			bytes := (&msg.Message{HasData: l.data}).Bytes()
			ser := sim.Time(float64(bytes)/cfg.LinkBandwidth*1e12 + 0.5)
			walk(refFold(paths, dsts), k.Now(), ser)
		})
	}
	k.Run()
	return hops, dels
}

// randomLaunches draws overlapping multicasts over every unit of every
// node: broadcasts to all caches plus one memory port, and random port
// subsets that often include the source's own node, all in shuffled
// order.
func randomLaunches(rng *rand.Rand, nodes, count int) []mcLaunch {
	var ports []msg.Port
	for node := 0; node < nodes; node++ {
		for u := msg.UnitCache; u <= msg.UnitProc; u++ {
			ports = append(ports, msg.Port{Node: msg.NodeID(node), Unit: u})
		}
	}
	launches := make([]mcLaunch, count)
	for i := range launches {
		l := mcLaunch{
			at:   sim.Time(rng.IntN(400)) * sim.Nanosecond,
			src:  ports[rng.IntN(len(ports))],
			data: rng.IntN(2) == 0,
		}
		if rng.IntN(3) == 0 {
			for node := 0; node < nodes; node++ {
				l.dsts = append(l.dsts, msg.Port{Node: msg.NodeID(node), Unit: msg.UnitCache})
			}
			l.dsts = append(l.dsts, msg.Port{Node: msg.NodeID(rng.IntN(nodes)), Unit: msg.UnitMem})
		} else {
			for _, p := range rng.Perm(len(ports))[:1+rng.IntN(3*nodes)] {
				l.dsts = append(l.dsts, ports[p])
			}
			l.dsts = append(l.dsts, msg.Port{Node: l.src.Node, Unit: msg.UnitMem})
		}
		rng.Shuffle(len(l.dsts), func(a, b int) { l.dsts[a], l.dsts[b] = l.dsts[b], l.dsts[a] })
		launches[i] = l
	}
	return launches
}

// TestMulticastMatchesReference drives random multicasts through the
// flat tree and the pointer-tree reference: both must reserve the same
// links at the same times in the same order, and deliver to the same
// ports at the same times in the same order.
func TestMulticastMatchesReference(t *testing.T) {
	fabrics := []struct {
		topo  topology.Topology
		count int
	}{
		{topology.NewTorus(4, 4), 200},
		{topology.NewTorusFor(64), 100},
		{topology.NewTorusFor(256), 30},
		{topology.NewTree(16), 200},
		{topology.NewTree(256), 30},
		{ring{n: 8}, 200},
	}
	for i, f := range fabrics {
		t.Run(fmt.Sprintf("%s-%d", f.topo.Name(), f.topo.Nodes()), func(t *testing.T) {
			launches := randomLaunches(rand.New(rand.NewPCG(uint64(i), 7)), f.topo.Nodes(), f.count)
			gotHops, gotDels := runNetwork(f.topo, launches)
			wantHops, wantDels := runReference(f.topo, launches)
			if len(wantDels) == 0 || len(wantHops) == 0 {
				t.Fatal("reference run reserved or delivered nothing")
			}
			if i := firstDiff(gotHops, wantHops); i >= 0 {
				t.Errorf("reservation %d of %d/%d differs: got %v, want %v", i, len(gotHops), len(wantHops), at(gotHops, i), at(wantHops, i))
			}
			if i := firstDiff(gotDels, wantDels); i >= 0 {
				t.Errorf("delivery %d of %d/%d differs: got %v, want %v", i, len(gotDels), len(wantDels), at(gotDels, i), at(wantDels, i))
			}
		})
	}
}

func firstDiff(a, b []record) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(rs []record, i int) any {
	if i < len(rs) {
		return rs[i]
	}
	return "nothing"
}

// TestRouteRejectsNonPrefixClosedTopology builds a fabric whose routes
// are not prefix-closed: the first route that enters a link from two
// different predecessors panics, naming the topology and the pair.
func TestRouteRejectsNonPrefixClosedTopology(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, ring{n: 8, hub: true}, DefaultConfig())
	registerAll(k, n, msg.UnitCache)
	n.Send(msg.Message{Src: msg.Port{Node: 0}, Dst: msg.Port{Node: 5}}) // from the hub: closed
	k.Run()
	defer func() {
		got, _ := recover().(string)
		if !strings.Contains(got, "hub-ring") || !strings.Contains(got, "path 3->4") {
			t.Errorf("panic %q, want one naming hub-ring and path 3->4", got)
		}
	}()
	n.Send(msg.Message{Src: msg.Port{Node: 3}, Dst: msg.Port{Node: 1}})
}

// TestRouteRowsSharedAcrossViews builds every route row from two island
// views at once: both must adopt one published row per source, holding
// exactly the topology's paths.
func TestRouteRowsSharedAcrossViews(t *testing.T) {
	topo := topology.NewTorusFor(64)
	views := New(sim.NewKernel(), topo, DefaultConfig()).Split(
		make([]int32, topo.Nodes()), []*sim.Kernel{sim.NewKernel(), sim.NewKernel()})
	rows := make([][]*route, len(views))
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range topo.Nodes() {
				rows[i] = append(rows[i], v.route(msg.NodeID(s)))
			}
		}()
	}
	wg.Wait()
	for s, r := range rows[0] {
		if rows[1][s] != r {
			t.Fatalf("views hold different rows for source %d", s)
		}
		for d := range topo.Nodes() {
			var want []int32
			for _, l := range topo.Path(nil, msg.NodeID(s), msg.NodeID(d)) {
				want = append(want, int32(l))
			}
			if got := r.to(msg.NodeID(d)); !slices.Equal(got, want) {
				t.Fatalf("route %d->%d = %v, want %v", s, d, got, want)
			}
		}
	}
}
