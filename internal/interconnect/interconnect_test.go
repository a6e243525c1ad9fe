package interconnect

import (
	"testing"
	"testing/quick"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

// collector records deliveries with their times.
type collector struct {
	k   *sim.Kernel
	got []msg.Message
	at  []sim.Time
}

func (c *collector) Handle(m *msg.Message) {
	c.got = append(c.got, *m)
	c.at = append(c.at, c.k.Now())
}

// newTorusNet builds a 4x4 torus network whose traffic counters are
// registered in the returned MetricSet.
func newTorusNet(t *testing.T, cfg Config) (*sim.Kernel, *Network, *stats.MetricSet) {
	t.Helper()
	k := sim.NewKernel()
	ms := stats.NewMetricSet()
	n := New(k, topology.NewTorus(4, 4), cfg)
	n.PublishMetrics(ms)
	return k, n, ms
}

// totalBytes reads the bytes_total metric.
func totalBytes(ms *stats.MetricSet) float64 {
	v, _ := ms.Value("bytes_total")
	return v
}

func registerAll(k *sim.Kernel, n *Network, unit msg.Unit) map[msg.NodeID]*collector {
	cs := make(map[msg.NodeID]*collector)
	for i := 0; i < n.Topology().Nodes(); i++ {
		c := &collector{k: k}
		cs[msg.NodeID(i)] = c
		n.Register(msg.Port{Node: msg.NodeID(i), Unit: unit}, c)
	}
	return cs
}

func TestUnicastLatencyUncontended(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	m := msg.Message{
		Kind: msg.KindGetS,
		Src:  msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst:  msg.Port{Node: 1, Unit: msg.UnitCache},
	}
	n.Send(m)
	k.Run()
	// 1 hop x 15ns + 8B/3.2GB/s = 2.5ns -> 17.5ns
	want := 17500 * sim.Picosecond
	if len(cs[1].at) != 1 || cs[1].at[0] != want {
		t.Errorf("delivery at %v, want %v", cs[1].at, want)
	}
}

func TestDataMessageSerialization(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	m := msg.Message{
		Kind: msg.KindData, HasData: true,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst: msg.Port{Node: 2, Unit: msg.UnitCache},
	}
	n.Send(m)
	k.Run()
	// 2 hops x 15ns + 72B/3.2GB/s = 22.5ns -> 52.5ns
	want := 52500 * sim.Picosecond
	if cs[2].at[0] != want {
		t.Errorf("delivery at %v, want %v", cs[2].at[0], want)
	}
}

func TestUnlimitedBandwidthNoSerialization(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig().Unlimited())
	cs := registerAll(k, n, msg.UnitCache)
	m := msg.Message{
		Kind: msg.KindData, HasData: true,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst: msg.Port{Node: 2, Unit: msg.UnitCache},
	}
	n.Send(m)
	k.Run()
	want := 30 * sim.Nanosecond
	if cs[2].at[0] != want {
		t.Errorf("delivery at %v, want %v (pure link latency)", cs[2].at[0], want)
	}
}

func TestLocalDeliveryBypassesFabric(t *testing.T) {
	k, n, tr := newTorusNet(t, DefaultConfig())
	c := &collector{k: k}
	n.Register(msg.Port{Node: 3, Unit: msg.UnitMem}, c)
	m := msg.Message{
		Kind: msg.KindGetS,
		Src:  msg.Port{Node: 3, Unit: msg.UnitCache},
		Dst:  msg.Port{Node: 3, Unit: msg.UnitMem},
	}
	n.Send(m)
	k.Run()
	if c.at[0] != 1*sim.Nanosecond {
		t.Errorf("local delivery at %v, want 1ns", c.at[0])
	}
	if got := totalBytes(tr); got != 0 {
		t.Errorf("local delivery recorded %v bytes, want 0", got)
	}
}

func TestContentionSerializesOnSharedLink(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	// Two data messages 0->1 sent at the same instant share link 0-east.
	for i := 0; i < 2; i++ {
		n.Send(msg.Message{
			Kind: msg.KindData, HasData: true,
			Src: msg.Port{Node: 0, Unit: msg.UnitCache},
			Dst: msg.Port{Node: 1, Unit: msg.UnitCache},
		})
	}
	k.Run()
	if len(cs[1].at) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(cs[1].at))
	}
	first, second := cs[1].at[0], cs[1].at[1]
	// First: 15ns + 22.5ns = 37.5ns. Second queues 22.5ns behind.
	if first != 37500*sim.Picosecond {
		t.Errorf("first delivery at %v, want 37.5ns", first)
	}
	if second != 60000*sim.Picosecond {
		t.Errorf("second delivery at %v, want 60ns (22.5ns queuing)", second)
	}
}

func TestMulticastChargesTreeEdgesOnce(t *testing.T) {
	k, n, tr := newTorusNet(t, DefaultConfig())
	registerAll(k, n, msg.UnitCache)
	var dsts []msg.Port
	for i := 1; i < 16; i++ {
		dsts = append(dsts, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
	}
	m := msg.Message{
		Kind: msg.KindGetM, Cat: msg.CatRequest,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
	}
	n.Multicast(m, dsts)
	k.Run()
	// The XY multicast tree from one source to all 15 others spans exactly
	// 15 links on a 4x4 torus (one per destination reached, tree property).
	wantLinks := uint64(15)
	if got := tr.Count("msgs_request"); got != wantLinks {
		t.Errorf("multicast used %d link traversals, want %d", got, wantLinks)
	}
	if got := tr.Count("bytes_request"); got != wantLinks*8 {
		t.Errorf("multicast bytes = %d, want %d", got, wantLinks*8)
	}
}

func TestMulticastDeliversToEveryDestinationOnce(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	var dsts []msg.Port
	for i := 0; i < 16; i++ { // include self
		dsts = append(dsts, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
	}
	n.Multicast(msg.Message{
		Kind: msg.KindGetS,
		Src:  msg.Port{Node: 5, Unit: msg.UnitCache},
	}, dsts)
	k.Run()
	for i := 0; i < 16; i++ {
		if got := len(cs[msg.NodeID(i)].got); got != 1 {
			t.Errorf("node %d received %d copies, want 1", i, got)
		}
	}
}

func TestMulticastCopiesAreIndependent(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	orig := msg.Message{
		Kind: msg.KindData, HasData: true, Tokens: 5,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
	}
	// The first destination mutates its copy during Handle; the copies
	// delivered after it must not see that.
	n.Register(msg.Port{Node: 1, Unit: msg.UnitMem}, HandlerFunc(func(m *msg.Message) { m.Tokens = 99 }))
	n.Multicast(orig, []msg.Port{
		{Node: 1, Unit: msg.UnitMem},
		{Node: 1, Unit: msg.UnitCache},
		{Node: 2, Unit: msg.UnitCache},
	})
	k.Run()
	if cs[1].got[0].Tokens != 5 || cs[2].got[0].Tokens != 5 {
		t.Error("multicast copies alias each other")
	}
	if cs[1].got[0].Dst.Node != 1 || cs[2].got[0].Dst.Node != 2 {
		t.Error("multicast did not set per-copy Dst")
	}
}

func TestTreeBroadcastTotalOrder(t *testing.T) {
	k := sim.NewKernel()
	tree := topology.NewTree(16)
	n := New(k, tree, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	allPorts := func() []msg.Port {
		var ps []msg.Port
		for i := 0; i < 16; i++ {
			ps = append(ps, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
		}
		return ps
	}()
	// Fire 20 broadcasts from different sources at staggered times that
	// still overlap in the fabric; every node must observe the same order.
	for i := 0; i < 20; i++ {
		i := i
		src := msg.NodeID(i % 16)
		k.Schedule(sim.Time(i)*2*sim.Nanosecond, func() {
			n.Multicast(msg.Message{
				Kind: msg.KindGetM,
				Seq:  uint64(i),
				Src:  msg.Port{Node: src, Unit: msg.UnitCache},
			}, allPorts)
		})
	}
	k.Run()
	ref := cs[0]
	if len(ref.got) != 20 {
		t.Fatalf("node 0 received %d broadcasts, want 20", len(ref.got))
	}
	for node := msg.NodeID(1); node < 16; node++ {
		c := cs[node]
		if len(c.got) != len(ref.got) {
			t.Fatalf("node %d received %d, node 0 received %d", node, len(c.got), len(ref.got))
		}
		for i := range ref.got {
			if c.got[i].Seq != ref.got[i].Seq {
				t.Fatalf("total order violated: node %d saw seq %d at slot %d, node 0 saw %d",
					node, c.got[i].Seq, i, ref.got[i].Seq)
			}
		}
	}
}

func TestTreeSelfDeliveryGoesThroughRoot(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, topology.NewTree(16), DefaultConfig())
	c := &collector{k: k}
	n.Register(msg.Port{Node: 7, Unit: msg.UnitCache}, c)
	n.Send(msg.Message{
		Kind: msg.KindGetS,
		Src:  msg.Port{Node: 7, Unit: msg.UnitCache},
		Dst:  msg.Port{Node: 7, Unit: msg.UnitCache},
	})
	k.Run()
	// 4 hops x 15ns + 2.5ns serialization.
	want := 62500 * sim.Picosecond
	if c.at[0] != want {
		t.Errorf("self broadcast delivered at %v, want %v (must cross root)", c.at[0], want)
	}
}

func TestUnregisteredPortPanics(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("send to unregistered port did not panic")
		}
	}()
	n.Send(msg.Message{
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst: msg.Port{Node: 1, Unit: msg.UnitCache},
	})
	k.Run()
}

func TestDoubleRegisterPanics(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	c := &collector{k: k}
	n.Register(msg.Port{Node: 0, Unit: msg.UnitCache}, c)
	defer func() {
		if recover() == nil {
			t.Error("double register did not panic")
		}
	}()
	n.Register(msg.Port{Node: 0, Unit: msg.UnitCache}, c)
}

// TestRegisterOutsideFabricPanics: the handler table has a slot for
// every unit of every node of the topology and nothing else.
func TestRegisterOutsideFabricPanics(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	c := &collector{k: k}
	nodes := msg.NodeID(n.Topology().Nodes())
	n.Register(msg.Port{Node: nodes - 1, Unit: msg.NumUnits - 1}, c)
	for _, p := range []msg.Port{{Node: nodes, Unit: msg.UnitCache}, {Node: -1, Unit: msg.UnitCache}, {Node: 0, Unit: msg.NumUnits}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%v) on a %d-node fabric did not panic", p, nodes)
				}
			}()
			n.Register(p, c)
		}()
	}
}

// TestUnicastLatencyHelper pins the uncontended latency formula on
// measured delivery times: LocalLatency on the same node, otherwise one
// LinkLatency per hop plus one serialization.
func TestUnicastLatencyHelper(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	send := func(dst msg.NodeID, data bool) {
		n.Send(msg.Message{
			Kind: msg.KindData, HasData: data,
			Src: msg.Port{Node: 0, Unit: msg.UnitCache},
			Dst: msg.Port{Node: dst, Unit: msg.UnitCache},
		})
	}
	send(0, false)
	send(2, true)
	k.Run()
	if got := cs[0].at; len(got) != 1 || got[0] != 1*sim.Nanosecond {
		t.Errorf("local delivery at %v, want 1ns", got)
	}
	if got := cs[2].at; len(got) != 1 || got[0] != 52500*sim.Picosecond {
		t.Errorf("0->2 data delivery at %v, want 52.5ns", got)
	}
}

func TestSentCounter(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	n.Send(msg.Message{
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst: msg.Port{Node: 1, Unit: msg.UnitCache},
	})
	n.Multicast(msg.Message{Src: msg.Port{Node: 0, Unit: msg.UnitCache}},
		[]msg.Port{{Node: 2, Unit: msg.UnitCache}, {Node: 3, Unit: msg.UnitCache}})
	k.Run()
	delivered := 0
	for _, c := range cs {
		delivered += len(c.got)
	}
	if delivered != 3 {
		t.Errorf("%d deliveries handled, want 3", delivered)
	}
}

func TestTrafficRecordWeightsByLinks(t *testing.T) {
	k, n, tr := newTorusNet(t, DefaultConfig())
	registerAll(k, n, msg.UnitCache)
	// 0 -> 10 on the 4x4 torus is 2 hops east and 2 south; 0 -> 1 is one.
	n.Send(msg.Message{Kind: msg.KindGetS, Cat: msg.CatRequest,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache}, Dst: msg.Port{Node: 10, Unit: msg.UnitCache}})
	n.Send(msg.Message{Kind: msg.KindData, Cat: msg.CatData, HasData: true,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache}, Dst: msg.Port{Node: 1, Unit: msg.UnitCache}})
	k.Run()
	if got := tr.Count("bytes_request"); got != 32 {
		t.Errorf("request bytes = %d, want 32 (8B x 4 links)", got)
	}
	if got := tr.Count("bytes_data"); got != 72 {
		t.Errorf("data bytes = %d, want 72 (72B x 1 link)", got)
	}
	if got := totalBytes(tr); got != 104 {
		t.Errorf("total = %v, want 104", got)
	}
	if got := tr.Count("msgs_request"); got != 4 {
		t.Errorf("request traversals = %d, want 4", got)
	}
}

func TestTrafficLocalDeliveryFree(t *testing.T) {
	k, n, tr := newTorusNet(t, DefaultConfig())
	registerAll(k, n, msg.UnitCache)
	n.Send(msg.Message{Kind: msg.KindData, Cat: msg.CatData, HasData: true,
		Src: msg.Port{Node: 5, Unit: msg.UnitCache}, Dst: msg.Port{Node: 5, Unit: msg.UnitCache}})
	n.Multicast(msg.Message{Cat: msg.CatData, HasData: true, Src: msg.Port{Node: 5, Unit: msg.UnitCache}},
		[]msg.Port{{Node: 5, Unit: msg.UnitCache}})
	k.Run()
	if got := totalBytes(tr); got != 0 || tr.Count("msgs_data") != 0 {
		t.Errorf("local deliveries recorded %v bytes, %d traversals; want none", got, tr.Count("msgs_data"))
	}
}

// Property: the traffic total equals the sum of the category bytes.
func TestPropertyTrafficTotal(t *testing.T) {
	cats := []msg.Category{msg.CatRequest, msg.CatReissue, msg.CatControl, msg.CatData}
	f := func(counts [4]uint8, dst uint8) bool {
		k, n, tr := newTorusNet(t, DefaultConfig())
		registerAll(k, n, msg.UnitCache)
		for i, c := range cats {
			for j := 0; j < int(counts[i]); j++ {
				n.Send(msg.Message{Cat: c, HasData: c == msg.CatData,
					Src: msg.Port{Node: 0, Unit: msg.UnitCache}, Dst: msg.Port{Node: msg.NodeID(dst % 16), Unit: msg.UnitCache}})
			}
		}
		k.Run()
		var sum uint64
		for _, c := range cats {
			sum += tr.Count("bytes_" + c.Slug())
		}
		return float64(sum) == totalBytes(tr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWorkConservingLinks verifies that a message does not wait behind a
// reservation for a message that has not physically reached the shared
// link yet: B (sent slightly later, one hop) must cross link 1-east
// before A (sent first, but arriving at that link only after its first
// hop).
func TestWorkConservingLinks(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	// A: 0 -> 2 (east, east). B: 1 -> 2 (east), sent at t=1ns.
	n.Send(msg.Message{
		Kind: msg.KindData, HasData: true,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst: msg.Port{Node: 2, Unit: msg.UnitCache},
	})
	k.Schedule(1*sim.Nanosecond, func() {
		n.Send(msg.Message{
			Kind: msg.KindGetS,
			Src:  msg.Port{Node: 1, Unit: msg.UnitCache},
			Dst:  msg.Port{Node: 2, Unit: msg.UnitCache},
		})
	})
	k.Run()
	if len(cs[2].got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(cs[2].got))
	}
	// B (control, 8B): departs link1E at 1ns, arrives 16ns, +2.5 = 18.5ns.
	// A reaches link 1E only at 37.5ns (after its first hop completes).
	if cs[2].got[0].Kind != msg.KindGetS {
		t.Errorf("first delivery = %v, want the later-sent one-hop message (work conservation)", cs[2].got[0].Kind)
	}
	if cs[2].at[0] != 18500*sim.Picosecond {
		t.Errorf("B delivered at %v, want 18.5ns", cs[2].at[0])
	}
}

// TestMulticastSharedPrefixTiming verifies that destinations sharing a
// path prefix see one serialization per shared link, not one per copy.
func TestMulticastSharedPrefixTiming(t *testing.T) {
	k, n, tr := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	// From node 0: east to 1, continue east to 2. Paths share link 0E.
	n.Multicast(msg.Message{
		Kind: msg.KindGetM, Cat: msg.CatRequest,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
	}, []msg.Port{
		{Node: 1, Unit: msg.UnitCache},
		{Node: 2, Unit: msg.UnitCache},
	})
	k.Run()
	// Node 1: 15ns + 2.5; node 2: 30ns + 2.5 — no double serialization on 0E.
	if cs[1].at[0] != 17500*sim.Picosecond {
		t.Errorf("node 1 delivery at %v, want 17.5ns", cs[1].at[0])
	}
	if cs[2].at[0] != 32500*sim.Picosecond {
		t.Errorf("node 2 delivery at %v, want 32.5ns", cs[2].at[0])
	}
	if got := tr.Count("msgs_request"); got != 2 {
		t.Errorf("link traversals = %d, want 2 (0E shared, 1E)", got)
	}
}

// TestInteriorDestinationDelivered covers a destination that lies on the
// path to a farther destination.
func TestInteriorDestinationDelivered(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	n.Multicast(msg.Message{
		Kind: msg.KindGetS,
		Src:  msg.Port{Node: 0, Unit: msg.UnitCache},
	}, []msg.Port{
		{Node: 2, Unit: msg.UnitCache}, // farther listed first
		{Node: 1, Unit: msg.UnitCache},
	})
	k.Run()
	if len(cs[1].got) != 1 || len(cs[2].got) != 1 {
		t.Fatalf("deliveries: node1=%d node2=%d, want 1 each", len(cs[1].got), len(cs[2].got))
	}
	if !(cs[1].at[0] < cs[2].at[0]) {
		t.Errorf("interior node delivered at %v, after farther node at %v", cs[1].at[0], cs[2].at[0])
	}
}

// TestMixedLocalAndRemoteMulticast exercises a destination set that
// includes the source node itself.
func TestMixedLocalAndRemoteMulticast(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	cs := registerAll(k, n, msg.UnitCache)
	local := &collector{k: k}
	n.Register(msg.Port{Node: 0, Unit: msg.UnitMem}, local)
	n.Multicast(msg.Message{
		Kind: msg.KindGetS,
		Src:  msg.Port{Node: 0, Unit: msg.UnitCache},
	}, []msg.Port{
		{Node: 0, Unit: msg.UnitMem}, // local
		{Node: 3, Unit: msg.UnitCache},
	})
	k.Run()
	if len(local.got) != 1 || local.at[0] != 1*sim.Nanosecond {
		t.Errorf("local delivery %v at %v, want 1 at 1ns", len(local.got), local.at)
	}
	if len(cs[3].got) != 1 {
		t.Errorf("remote deliveries = %d, want 1", len(cs[3].got))
	}
}

// countLinkBytes attaches a NetworkHop observer to n that tallies the
// bytes crossing each link.
func countLinkBytes(n *Network) []uint64 {
	bytes := make([]uint64, n.Topology().NumLinks())
	n.SetObserver(stats.Observer{
		Kinds: stats.MaskOf(stats.NetworkHop),
		On:    func(ev stats.Event) { bytes[ev.Node] += uint64(ev.N) },
	})
	return bytes
}

// TestTreeRootIsTheBottleneck reproduces the paper's structural point:
// on the indirect tree every broadcast crosses the root, so the root's
// links run far hotter than any torus link under the same load.
func TestTreeRootIsTheBottleneck(t *testing.T) {
	load := func(topo topology.Topology) (max uint64) {
		k := sim.NewKernel()
		n := New(k, topo, DefaultConfig())
		registerAll(k, n, msg.UnitCache)
		bytes := countLinkBytes(n)
		var all []msg.Port
		for i := 0; i < 16; i++ {
			all = append(all, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
		}
		for i := 0; i < 16; i++ {
			src := msg.NodeID(i)
			k.Schedule(sim.Time(i)*sim.Nanosecond, func() {
				n.Multicast(msg.Message{Kind: msg.KindGetM, Src: msg.Port{Node: src, Unit: msg.UnitCache}}, all)
			})
		}
		k.Run()
		for _, b := range bytes {
			if b > max {
				max = b
			}
		}
		return max
	}
	treeMax := load(topology.NewTree(16))
	torusMax := load(topology.NewTorus(4, 4))
	if treeMax <= torusMax {
		t.Errorf("tree hottest link (%dB) not hotter than torus hottest (%dB)", treeMax, torusMax)
	}
}

// TestUtilizationAccounting checks the per-link byte count a NetworkHop
// observer sees against the link's busy time: one 72-byte data message
// keeps link 0-east busy for 22.5ns, 60% of its 37.5ns delivery time.
func TestUtilizationAccounting(t *testing.T) {
	k, n, _ := newTorusNet(t, DefaultConfig())
	registerAll(k, n, msg.UnitCache)
	bytes := countLinkBytes(n)
	n.Send(msg.Message{
		Kind: msg.KindData, HasData: true,
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst: msg.Port{Node: 1, Unit: msg.UnitCache},
	})
	k.Run()
	var total uint64
	for _, b := range bytes {
		total += b
	}
	if east := bytes[0]; east != 72 || total != 72 {
		t.Fatalf("link 0-east carried %d of %d bytes, want all 72", east, total)
	}
	seconds := float64(37500*sim.Picosecond) / 1e12
	got := float64(bytes[0]) / (DefaultConfig().LinkBandwidth * seconds)
	if got < 0.59 || got > 0.61 {
		t.Errorf("utilization = %v, want ~0.6", got)
	}
}
