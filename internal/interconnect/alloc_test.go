package interconnect

import (
	"testing"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/trace"
)

// forwarder circulates a single token message around the ring (one
// reply per delivery, so the population stays constant) and, every 16th
// hop through node 0, fires a broadcast whose copies are absorbed on
// delivery. That covers the unicast hop chain, the local path, and the
// multicast tree walk without amplifying traffic.
type forwarder struct {
	n     *Network
	id    msg.NodeID
	nodes int
	hops  int
	dsts  []msg.Port
	total *int
}

func (f *forwarder) Handle(m *msg.Message) {
	*f.total++
	if m.Kind == msg.KindProbe {
		return // broadcast copy: absorbed, recycled by the network
	}
	out := f.n.NewMessage()
	*out = msg.Message{
		Kind: msg.KindGetS, Cat: msg.CatRequest,
		Src: msg.Port{Node: f.id, Unit: msg.UnitCache},
		Dst: msg.Port{Node: (f.id + 3) % msg.NodeID(f.nodes), Unit: msg.UnitCache},
	}
	f.n.Send(out)
	if f.id == 0 {
		f.hops++
		if f.hops%16 == 0 {
			bc := f.n.NewMessage()
			*bc = msg.Message{
				Kind: msg.KindProbe, Cat: msg.CatRequest,
				Src: msg.Port{Node: f.id, Unit: msg.UnitCache},
			}
			f.n.Multicast(bc, f.dsts)
		}
	}
}

// TestNetworkSteadyStateAllocs is the interconnect's hard allocation
// gate: once the message pool, netOp records, multicast trees and the
// route rows of the sending nodes are warm, sustained traffic (unicast,
// local, and broadcast) must allocate nothing per message. The gate
// covers the paper's 16-node fabrics and both 256-node configurations —
// the un-capped four-level ordered tree and the 16x16 torus — so route
// lookups and the pooled multicast trees stay allocation-free at the
// largest size the experiments sweep.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	fabrics := []struct {
		name string
		topo topology.Topology
	}{
		{"torus-16", topology.NewTorus(4, 4)},
		{"tree-16", topology.NewTree(16)},
		{"torus-256", topology.NewTorusFor(256)},
		{"tree-256", topology.NewTree(256)},
	}
	for _, f := range fabrics {
		f := f
		t.Run(f.name, func(t *testing.T) { testSteadyStateAllocs(t, f.topo) })
	}
}

func testSteadyStateAllocs(t *testing.T, topo topology.Topology) {
	k := sim.NewKernel()
	var tr stats.Traffic
	n := New(k, topo, DefaultConfig(), &tr)
	nodes := topo.Nodes()
	var dsts []msg.Port
	for i := 0; i < nodes; i++ {
		dsts = append(dsts, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
	}
	total := 0
	for i := 0; i < nodes; i++ {
		n.Register(msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache},
			&forwarder{n: n, id: msg.NodeID(i), nodes: nodes, dsts: dsts, total: &total})
	}
	// Seed one token per node and warm all pools.
	for i := 0; i < nodes; i++ {
		m := n.NewMessage()
		*m = msg.Message{
			Kind: msg.KindGetS, Cat: msg.CatRequest,
			Src: msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache},
			Dst: msg.Port{Node: msg.NodeID((i + 1) % nodes), Unit: msg.UnitCache},
		}
		n.Send(m)
	}
	k.RunUntil(k.Now() + 200*sim.Microsecond)
	if total == 0 {
		t.Fatal("no messages delivered during warmup")
	}
	before := total
	allocs := testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + 5*sim.Microsecond)
	})
	if total == before {
		t.Fatal("no messages delivered during measurement")
	}
	if allocs > 0 {
		t.Errorf("steady-state traffic allocates %.1f objects per 5us slice, want 0", allocs)
	}

	// A counting observer must not break the zero-alloc guarantee either:
	// the per-hop event is a pooled-free callback into probe code.
	var hops uint64
	n.SetObserver(stats.Observer{
		Kinds: stats.MaskOf(stats.NetworkHop),
		On:    func(stats.Event) { hops++ },
	})
	allocs = testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + 5*sim.Microsecond)
	})
	n.SetObserver(stats.Observer{})
	if hops == 0 {
		t.Fatal("observer saw no hops")
	}
	if allocs > 0 {
		t.Errorf("traffic with a counting observer allocates %.1f objects per 5us slice, want 0", allocs)
	}

	// The always-armed flight recorder must be just as free: hop recording
	// into the pooled ring is the worst case (hops vastly outnumber
	// protocol events), so arm it with Hops on and re-measure.
	rec := trace.NewFlightRecorder(trace.RecorderConfig{Hops: true})
	n.SetObserver(rec.Observer())
	allocs = testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + 5*sim.Microsecond)
	})
	n.SetObserver(stats.Observer{})
	if rec.Total() == 0 {
		t.Fatal("recorder saw no hops")
	}
	if allocs > 0 {
		t.Errorf("traffic with an armed flight recorder allocates %.1f objects per 5us slice, want 0", allocs)
	}
}

// TestNewAllocsIndependentOfSize is the fabric set-up gate: New
// tabulates no routes (each source's row is built on its first send),
// so building a 256-node network makes exactly as many allocations as
// building a 16-node one.
func TestNewAllocsIndependentOfSize(t *testing.T) {
	pairs := [][2]topology.Topology{
		{topology.NewTorus(4, 4), topology.NewTorusFor(256)},
		{topology.NewTree(16), topology.NewTree(256)},
	}
	for _, p := range pairs {
		allocs := func(topo topology.Topology) float64 {
			k := sim.NewKernel()
			return testing.AllocsPerRun(20, func() { New(k, topo, DefaultConfig(), nil) })
		}
		small, large := allocs(p[0]), allocs(p[1])
		if small != large {
			t.Errorf("%s: New makes %.0f allocations at %d nodes but %.0f at %d",
				p[0].Name(), small, p[0].Nodes(), large, p[1].Nodes())
		}
	}
}
