package core

import (
	"testing"

	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

// arbiterRig wires an Arbiter to stub cache/memory handlers so its state
// machine can be unit-tested without full protocol controllers.
type arbiterRig struct {
	sys  *machine.System
	arb  *Arbiter
	acts []msg.Message // activations observed (any node)
	deas []msg.Message // deactivations observed
	// autoAck controls whether stubs acknowledge immediately.
	autoAck bool
}

func newArbiterRig(t *testing.T, procs int) *arbiterRig {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	cfg.TokensPerBlock = procs
	sys := machine.NewSystem(cfg, topology.NewTorusFor(procs), 1)
	r := &arbiterRig{sys: sys, autoAck: true}
	r.arb = NewArbiter(sys, 0)
	stub := func(port msg.Port) interconnect.Handler {
		return interconnect.HandlerFunc(func(m *msg.Message) {
			switch m.Kind {
			case msg.KindPersistentActivate:
				r.acts = append(r.acts, *m)
				if r.autoAck {
					r.ack(port, m, msg.KindPersistentActivateAck)
				}
			case msg.KindPersistentDeactivate:
				r.deas = append(r.deas, *m)
				if r.autoAck {
					r.ack(port, m, msg.KindPersistentDeactivateAck)
				}
			}
		})
	}
	for i := 0; i < procs; i++ {
		p := msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache}
		sys.Net.Register(p, stub(p))
	}
	memPort := msg.Port{Node: 0, Unit: msg.UnitMem}
	sys.Net.Register(memPort, stub(memPort))
	return r
}

func (r *arbiterRig) ack(from msg.Port, m *msg.Message, kind msg.Kind) {
	r.sys.Net.Send(msg.Message{
		Kind: kind, Src: from, Dst: m.Src, Addr: m.Addr, Seq: m.Seq,
	})
}

func (r *arbiterRig) request(starver msg.NodeID, b msg.Block) {
	p := msg.Port{Node: starver, Unit: msg.UnitCache}
	r.sys.Net.Send(msg.Message{
		Kind: msg.KindPersistentReq, Src: p, Dst: r.arb.Port(),
		Addr: b.Base(), Requester: p,
	})
}

func (r *arbiterRig) deactivate(starver msg.NodeID, b msg.Block) {
	p := msg.Port{Node: starver, Unit: msg.UnitCache}
	r.sys.Net.Send(msg.Message{
		Kind: msg.KindPersistentDeactivate, Src: p, Dst: r.arb.Port(),
		Addr: b.Base(),
	})
}

func TestArbiterActivatesAndInformsEveryNode(t *testing.T) {
	r := newArbiterRig(t, 4)
	r.request(2, 16) // block 16: home is node 0 (16 % 4 == 0)
	r.sys.K.Run()
	// 4 caches + home memory = 5 activation deliveries.
	if len(r.acts) != 5 {
		t.Fatalf("activation reached %d ports, want 5", len(r.acts))
	}
	for _, a := range r.acts {
		if a.Requester.Node != 2 {
			t.Errorf("activation names requester %v, want node 2", a.Requester)
		}
	}
	if r.arb.phase != arbActive {
		t.Errorf("arbiter phase = %d, want active", r.arb.phase)
	}
	if r.arb.Activations != 1 {
		t.Errorf("Activations = %d, want 1", r.arb.Activations)
	}
}

func TestArbiterDeactivationRoundTrip(t *testing.T) {
	r := newArbiterRig(t, 4)
	r.request(1, 16)
	r.sys.K.Run()
	r.deactivate(1, 16)
	r.sys.K.Run()
	if len(r.deas) != 5 {
		t.Fatalf("deactivation reached %d ports, want 5", len(r.deas))
	}
	if r.arb.phase != arbIdle || r.arb.QueueLen() != 0 {
		t.Errorf("arbiter not idle after deactivation: phase=%d queue=%d", r.arb.phase, r.arb.QueueLen())
	}
}

func TestArbiterServesQueueInFIFOOrder(t *testing.T) {
	r := newArbiterRig(t, 4)
	r.request(1, 16)
	r.request(3, 20) // queued behind node 1's request
	r.sys.K.Run()
	if r.arb.QueueLen() != 1 {
		t.Fatalf("queue length = %d, want 1 (one active, one queued)", r.arb.QueueLen())
	}
	if r.acts[0].Requester.Node != 1 {
		t.Fatalf("first activation for node %d, want 1 (FIFO)", r.acts[0].Requester.Node)
	}
	first := len(r.acts)
	r.deactivate(1, 16)
	r.sys.K.Run()
	if len(r.acts) != first+5 {
		t.Fatalf("second request not activated after first deactivated")
	}
	if r.acts[first].Requester.Node != 3 {
		t.Errorf("second activation for node %d, want 3", r.acts[first].Requester.Node)
	}
	if r.arb.Activations != 2 {
		t.Errorf("Activations = %d, want 2", r.arb.Activations)
	}
}

func TestArbiterDeactivateWhileActivating(t *testing.T) {
	// Withhold automatic acks so the arbiter stays in the activating
	// phase, then deliver the deactivation request: it must be held until
	// all activate acks arrive (the paper's "to avoid races" acks).
	r := newArbiterRig(t, 4)
	r.autoAck = false
	r.request(2, 16)
	r.sys.K.Run()
	if r.arb.phase != arbActivating {
		t.Fatalf("phase = %d, want activating (acks withheld)", r.arb.phase)
	}
	r.deactivate(2, 16)
	r.sys.K.Run()
	if r.arb.phase != arbActivating || len(r.deas) != 0 {
		t.Fatal("deactivation broadcast before activation was fully acknowledged")
	}
	// Now deliver the missing acks.
	for _, a := range r.acts {
		r.ack(a.Dst, &a, msg.KindPersistentActivateAck)
	}
	r.autoAck = true
	r.sys.K.Run()
	if len(r.deas) != 5 {
		t.Fatalf("deactivation did not proceed after acks: %d deliveries", len(r.deas))
	}
	if r.arb.phase != arbIdle {
		t.Errorf("phase = %d, want idle", r.arb.phase)
	}
}

func TestArbiterRejectsMismatchedDeactivation(t *testing.T) {
	r := newArbiterRig(t, 4)
	r.request(1, 16)
	r.sys.K.Run()
	defer func() {
		if recover() == nil {
			t.Error("mismatched deactivation did not panic")
		}
	}()
	// Node 3 never held the active request.
	r.deactivate(3, 16)
	r.sys.K.Run()
}

func TestArbiterRejectsSpuriousDeactivation(t *testing.T) {
	r := newArbiterRig(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("deactivation with no active request did not panic")
		}
	}()
	r.deactivate(1, 16)
	r.sys.K.Run()
}

func TestArbiterHandlesManyBlocksSequentially(t *testing.T) {
	// One arbiter serializes persistent requests even for different
	// blocks (the paper's simple centralized-per-home scheme); all must
	// eventually activate.
	r := newArbiterRig(t, 4)
	blocks := []msg.Block{16, 20, 24, 28}
	for i, b := range blocks {
		r.request(msg.NodeID(i%4), b)
	}
	for _, b := range blocks {
		r.sys.K.Run()
		// Deactivate whatever is currently active.
		cur := r.acts[len(r.acts)-1]
		if msg.BlockOf(cur.Addr) != b {
			t.Fatalf("activation order mismatch: got block %d, want %d", msg.BlockOf(cur.Addr), b)
		}
		r.deactivate(cur.Requester.Node, b)
	}
	r.sys.K.Run()
	if r.arb.Activations != 4 {
		t.Errorf("Activations = %d, want 4", r.arb.Activations)
	}
	_ = sim.Time(0)
}
