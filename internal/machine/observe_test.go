package machine

import (
	"reflect"
	"testing"

	"tokencoherence/internal/interconnect"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/trace"
)

// newObservedSystem builds a 4-processor system without a flight
// recorder (so only the test's observers subscribe), node 0's cache
// controller, and a message sink on node 1.
func newObservedSystem(t *testing.T) (*System, *CacheBase, *hookRecorder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Procs = 4
	cfg.RecorderSize = -1
	sys := NewSystem(cfg, topology.NewTorusFor(4), 7)
	h := &hookRecorder{}
	b := &CacheBase{}
	b.InitBase(sys, 0, h)
	h.base = b
	sys.Net.Register(msg.Port{Node: 1, Unit: msg.UnitCache}, interconnect.HandlerFunc(func(*msg.Message) {}))
	return sys, b, h
}

// fireMissAndHop drives one miss through b (MissIssued, MissCompleted)
// and then one unicast message across a link (NetworkHop), leaving the
// events in the island journals.
func fireMissAndHop(sys *System, b *CacheBase, h *hookRecorder) {
	b.Access(Op{Addr: msg.Block(9).Base()}, func() {})
	l := b.EnsureL2(9)
	l.State, l.Valid = 1, true
	b.CompleteMiss(h.misses[0])
	sys.Net.Send(msg.Message{
		Src: msg.Port{Node: 0, Unit: msg.UnitCache},
		Dst: msg.Port{Node: 1, Unit: msg.UnitCache},
	})
	sys.K.Run()
}

// TestObserveSparseSubscription checks an observer masked to
// MissCompleted receives nothing else, and that events nobody
// subscribes to never reach the island journal.
func TestObserveSparseSubscription(t *testing.T) {
	sys, b, h := newObservedSystem(t)
	var got []stats.Event
	sys.Observe(stats.Observer{Kinds: stats.MaskOf(stats.MissCompleted), On: func(ev stats.Event) { got = append(got, ev) }})
	sys.Observe(stats.Observer{}) // subscribes to nothing: not attached
	fireMissAndHop(sys, b, h)
	if v, _ := sys.Metrics.Value("bytes_total"); v == 0 {
		t.Fatal("the message crossed no link")
	}
	journaled := 0
	for _, isle := range sys.Isles {
		for _, r := range isle.jr.recs {
			journaled++
			if r.ev.Kind != stats.MissCompleted {
				t.Errorf("journal holds unsubscribed %v", r.ev.Kind)
			}
		}
	}
	if journaled != 1 {
		t.Errorf("journal holds %d events, want the one MissCompleted", journaled)
	}
	sys.replayJournals()
	sys.dispatch(stats.Event{Kind: stats.MeasurementStarted})
	// The miss issued and completed at time zero, so At and Aux are zero.
	want := []stats.Event{{Kind: stats.MissCompleted, Block: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observer received %+v, want %+v", got, want)
	}
	if len(sys.observers) != 1 {
		t.Errorf("%d observers attached, want 1 (the zero Observer is a no-op)", len(sys.observers))
	}
}

// TestObserveFanOut checks every event reaches each subscribing
// observer exactly once, in attach order.
func TestObserveFanOut(t *testing.T) {
	sys, b, h := newObservedSystem(t)
	var order []string
	attach := func(name string, kinds stats.Mask) {
		sys.Observe(stats.Observer{Kinds: kinds, On: func(ev stats.Event) { order = append(order, name+"."+ev.Kind.String()) }})
	}
	attach("a", stats.AllKinds)
	attach("b", stats.MaskOf(stats.MissCompleted, stats.MeasurementStarted))
	attach("c", stats.MaskOf(stats.MissIssued, stats.MissCompleted, stats.NetworkHop))
	fireMissAndHop(sys, b, h)
	sys.replayJournals()
	sys.dispatch(stats.Event{Kind: stats.MeasurementStarted})
	want := []string{
		"a.MissIssued", "c.MissIssued",
		"a.MissCompleted", "b.MissCompleted", "c.MissCompleted",
		"a.NetworkHop", "c.NetworkHop",
		"a.MeasurementStarted", "b.MeasurementStarted",
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("dispatch order %v, want %v", order, want)
	}
}

// bouncer forwards every message it receives to the next node's cache,
// keeping a constant population of messages crossing links.
type bouncer struct {
	net   *interconnect.Network
	id    msg.NodeID
	nodes int
}

func (b *bouncer) Handle(m *msg.Message) {
	b.net.Send(msg.Message{
		Kind: msg.KindGetS, Cat: msg.CatRequest,
		Src: msg.Port{Node: b.id, Unit: msg.UnitCache},
		Dst: msg.Port{Node: (b.id + 1) % msg.NodeID(b.nodes), Unit: msg.UnitCache},
	})
}

// TestObservationPathZeroAllocs is the allocation gate for the whole
// observation path: Events fired at the interconnect's hop site and at
// the island's protocol-event subscription, journaled, merged and
// replayed at a barrier into the system's flight recorder, a second
// hop-recording flight recorder, and a counting observer must allocate
// nothing in steady state.
func TestObservationPathZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs = 16
	sys := NewSystem(cfg, topology.NewTorus(4, 4), 1)
	hopRec := trace.NewFlightRecorder(trace.RecorderConfig{Hops: true, Deadline: -1})
	sys.Observe(hopRec.Observer())
	var counted [stats.MeasurementStarted + 1]int
	sys.Observe(stats.Observer{Kinds: stats.AllKinds, On: func(ev stats.Event) { counted[ev.Kind]++ }})
	sys.armIsles()
	for i := 0; i < cfg.Procs; i++ {
		sys.Net.Register(msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache},
			&bouncer{net: sys.Net, id: msg.NodeID(i), nodes: cfg.Procs})
	}
	for i := 0; i < cfg.Procs; i++ {
		(&bouncer{net: sys.Net, id: msg.NodeID(i), nodes: cfg.Procs}).Handle(nil)
	}
	isle := sys.Isles[0]
	window := func() {
		sys.K.RunUntil(sys.K.Now() + 100*sim.Nanosecond)
		for k := stats.MissIssued; k < stats.NetworkHop; k++ {
			if o := &isle.Obs; o.Kinds.Has(k) {
				o.On(stats.Event{Kind: k, At: sys.K.Now(), Node: 3, Block: 42, N: 1, Aux: sim.Nanosecond})
			}
		}
		sys.replayJournals()
		sys.dispatch(stats.Event{Kind: stats.MeasurementStarted, At: sys.K.Now()})
	}
	for i := 0; i < 50; i++ {
		window() // grow the journal and warm the network op pools
	}
	allocs := testing.AllocsPerRun(100, window)
	if allocs != 0 {
		t.Errorf("observation path allocates %.1f per window, want 0", allocs)
	}
	for k, n := range counted {
		if n == 0 {
			t.Errorf("counting observer saw no %v", stats.Kind(k))
		}
	}
	if hopRec.Total() <= sys.Recorder.Total() {
		t.Errorf("hop recorder holds %d events, protocol recorder %d: hops not recorded", hopRec.Total(), sys.Recorder.Total())
	}
}
