package trace

import (
	"bytes"
	"strings"
	"testing"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// feed drives a deterministic little event history through an observer.
func feed(o stats.Observer, n int) {
	for i := 1; i <= n; i++ {
		at := sim.Time(i) * 10 * sim.Nanosecond
		o.On(stats.Event{Kind: stats.MissIssued, Node: int32(i % 4), Block: msg.Block(i % 8), Flag: i%2 == 0, At: at})
		o.On(stats.Event{Kind: stats.Reissued, Node: int32(i % 4), Block: msg.Block(i % 8), N: 1, At: at + sim.Nanosecond})
		o.On(stats.Event{Kind: stats.TokensTransferred, Node: int32(i % 4), Block: msg.Block(i % 8), N: 3, At: at + 2*sim.Nanosecond})
		o.On(stats.Event{Kind: stats.MissCompleted, Node: int32(i % 4), Block: msg.Block(i % 8), N: 1, Aux: 5 * sim.Nanosecond})
	}
}

// TestRecorderRingWrap checks the ring keeps exactly the newest Size
// records, oldest first, and counts evicted events in Total.
func TestRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Size: 4, Deadline: -1})
	o := r.Observer()
	for i := 1; i <= 10; i++ {
		o.On(stats.Event{Kind: stats.Reissued, Block: msg.Block(1), N: int32(i), At: sim.Time(i) * sim.Nanosecond})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	recs := r.Records()
	for i, want := range []int32{7, 8, 9, 10} {
		if recs[i].Kind != stats.Reissued || recs[i].N != want {
			t.Errorf("record %d = %+v, want attempt %d", i, recs[i], want)
		}
	}
}

// TestRecorderPartialFill checks a ring that never wrapped dumps only
// what it holds.
func TestRecorderPartialFill(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Size: 64, Deadline: -1})
	feed(r.Observer(), 3)
	if r.Len() != 12 || r.Total() != 12 {
		t.Fatalf("Len/Total = %d/%d, want 12/12", r.Len(), r.Total())
	}
	if recs := r.Records(); recs[0].Kind != stats.MissIssued {
		t.Errorf("first retained record = %v, want MissIssued", recs[0].Kind)
	}
}

// TestRecorderDeadlineTrip checks a transaction over the starvation
// deadline dumps the ring exactly once (the default dump budget).
func TestRecorderDeadlineTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewFlightRecorder(RecorderConfig{Size: 16, Deadline: 100 * sim.Nanosecond, Out: &buf, Label: "unit/test"})
	o := r.Observer()
	o.On(stats.Event{Kind: stats.MissIssued, Node: 2, Block: 5, Flag: true, At: 10 * sim.Nanosecond})
	o.On(stats.Event{Kind: stats.MissCompleted, Node: 2, Block: 5, Aux: 50 * sim.Nanosecond}) // under deadline
	if buf.Len() != 0 {
		t.Fatalf("dumped under the deadline:\n%s", buf.String())
	}
	o.On(stats.Event{Kind: stats.MissIssued, Node: 3, Block: 6, At: 60 * sim.Nanosecond})
	o.On(stats.Event{Kind: stats.MissCompleted, Node: 3, Block: 6, N: 2, Flag: true, Aux: 250 * sim.Nanosecond}) // over deadline
	dump := buf.String()
	if dump == "" {
		t.Fatal("no dump after exceeding the deadline")
	}
	for _, want := range []string{
		"flight recorder: transaction exceeded starvation deadline",
		"proc 3 block 0x6",
		"point: unit/test",
		"last 4 of 4 protocol events",
		"MissIssued proc=2 block=0x5 write",
		"MissCompleted proc=3 block=0x6 reissues=2 persistent=true",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump lacks %q:\n%s", want, dump)
		}
	}
	// Budget spent: a second overrun must not dump again.
	buf.Reset()
	o.On(stats.Event{Kind: stats.MissCompleted, Node: 3, Block: 6, N: 3, Flag: true, Aux: 300 * sim.Nanosecond})
	if buf.Len() != 0 {
		t.Errorf("second dump despite exhausted budget:\n%s", buf.String())
	}
}

// TestRecorderDumpDeterministic checks identical event histories render
// byte-identical dumps.
func TestRecorderDumpDeterministic(t *testing.T) {
	render := func() string {
		r := NewFlightRecorder(RecorderConfig{Size: 32, Deadline: -1, Label: "det/test"})
		feed(r.Observer(), 10)
		var buf bytes.Buffer
		r.WriteTo(&buf, "forced")
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("dumps differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "TokensTransferred proc=1 block=0x1 tokens=3") {
		t.Errorf("unexpected dump content:\n%s", a)
	}
}

// TestRecorderZeroAllocs is the flight-recorder half of the alloc gate:
// with the recorder armed, steady-state recording allocates nothing.
func TestRecorderZeroAllocs(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Size: DefaultRecorderSize, Hops: true})
	o := r.Observer()
	feed(o, 8) // warm any lazy paths
	allocs := testing.AllocsPerRun(100, func() {
		o.On(stats.Event{Kind: stats.MissIssued, Node: 1, Block: 2, Flag: true, At: 30 * sim.Nanosecond})
		o.On(stats.Event{Kind: stats.Reissued, Node: 1, Block: 2, N: 1, At: 31 * sim.Nanosecond})
		o.On(stats.Event{Kind: stats.PersistentActivated, Block: 2, At: 32 * sim.Nanosecond})
		o.On(stats.Event{Kind: stats.PersistentDeactivated, Block: 2, At: 33 * sim.Nanosecond})
		o.On(stats.Event{Kind: stats.TokensTransferred, Node: 1, Block: 2, N: 4, At: 34 * sim.Nanosecond})
		o.On(stats.Event{Kind: stats.NetworkHop, Node: 7, Cat: msg.CatData, N: 72, At: 35 * sim.Nanosecond})
		o.On(stats.Event{Kind: stats.MissCompleted, Node: 1, Block: 2, N: 1, Aux: 5 * sim.Nanosecond})
		o.On(stats.Event{Kind: stats.MeasurementStarted, At: 36 * sim.Nanosecond})
	})
	if allocs != 0 {
		t.Errorf("recording allocates %.1f per event burst, want 0", allocs)
	}
}

// TestRecorderNilSafety checks the nil recorder is valid and inert, as
// the machine relies on when the recorder is disabled.
func TestRecorderNilSafety(t *testing.T) {
	var r *FlightRecorder
	r.Trip("nothing should happen")
	r.SetLabel("ignored")
	if r.Observer().Kinds != 0 {
		t.Error("nil recorder subscribes to events")
	}
	if r.Len() != 0 || r.Total() != 0 || len(r.Records()) != 0 {
		t.Error("nil recorder reports retained records")
	}
}

// TestRecorderHopsOptIn checks hop recording is off by default (hops
// would evict the protocol history) and available on request.
func TestRecorderHopsOptIn(t *testing.T) {
	if o := NewFlightRecorder(RecorderConfig{}).Observer(); o.Kinds.Has(stats.NetworkHop) {
		t.Error("default recorder subscribes to NetworkHop")
	}
	o := NewFlightRecorder(RecorderConfig{Hops: true}).Observer()
	if !o.Kinds.Has(stats.NetworkHop) {
		t.Fatal("Hops recorder does not subscribe to NetworkHop")
	}
}
