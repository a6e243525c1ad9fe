package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// DefaultRecorderSize is the flight recorder ring capacity when the
// configuration leaves it zero: large enough to hold the full causal
// neighborhood of a failure (a 256-proc broadcast and its responses fit
// several times over), small enough that the always-armed recorder costs
// ~20 kB per system.
const DefaultRecorderSize = 512

// DefaultStarvationDeadline is the per-transaction latency at which the
// recorder trips when the configuration leaves the deadline zero. Token
// Coherence bounds every miss by the persistent-request mechanism, so in
// a healthy run even the most contended miss resolves in microseconds;
// 50 simulated milliseconds is three-plus orders of magnitude past any
// latency the Table 1 machine produces and only a starved or livelocked
// transaction can reach it.
const DefaultStarvationDeadline = 50 * sim.Millisecond

// RecorderConfig parameterizes NewFlightRecorder. The zero value is a
// usable default (512-record ring, 50 ms starvation deadline, dumps to
// stderr, protocol events only).
type RecorderConfig struct {
	// Size is the ring capacity in records (0 = DefaultRecorderSize).
	Size int
	// Deadline trips a dump when a completed transaction's latency
	// reaches it (0 = DefaultStarvationDeadline, negative = no deadline).
	Deadline sim.Time
	// Out receives dumps (nil = os.Stderr). Each dump is one Write call,
	// so a shared Out needs only per-Write serialization (NewSyncWriter).
	Out io.Writer
	// Label identifies the run in dump headers, e.g. the sweep point.
	Label string
	// Hops also records per-link NetworkHop events. Off by default: hops
	// outnumber protocol events ~100:1 and would evict the transaction
	// history a dump exists to show.
	Hops bool
}

// FlightRecorder keeps the last Size protocol events in a fixed ring so
// that when a run fails — safety-oracle violation, deadlock, starvation
// deadline — the events leading up to the failure can be dumped without
// having traced the run from the start. It is cheap enough to arm
// always: recording is one Event copy into a preallocated ring slot,
// with zero steady-state allocations (verified by an AllocsPerRun gate),
// and events it does not subscribe to stay on the fire sites' one-mask-
// test fast path.
//
// A FlightRecorder belongs to one System and, like the rest of a
// system's single-threaded simulation, is not safe for concurrent use.
// The nil *FlightRecorder is valid and inert.
type FlightRecorder struct {
	ring     []stats.Event
	total    uint64
	deadline sim.Time
	out      io.Writer
	label    string
	hops     bool
	// dumped marks the one dump a recorder makes: a failing run produces
	// one dump, not one per starved miss.
	dumped bool
}

// NewFlightRecorder builds a recorder; see RecorderConfig for defaults.
func NewFlightRecorder(cfg RecorderConfig) *FlightRecorder {
	size := cfg.Size
	if size == 0 {
		size = DefaultRecorderSize
	}
	if size < 0 {
		panic("trace: negative recorder size (disable by not constructing one)")
	}
	deadline := cfg.Deadline
	if deadline == 0 {
		deadline = DefaultStarvationDeadline
	}
	if deadline < 0 {
		deadline = 0 // no deadline
	}
	return &FlightRecorder{
		ring:     make([]stats.Event, size),
		deadline: deadline,
		out:      cfg.Out,
		label:    cfg.Label,
		hops:     cfg.Hops,
	}
}

// SetLabel sets the identity printed in dump headers. The engine labels
// each point's recorder with the point's protocol/topology/workload/seed
// once the system is assembled.
func (r *FlightRecorder) SetLabel(label string) {
	if r != nil {
		r.label = label
	}
}

// Observer returns the recorder's event subscription for System.Observe:
// every protocol event, plus NetworkHop with RecorderConfig.Hops. The
// nil recorder subscribes to nothing.
func (r *FlightRecorder) Observer() stats.Observer {
	if r == nil {
		return stats.Observer{}
	}
	return stats.Observer{Kinds: subscription(r.hops), On: r.record}
}

// record copies ev into the next ring slot, evicting the oldest on wrap,
// and trips a dump when a completed transaction overran the deadline.
func (r *FlightRecorder) record(ev stats.Event) {
	r.ring[r.total%uint64(len(r.ring))] = ev
	r.total++
	if ev.Kind == stats.MissCompleted && r.deadline > 0 && ev.Aux >= r.deadline {
		r.Trip(fmt.Sprintf("transaction exceeded starvation deadline: proc %d block %#x took %s (deadline %s, reissues %d, persistent %t)",
			ev.Node, uint64(ev.Block), usString(ev.Aux), usString(r.deadline), ev.N, ev.Flag))
	}
}

// Len reports how many records the ring currently holds.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	if r.total < uint64(len(r.ring)) {
		return int(r.total)
	}
	return len(r.ring)
}

// Total reports how many events were recorded over the recorder's life,
// including those the ring has since evicted.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Records returns a copy of the retained events, oldest first.
func (r *FlightRecorder) Records() []stats.Event {
	n := r.Len()
	out := make([]stats.Event, n)
	for i := 0; i < n; i++ {
		out[i] = *r.at(i)
	}
	return out
}

// at returns the i-th retained event, oldest first.
func (r *FlightRecorder) at(i int) *stats.Event {
	start := uint64(0)
	if r.total > uint64(len(r.ring)) {
		start = r.total % uint64(len(r.ring))
	}
	return &r.ring[(start+uint64(i))%uint64(len(r.ring))]
}

// Trip dumps the ring to the configured output unless the recorder has
// dumped already. The machine trips it on deadlock and on safety-oracle
// failure; the recorder trips itself on a starvation-deadline overrun.
// The whole dump is issued as one Write so concurrent runs sharing an
// output (through NewSyncWriter) interleave dumps, never lines. Safe on
// a nil receiver.
func (r *FlightRecorder) Trip(reason string) {
	if r == nil || r.dumped {
		return
	}
	r.dumped = true
	var buf bytes.Buffer
	r.WriteTo(&buf, reason)
	out := r.out
	if out == nil {
		out = os.Stderr
	}
	out.Write(buf.Bytes()) //nolint:errcheck // best-effort failure diagnostics
}

// WriteTo renders the dump: a header with the reason and run label, then
// the retained records oldest first. Output is deterministic for a
// deterministic event history.
func (r *FlightRecorder) WriteTo(w io.Writer, reason string) {
	if r == nil {
		return
	}
	b := make([]byte, 0, 64*(r.Len()+3))
	b = append(b, "flight recorder: "...)
	b = append(b, reason...)
	b = append(b, '\n')
	if r.label != "" {
		b = fmt.Appendf(b, "  point: %s\n", r.label)
	}
	b = fmt.Appendf(b, "  last %d of %d protocol events, oldest first:\n", r.Len(), r.total)
	for i := 0; i < r.Len(); i++ {
		b = appendEvent(b, r.at(i))
	}
	w.Write(b) //nolint:errcheck // best-effort failure diagnostics
}
