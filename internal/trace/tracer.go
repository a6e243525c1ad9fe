package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// TracerConfig parameterizes NewTracer. The zero value traces protocol
// events only.
type TracerConfig struct {
	// Hops also emits an instant event per interconnect link traversal.
	// Off by default: a traced point's hop events outnumber its protocol
	// events ~100:1 and inflate the JSON accordingly.
	Hops bool
}

// Tracer stitches a system's observer event stream into per-transaction
// spans and exports them as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load). Each coherence miss becomes one
// complete ("X") span on the issuing processor's row, opened by
// MissIssued and closed by MissCompleted, keyed by (proc, block) — a
// processor's MSHRs never hold two misses for one block, so the key is
// unique among open transactions. Reissues and token arrivals for an
// open transaction, persistent (de)activations at the arbiters, and
// (optionally) link hops appear as instant events alongside.
//
// A tracer buffers events in memory and honors the warmup boundary: when
// MeasurementStarted fires it discards everything buffered, so the
// exported spans are exactly the measured interval's misses and
// Spans() equals the run's misses metric. Attach before Execute via
// System.Observe. Like the system it observes, a Tracer is
// single-threaded; under the parallel engine each point gets its own.
type Tracer struct {
	hops   bool
	events []entry
	// open maps an in-flight transaction to its span's index in events;
	// openPreReset marks transactions issued before the warmup boundary,
	// whose spans were discarded and whose completion must not count.
	open  map[spanKey]int
	spans int
}

const openPreReset = -1

type spanKey struct {
	proc  int32
	block msg.Block
}

// entry is one buffered event. A MissIssued entry is its transaction's
// span: its completion fills in Aux (the latency; -1 while open) and N
// (the reissue count), and persistent keeps the completion's Flag, since
// the Event's own Flag is the issue's write bit.
type entry struct {
	stats.Event
	persistent bool
}

// NewTracer builds an empty tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{hops: cfg.Hops, open: make(map[spanKey]int)}
}

// Observer returns the tracer's event subscription for System.Observe:
// every protocol event, plus NetworkHop with TracerConfig.Hops.
func (t *Tracer) Observer() stats.Observer {
	if t == nil {
		return stats.Observer{}
	}
	return stats.Observer{Kinds: subscription(t.hops), On: t.record}
}

// record buffers ev, opening a span at MissIssued and closing it at the
// matching MissCompleted.
func (t *Tracer) record(ev stats.Event) {
	key := spanKey{ev.Node, ev.Block}
	switch ev.Kind {
	case stats.MissIssued:
		t.open[key] = len(t.events)
		ev.Aux = -1
	case stats.MissCompleted:
		idx, ok := t.open[key]
		if !ok {
			return // issued before the tracer attached
		}
		delete(t.open, key)
		if idx == openPreReset {
			return // issued before the warmup boundary: not a measured miss
		}
		span := &t.events[idx]
		span.Aux, span.N, span.persistent = ev.Aux, ev.N, ev.Flag
		t.spans++
		return
	case stats.Reissued:
		if idx, ok := t.open[key]; ok && idx == openPreReset {
			return
		}
	case stats.TokensTransferred:
		// Token arrivals matter on a timeline as the resolution of an
		// open transaction; arrivals outside any transaction (writeback
		// acks, background token shuffling) would only add noise.
		if idx, ok := t.open[key]; !ok || idx == openPreReset {
			return
		}
	case stats.MeasurementStarted:
		// Warmup traffic is methodology, not measurement: discard it and
		// remember which transactions straddle the boundary so their
		// completions do not count as measured spans.
		t.events = t.events[:0]
		t.spans = 0
		for key := range t.open {
			t.open[key] = openPreReset
		}
	}
	t.events = append(t.events, entry{Event: ev})
}

// Spans reports the number of completed transaction spans buffered, i.e.
// the misses completed since the warmup boundary. It equals the misses
// metric once the run finishes (every measured miss completes — the run
// would otherwise have deadlocked).
func (t *Tracer) Spans() int { return t.spans }

// Events reports the total number of buffered trace events.
func (t *Tracer) Events() int { return len(t.events) }

// Process/thread IDs structuring the exported trace: processors (one
// thread per proc), arbiters (one thread per home), and — with Hops —
// the interconnect (one thread per link).
const (
	pidProcs = 0
	pidArbs  = 1
	pidNet   = 2
)

// chromeEvent is one trace-event object in Chrome's JSON format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   json.Number    `json:"ts"`
	Dur  json.Number    `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// tsNumber renders a picosecond time as the trace format's microsecond
// timestamp, exactly (decimal string, never floating point), so emitted
// traces are byte-deterministic.
func tsNumber(t sim.Time) json.Number {
	return json.Number(fmt.Sprintf("%d.%06d", int64(t)/1_000_000, int64(t)%1_000_000))
}

// Export serializes the buffered events as a Chrome trace-event JSON
// object. Events appear in buffer order (simulation order), timestamps
// are exact decimal microseconds, and JSON object keys are emitted in a
// fixed order, so for a fixed (point, seed) the bytes are identical at
// any engine parallelism. Spans still open at serialization time — only
// possible in a failed run — are emitted as unclosed "B" events, which
// Perfetto renders as unfinished slices.
func (t *Tracer) Export(w io.Writer) error {
	out := chromeTrace{
		DisplayTimeUnit: "ns",
		TraceEvents:     make([]chromeEvent, 0, len(t.events)+3),
	}
	meta := func(pid int, name string) {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Ts: "0", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	meta(pidProcs, "processors")
	meta(pidArbs, "arbiters")
	if t.hops {
		meta(pidNet, "network")
	}
	for i := range t.events {
		ev := &t.events[i]
		var ce chromeEvent
		switch ev.Kind {
		case stats.MissIssued:
			name := "GetS"
			if ev.Flag {
				name = "GetM"
			}
			ce = chromeEvent{
				Name: fmt.Sprintf("%s %#x", name, uint64(ev.Block)),
				Cat:  "miss", Ts: tsNumber(ev.At), Pid: pidProcs, Tid: int(ev.Node),
				Args: map[string]any{"block": uint64(ev.Block), "write": ev.Flag},
			}
			if ev.Aux >= 0 {
				ce.Ph = "X"
				ce.Dur = tsNumber(ev.Aux)
				ce.Args["reissues"] = ev.N
				ce.Args["persistent"] = ev.persistent
			} else {
				ce.Ph = "B" // still open: unfinished slice
			}
		case stats.Reissued:
			ce = chromeEvent{
				Name: fmt.Sprintf("reissue #%d", ev.N),
				Cat:  "reissue", Ph: "i", S: "t",
				Ts: tsNumber(ev.At), Pid: pidProcs, Tid: int(ev.Node),
				Args: map[string]any{"block": uint64(ev.Block)},
			}
		case stats.PersistentActivated, stats.PersistentDeactivated:
			verb := "activate"
			if ev.Kind == stats.PersistentDeactivated {
				verb = "deactivate"
			}
			ce = chromeEvent{
				Name: fmt.Sprintf("persistent %s %#x", verb, uint64(ev.Block)),
				Cat:  "persistent", Ph: "i", S: "t",
				Ts: tsNumber(ev.At), Pid: pidArbs, Tid: int(ev.Node),
				Args: map[string]any{"block": uint64(ev.Block)},
			}
		case stats.TokensTransferred:
			ce = chromeEvent{
				Name: fmt.Sprintf("tokens +%d", ev.N),
				Cat:  "tokens", Ph: "i", S: "t",
				Ts: tsNumber(ev.At), Pid: pidProcs, Tid: int(ev.Node),
				Args: map[string]any{"block": uint64(ev.Block), "tokens": ev.N},
			}
		case stats.NetworkHop:
			ce = chromeEvent{
				Name: ev.Cat.Slug(),
				Cat:  "hop", Ph: "i", S: "t",
				Ts: tsNumber(ev.At), Pid: pidNet, Tid: int(ev.Node),
				Args: map[string]any{"bytes": ev.N},
			}
		case stats.MeasurementStarted:
			ce = chromeEvent{
				Name: "measurement start", Cat: "machine", Ph: "i", S: "g",
				Ts: tsNumber(ev.At), Pid: pidProcs, Tid: 0,
			}
		default:
			continue
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}
