// Package trace is the simulator's transaction-level observability
// layer. Its two types subscribe to the simulation's stats.Events
// through a stats.Observer and keep what they receive:
//
//   - Tracer stitches the per-miss event stream (MissIssued → Reissued*
//     → TokensTransferred → MissCompleted, with persistent-request
//     activity and optional per-link hops alongside) into spans keyed by
//     (proc, block) and exports Chrome/Perfetto trace-event JSON, so a
//     single transaction's causal life is visible on a timeline.
//   - FlightRecorder is an always-armed, fixed-size ring buffer of the
//     most recent protocol events. Recording is allocation-free after
//     construction; the ring is dumped — once, human-readably, in a
//     single Write — when a run fails its safety checks or a
//     transaction exceeds a starvation deadline.
//
// Both attach through System.Observe and therefore compose with metric
// probes and with each other; neither perturbs simulated time, so traced
// runs remain byte-identical to untraced ones.
package trace

import (
	"fmt"
	"io"
	"sync"

	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// subscription is the event set the tracer and the recorder keep: every
// protocol event, plus NetworkHop when hops is set.
func subscription(hops bool) stats.Mask {
	if hops {
		return stats.AllKinds
	}
	return stats.ProtocolKinds
}

// appendEvent renders ev as one human-readable dump line.
func appendEvent(b []byte, ev *stats.Event) []byte {
	b = append(b, "    t="...)
	b = append(b, usString(ev.At)...)
	b = append(b, ' ')
	b = append(b, ev.Kind.String()...)
	switch ev.Kind {
	case stats.MissIssued:
		op := "read"
		if ev.Flag {
			op = "write"
		}
		b = fmt.Appendf(b, " proc=%d block=%#x %s", ev.Node, uint64(ev.Block), op)
	case stats.MissCompleted:
		b = fmt.Appendf(b, " proc=%d block=%#x reissues=%d persistent=%t latency=%s",
			ev.Node, uint64(ev.Block), ev.N, ev.Flag, usString(ev.Aux))
	case stats.Reissued:
		b = fmt.Appendf(b, " proc=%d block=%#x attempt=%d", ev.Node, uint64(ev.Block), ev.N)
	case stats.PersistentActivated, stats.PersistentDeactivated:
		b = fmt.Appendf(b, " home=%d block=%#x", ev.Node, uint64(ev.Block))
	case stats.TokensTransferred:
		b = fmt.Appendf(b, " proc=%d block=%#x tokens=%d", ev.Node, uint64(ev.Block), ev.N)
	case stats.NetworkHop:
		b = fmt.Appendf(b, " link=%d cat=%s bytes=%d", ev.Node, ev.Cat.Slug(), ev.N)
	}
	return append(b, '\n')
}

// usString formats a picosecond time as decimal microseconds with fixed
// six-digit precision. Unlike floating-point formatting it is exact, so
// trace output derived from it is byte-deterministic.
func usString(t sim.Time) string {
	return fmt.Sprintf("%d.%06dus", int64(t)/1_000_000, int64(t)%1_000_000)
}

// syncWriter serializes whole-buffer writes from concurrent goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// NewSyncWriter wraps w so that each Write call runs under a mutex.
// Writers that emit whole lines (or whole dumps) in a single Write can
// then share it across goroutines without tearing each other's output:
// the sweep command hands one to the engine's progress printer and to
// every point's flight recorder, which otherwise race from the collector
// and worker goroutines respectively. Wrapping an already-wrapped writer
// returns it unchanged.
func NewSyncWriter(w io.Writer) io.Writer {
	if sw, ok := w.(*syncWriter); ok {
		return sw
	}
	return &syncWriter{w: w}
}
