// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is single threaded: components schedule events (closures) at
// absolute simulated times and the kernel executes them in time order.
// Ties break by the event's (time, actor, per-actor sequence) stamp: the
// actor whose event scheduled it and that actor's private count of
// schedules. The stamp does not depend on how actors are split into
// islands, so runs are bit-reproducible serially and at any island
// count.
// All randomness used by simulation components must come from Source
// values seeded from the run configuration.
package sim

import "fmt"

// Time is an absolute simulated time in picoseconds.
//
// Picosecond granularity keeps link serialization exact: an 8-byte
// control message on a 3.2 GB/s link occupies the link for exactly
// 2500 ps, which nanosecond granularity would have to round.
type Time int64

// Common durations expressed in Time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a time later than any time a simulation will reach.
const Forever Time = 1<<63 - 1

// Nanoseconds reports t as a floating point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	}
}
