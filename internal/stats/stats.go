// Package stats collects the measurements the paper reports: traffic on
// the interconnect broken down by message category (Figures 4b, 5b),
// miss/reissue/persistent-request classification (Table 2), and runtime
// in cycles per transaction (Figures 4a, 5a).
package stats

import (
	"fmt"
	"math"
	"sort"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// Traffic accumulates bytes placed on interconnect links, weighted by the
// number of link traversals (a broadcast pays once per multicast-tree
// edge, exactly as the paper charges it).
type Traffic struct {
	bytes    [msg.NumCategories]uint64
	messages [msg.NumCategories]uint64
}

// Record notes that m crossed `links` interconnect links.
func (t *Traffic) Record(m *msg.Message, links int) {
	if links <= 0 {
		return // local (same-node) delivery costs no interconnect bytes
	}
	t.bytes[m.Cat] += uint64(m.Bytes()) * uint64(links)
	t.messages[m.Cat] += uint64(links)
}

// Bytes reports the bytes recorded for one category.
func (t *Traffic) Bytes(c msg.Category) uint64 { return t.bytes[c] }

// Messages reports link-traversal count for one category.
func (t *Traffic) Messages(c msg.Category) uint64 { return t.messages[c] }

// TotalBytes reports all bytes across categories.
func (t *Traffic) TotalBytes() uint64 {
	var sum uint64
	for _, b := range t.bytes {
		sum += b
	}
	return sum
}

// Misses classifies coherence misses as the paper's Table 2 does.
type Misses struct {
	// Issued counts coherence misses (first-issue transient or protocol
	// requests).
	Issued uint64
	// ReissuedOnce counts misses whose request was reissued exactly once.
	ReissuedOnce uint64
	// ReissuedMore counts misses reissued more than once (but that did
	// not escalate to a persistent request).
	ReissuedMore uint64
	// Persistent counts misses that escalated to a persistent request.
	Persistent uint64
}

// NotReissued reports misses satisfied by their first request.
func (m *Misses) NotReissued() uint64 {
	return m.Issued - m.ReissuedOnce - m.ReissuedMore - m.Persistent
}

// Frac returns n as a percentage of issued misses.
func (m *Misses) Frac(n uint64) float64 {
	if m.Issued == 0 {
		return 0
	}
	return 100 * float64(n) / float64(m.Issued)
}

// Run aggregates one simulation run: the machine's per-island counter
// shard, merged after the run. The machine publishes every field and
// accessor as a named metric, and the metric snapshot is what results,
// sinks and the result store carry.
type Run struct {
	Traffic Traffic
	Misses  Misses

	// Hits and accesses for cache behaviour sanity checks.
	L1Hits    uint64
	L2Hits    uint64
	Accesses  uint64
	Upgrades  uint64
	Writeback uint64

	// Transactions completed and the simulated time consumed.
	Transactions uint64
	Elapsed      sim.Time

	// MissLatencySum/Count give average miss latency; MissLatencies
	// buckets the distribution (the reissue tail is what the adaptive
	// timeout reacts to).
	MissLatencySum   sim.Time
	MissLatencyCount uint64
	MissLatencies    Histogram
}

// Reset zeroes all counters (used at the end of cache warmup so the
// measured interval reflects steady state, as the paper's checkpointed
// runs do).
func (r *Run) Reset() {
	*r = Run{}
}

// Merge folds o into r: every counter, traffic category and histogram
// bucket is summed. All Run fields are commutative counts except
// Elapsed, which the caller owns (island shards of one run share a
// clock, so summing it would be wrong); Merge leaves r.Elapsed alone.
func (r *Run) Merge(o *Run) {
	for c := 0; c < msg.NumCategories; c++ {
		r.Traffic.bytes[c] += o.Traffic.bytes[c]
		r.Traffic.messages[c] += o.Traffic.messages[c]
	}
	r.Misses.Issued += o.Misses.Issued
	r.Misses.ReissuedOnce += o.Misses.ReissuedOnce
	r.Misses.ReissuedMore += o.Misses.ReissuedMore
	r.Misses.Persistent += o.Misses.Persistent
	r.L1Hits += o.L1Hits
	r.L2Hits += o.L2Hits
	r.Accesses += o.Accesses
	r.Upgrades += o.Upgrades
	r.Writeback += o.Writeback
	r.Transactions += o.Transactions
	r.MissLatencySum += o.MissLatencySum
	r.MissLatencyCount += o.MissLatencyCount
	r.MissLatencies.Merge(&o.MissLatencies)
}

// CyclesPerTransaction reports runtime in 1 GHz cycles (= ns) per
// completed transaction, the paper's runtime metric.
func (r *Run) CyclesPerTransaction() float64 {
	if r.Transactions == 0 {
		return math.Inf(1)
	}
	return r.Elapsed.Nanoseconds() / float64(r.Transactions)
}

// BytesPerMiss reports interconnect bytes per coherence miss, the paper's
// traffic metric.
func (r *Run) BytesPerMiss() float64 {
	if r.Misses.Issued == 0 {
		return 0
	}
	return float64(r.Traffic.TotalBytes()) / float64(r.Misses.Issued)
}

// CategoryBytesPerMiss reports one category's bytes per miss.
func (r *Run) CategoryBytesPerMiss(c msg.Category) float64 {
	if r.Misses.Issued == 0 {
		return 0
	}
	return float64(r.Traffic.Bytes(c)) / float64(r.Misses.Issued)
}

// AvgMissLatency reports the mean coherence-miss latency.
func (r *Run) AvgMissLatency() sim.Time {
	if r.MissLatencyCount == 0 {
		return 0
	}
	return r.MissLatencySum / sim.Time(r.MissLatencyCount)
}

// Sample summarizes repeated runs of one configuration with different
// seeds (the paper simulates each design point multiple times and shows
// one standard deviation).
type Sample struct {
	Values []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.Values = append(s.Values, v) }

// Mean reports the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// StdDev reports the sample standard deviation (n-1 denominator).
func (s *Sample) StdDev() float64 {
	n := len(s.Values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.Values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Median reports the sample median.
func (s *Sample) Median() float64 {
	n := len(s.Values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func (s *Sample) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d)", s.Mean(), s.StdDev(), len(s.Values))
}
