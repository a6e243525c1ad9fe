// Package stats collects the measurements the paper reports: traffic on
// the interconnect broken down by message category (Figures 4b, 5b),
// miss/reissue/persistent-request classification (Table 2), and runtime
// in cycles per transaction (Figures 4a, 5a).
//
// A run's MetricSet is its only counter store. Every component
// registers its own shard of a counter or histogram, so each shard is
// written by the one island that owns the component; a metric's value
// sums (or, for histograms, merges) its shards when read. Ratios such
// as cycles per transaction are derived metrics over those integer
// sums.
package stats

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
