package core

import (
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
)

// NewRegionFilterPolicy returns the region-coherence-filter policy
// ("regionfilter"): a scope-aware destination-set policy on the
// unmodified token substrate. It tracks coarse-grain (1KB-region)
// sharing and multicasts first-issue requests only within the issuing
// node's cluster (plus the machine-wide home) while a region has never
// been observed to supply tokens from outside the cluster; regions with
// observed external holders — and all reissues — fall back to full
// broadcast. A wrong guess (an unobserved external holder) costs one
// reissue timeout, never correctness: the substrate's token counting
// and persistent requests guarantee safety and starvation freedom for
// any destination set.
func NewRegionFilterPolicy() Policy { return newRegionFilter() }

// regionFilter suppresses broadcasts for regions private to the
// issuing node's cluster. The external mark is sticky: once a region is
// seen crossing the cluster boundary it broadcasts forever, trading
// filter coverage for never re-learning a stale privacy guess.
type regionFilter struct {
	// regionShift groups blocks into 1KB regions (16 blocks) for
	// coarse-grain sharing tracking.
	regionShift uint
	// external marks regions that supplied tokens from outside the
	// cluster.
	external msg.Table[bool]
	// scope is the issuing node's cluster realm, bound by the builder;
	// nil (unbound, e.g. direct substrate construction outside the
	// engine) degrades to plain broadcast.
	scope *machine.Scope
}

func newRegionFilter() *regionFilter {
	return &regionFilter{regionShift: 4}
}

// BindScope implements ScopedPolicy.
func (p *regionFilter) BindScope(s *machine.Scope) { p.scope = s }

func (p *regionFilter) region(b msg.Block) msg.Block { return b >> p.regionShift }

func (p *regionFilter) Observe(c *TokenB, mm *msg.Message) {
	// Only cache-to-cache supply marks a region shared: the machine-wide
	// home sits outside most clusters by construction and is always in
	// the destination set anyway.
	if mm.Src.Unit != msg.UnitCache {
		return
	}
	if p.scope == nil || p.scope.Set.Has(mm.Src.Node) {
		return
	}
	*p.external.At(p.region(msg.BlockOf(mm.Addr))) = true
}

func (p *regionFilter) Destinations(c *TokenB, m *machine.MSHR, reissue bool, buf []msg.Port) []msg.Port {
	if reissue || p.scope == nil || p.external.Get(p.region(m.Block)) {
		return broadcastPolicy{}.Destinations(c, m, reissue, buf)
	}
	for _, n := range p.scope.Members {
		if n != c.ID {
			buf = append(buf, msg.Port{Node: n, Unit: msg.UnitCache})
		}
	}
	// The cache keeps the root scope, so the home is the machine-wide
	// one: tokens parked at memory are always reachable on first issue.
	return append(buf, c.HomePort(m.Block))
}
