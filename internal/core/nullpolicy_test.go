package core

import (
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
)

// nullPolicy never sends transient requests anywhere: every miss must
// time out and be rescued by the correctness substrate's persistent
// requests. The paper: "A null or random performance protocol would
// perform poorly but not incorrectly."
type nullPolicy struct{}

func (nullPolicy) Observe(*TokenB, *msg.Message) {}
func (nullPolicy) Destinations(_ *TokenB, _ *machine.MSHR, _ bool, buf []msg.Port) []msg.Port {
	return buf
}

// randomPolicy sends each request to a random subset of nodes — often
// the wrong ones. Correctness must be unaffected.
type randomPolicy struct {
	rng *sim.Source
}

func (*randomPolicy) Observe(*TokenB, *msg.Message) {}

func (p *randomPolicy) Destinations(c *TokenB, m *machine.MSHR, _ bool, buf []msg.Port) []msg.Port {
	dsts := buf
	for i := 0; i < c.Cfg.Procs; i++ {
		if msg.NodeID(i) != c.ID && p.rng.Bool(0.3) {
			dsts = append(dsts, msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache})
		}
	}
	if p.rng.Bool(0.5) {
		dsts = append(dsts, c.HomePort(m.Block))
	}
	return dsts
}

// buildWithPolicy assembles a token system whose caches all use the
// given policy.
func buildWithPolicy(sys *machine.System, policy func() Policy) *TokenSystem {
	n := sys.Cfg.Procs
	ts := &TokenSystem{Ledger: NewLedger(sys.Cfg.TokensPerBlock)}
	for i := 0; i < n; i++ {
		id := msg.NodeID(i)
		ts.Caches = append(ts.Caches, NewTokenController(sys, id, ts.Ledger, policy()))
		ts.Mems = append(ts.Mems, NewMemory(sys, id, ts.Ledger))
		ts.Arbiters = append(ts.Arbiters, NewArbiter(sys, id))
	}
	return ts
}

// TestNullPerformanceProtocolIsCorrect is the paper's §4.1 claim made
// executable: with no transient requests at all, every miss escalates to
// a persistent request, yet all operations complete coherently.
func TestNullPerformanceProtocolIsCorrect(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Procs = 4
	cfg.TokensPerBlock = 4
	// Keep timeouts short so the test does not crawl through 5 timeouts
	// per miss at full length.
	cfg.MaxReissues = 0
	cfg.BackoffFactor = 0
	sys := machine.NewSystem(cfg, topology.NewTorusFor(4), 11)
	ts := buildWithPolicy(sys, func() Policy { return nullPolicy{} })
	gen := &uniformGen{blocks: 8, pWrite: 0.5, think: 5 * sim.Nanosecond}
	err := sys.Execute(machine.Controllers(ts.Caches), gen, 40)
	if err != nil {
		t.Fatalf("null policy broke correctness: %v", err)
	}
	if err := ts.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if sys.Metrics.Count("misses_persistent") != sys.Metrics.Count("misses") {
		t.Errorf("persistent=%d of %d misses; with a null policy every miss must be rescued by the substrate",
			sys.Metrics.Count("misses_persistent"), sys.Metrics.Count("misses"))
	}
}

// TestRandomPerformanceProtocolIsCorrect fuzzes the request policy:
// random destination sets may starve transiently but never corrupt.
func TestRandomPerformanceProtocolIsCorrect(t *testing.T) {
	for _, seed := range []uint64{5, 6, 7} {
		seed := seed
		t.Run("", func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.Procs = 8
			cfg.TokensPerBlock = 8
			cfg.MaxReissues = 1
			cfg.BackoffFactor = 1
			sys := machine.NewSystem(cfg, topology.NewTorusFor(8), seed)
			rng := sim.NewSource(seed * 977)
			ts := buildWithPolicy(sys, func() Policy { return &randomPolicy{rng: rng.Split()} })
			gen := &uniformGen{blocks: 12, pWrite: 0.4, think: 4 * sim.Nanosecond}
			if err := sys.Execute(machine.Controllers(ts.Caches), gen, 60); err != nil {
				t.Fatalf("random policy broke correctness: %v", err)
			}
			if err := ts.Audit(); err != nil {
				t.Fatalf("audit: %v", err)
			}
		})
	}
}
