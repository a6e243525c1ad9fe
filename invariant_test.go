package tokencoherence

import (
	"fmt"
	"runtime/debug"
	"testing"

	"tokencoherence/internal/cache"
	"tokencoherence/internal/core"
	"tokencoherence/internal/directory"
	"tokencoherence/internal/hammer"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/snooping"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/workload"
)

// TestCrossProtocolDifferentialInvariant is the repository's strongest
// correctness net: all eight protocols — the six flat ones plus the
// hierarchical dir2 and regionfilter — execute the same workload with
// the same seed (hence the exact same per-processor operation streams),
// on both interconnects, and every run must (a) pass the coherence oracle,
// (b) pass the token-conservation audit where applicable, and (c) end
// with the same final memory image — the last committed version of every
// block — pairwise across all runs. Timing differs wildly between
// protocols; the committed write history must not.
func TestCrossProtocolDifferentialInvariant(t *testing.T) {
	const (
		procs  = 8
		ops    = 400
		warmup = 400
		seed   = 7
		wl     = "oltp"
	)

	type result struct {
		name  string
		image map[msg.Block]uint64
	}
	var results []result

	for _, topo := range []string{"tree", "torus"} {
		for _, proto := range []string{"tokenb", "tokend", "tokenm", "snooping", "directory", "hammer", "dir2", "regionfilter"} {
			if proto == "snooping" && topo == "torus" {
				continue // snooping requires the totally-ordered tree
			}
			// Each point runs serially and on four kernel islands; the
			// island run must land on the same image as everything else.
			for _, islands := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/i%d", proto, topo, islands)
				image := runDifferentialPoint(t, proto, topo, procs, ops, warmup, seed, wl, islands)
				results = append(results, result{name, image})
			}
		}
	}

	ref := results[0]
	for _, r := range results[1:] {
		if len(r.image) != len(ref.image) {
			t.Fatalf("%s wrote %d blocks, %s wrote %d", r.name, len(r.image), ref.name, len(ref.image))
		}
		for b, v := range ref.image {
			if got := r.image[b]; got != v {
				t.Fatalf("memory image diverges at block %d: %s ended at v%d, %s at v%d",
					b, ref.name, v, r.name, got)
			}
		}
	}
}

// TestCrossProtocolDifferentialInvariant64 extends the differential net
// to a 64-processor system — one point per fabric class: snooping on
// the three-level ordered tree (whose oracle-clean run is the
// total-order proof at that scale), TokenB and Directory on the 8x8
// torus. All three must agree on the final memory image.
func TestCrossProtocolDifferentialInvariant64(t *testing.T) {
	const (
		procs  = 64
		ops    = 150
		warmup = 150
		seed   = 11
		wl     = "oltp"
	)
	points := []struct{ proto, topo string }{
		{"snooping", "tree"}, // ordered fabric class
		{"tokenb", "torus"},  // unordered fabric class
		{"directory", "torus"},
		{"dir2", "torus"},         // hierarchical: two-level directory over torus rows
		{"regionfilter", "torus"}, // hierarchical: region-filtered token broadcast
	}
	type result struct {
		name  string
		image map[msg.Block]uint64
	}
	var results []result
	for _, p := range points {
		for _, islands := range []int{1, 4} {
			name := fmt.Sprintf("%s/%s/i%d", p.proto, p.topo, islands)
			image := runDifferentialPoint(t, p.proto, p.topo, procs, ops, warmup, seed, wl, islands)
			results = append(results, result{name, image})
		}
	}
	ref := results[0]
	for _, r := range results[1:] {
		if len(r.image) != len(ref.image) {
			t.Fatalf("%s wrote %d blocks, %s wrote %d", r.name, len(r.image), ref.name, len(ref.image))
		}
		for b, v := range ref.image {
			if got := r.image[b]; got != v {
				t.Fatalf("memory image diverges at block %d: %s ended at v%d, %s at v%d",
					b, ref.name, v, r.name, got)
			}
		}
	}
}

// runDifferentialPoint builds and runs one protocol/topology system
// directly (rather than through engine.RunPoint) so the test can read the
// oracle's final memory image. After the run it drains every message
// still in flight and checks coherence at quiescence: each L2 line the
// protocol deems readable must hold the block's latest committed
// version. The oracle alone cannot see a copy a lost invalidation left
// behind, because its staleness window forgives recent versions.
func runDifferentialPoint(t *testing.T, proto, topoName string, procs, ops, warmup int, seed uint64, wl string, islands int) map[msg.Block]uint64 {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Procs = procs
	cfg.Islands = islands
	if cfg.TokensPerBlock < procs {
		cfg.TokensPerBlock = procs * 2
	}

	var topo topology.Topology
	if topoName == "tree" {
		topo = topology.NewTree(procs)
	} else {
		topo = topology.NewTorusFor(procs)
	}

	params, err := workload.Commercial(wl)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(params, procs)

	sys := machine.NewSystem(cfg, topo, seed)
	var ctrls []machine.Controller
	var audit func() error
	switch proto {
	case "tokenb":
		ts := core.BuildTokenB(sys)
		ctrls, audit = machine.Controllers(ts.Caches), ts.Audit
	case "tokend":
		ts := core.BuildTokenD(sys)
		ctrls, audit = machine.Controllers(ts.Caches), ts.Audit
	case "tokenm":
		ts := core.BuildTokenM(sys)
		ctrls, audit = machine.Controllers(ts.Caches), ts.Audit
	case "snooping":
		ctrls = machine.Controllers(snooping.Build(sys).Caches)
	case "directory":
		ctrls = machine.Controllers(directory.Build(sys).Caches)
	case "hammer":
		ctrls = machine.Controllers(hammer.Build(sys).Caches)
	case "dir2":
		s2, err := directory.Build2(sys)
		if err != nil {
			t.Fatal(err)
		}
		ctrls = machine.Controllers(s2.Caches)
	case "regionfilter":
		ts := core.WithPolicy(core.NewRegionFilterPolicy, false)(sys)
		ctrls, audit = machine.Controllers(ts.Caches), ts.Audit
	default:
		t.Fatalf("unknown protocol %q", proto)
	}

	if err := sys.ExecuteWarm(ctrls, gen, warmup, ops); err != nil {
		t.Fatalf("%s/%s: %v", proto, topoName, err)
	}
	if audit != nil {
		if err := audit(); err != nil {
			t.Fatalf("%s/%s token audit: %v", proto, topoName, err)
		}
	}
	if err := sys.Oracle.Err(); err != nil {
		t.Fatalf("%s/%s oracle: %v", proto, topoName, err)
	}
	sys.Cluster.Run(func(sim.Time) bool { return false })
	stale := 0
	for _, c := range ctrls {
		var base *machine.CacheBase
		switch c := c.(type) {
		case *core.TokenB:
			base = &c.CacheBase
		case *directory.Cache:
			base = &c.CacheBase
		case *hammer.Cache:
			base = &c.CacheBase
		case *snooping.Cache:
			base = &c.CacheBase
		default:
			t.Fatalf("%s: unexpected controller type %T", proto, c)
		}
		base.L2.ForEach(func(l *cache.Line) {
			if base.Hooks.HasPermission(l, false) && l.Data != sys.Oracle.Latest(l.Block) {
				if stale == 0 {
					t.Errorf("%s/%s/i%d: node %d holds a readable copy of block %d at v%d after v%d committed",
						proto, topoName, islands, base.ID, l.Block, l.Data, sys.Oracle.Latest(l.Block))
				}
				stale++
			}
		})
	}
	if stale > 0 {
		t.Fatalf("%s/%s/i%d: %d stale readable copies at quiescence", proto, topoName, islands, stale)
	}
	return sys.Oracle.Image()
}

// TestCrossProtocolDifferentialInvariant256 drives the differential net
// to the 256-processor ceiling on four kernel islands: all eight
// protocols (snooping on the four-level ordered tree, the rest on the
// 16x16 torus) execute the same streams and must agree on the final memory
// image, oracle- and audit-clean. Skipped in -short mode; the
// 64-processor variant covers islands there.
func TestCrossProtocolDifferentialInvariant256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor differential invariant skipped in -short mode")
	}
	const (
		procs  = 256
		ops    = 15
		warmup = 15
		seed   = 13
		wl     = "oltp"
	)
	type result struct {
		name  string
		image map[msg.Block]uint64
	}
	var results []result
	for _, proto := range []string{"tokenb", "tokend", "tokenm", "snooping", "directory", "hammer", "dir2", "regionfilter"} {
		topo := "torus"
		if proto == "snooping" {
			topo = "tree"
		}
		name := fmt.Sprintf("%s/%s/i4", proto, topo)
		// Release the previous point's heap first: at this scale a point
		// needs up to about 0.7 GB, and carrying one into the next
		// nearly doubles the test's peak.
		debug.FreeOSMemory()
		image := runDifferentialPoint(t, proto, topo, procs, ops, warmup, seed, wl, 4)
		results = append(results, result{name, image})
	}
	// One serial reference pins the island runs to the single-kernel
	// universe: identical streams must commit identical write histories
	// whether or not the kernel is parallel.
	debug.FreeOSMemory()
	results = append(results, result{"tokenb/torus/i1",
		runDifferentialPoint(t, "tokenb", "torus", procs, ops, warmup, seed, wl, 1)})
	ref := results[0]
	for _, r := range results[1:] {
		if len(r.image) != len(ref.image) {
			t.Fatalf("%s wrote %d blocks, %s wrote %d", r.name, len(r.image), ref.name, len(ref.image))
		}
		for b, v := range ref.image {
			if got := r.image[b]; got != v {
				t.Fatalf("memory image diverges at block %d: %s ended at v%d, %s at v%d",
					b, ref.name, v, r.name, got)
			}
		}
	}
}
