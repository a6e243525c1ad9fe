package registry

import (
	"tokencoherence/internal/core"
	"tokencoherence/internal/directory"
	"tokencoherence/internal/hammer"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/snooping"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/workload"
)

// init publishes the built-in components in a fixed order, so the
// registries' deterministic Names() listings match the historical
// protocol/topology/workload orderings the experiment tables and goldens
// were produced with.
func init() {
	// Topologies: the torus first (the default fabric for unordered
	// protocols), then the ordered broadcast tree.
	RegisterTopology(Topology{
		Name:      "torus",
		Ordered:   false,
		Clustered: true, // rows
		New:       func(procs int) topology.Topology { return topology.NewTorusFor(procs) },
		Check:     topology.CheckTorusFor,
	})
	RegisterTopology(Topology{
		Name:      "tree",
		Ordered:   true,
		Clustered: true, // root-child subtrees
		New:       func(procs int) topology.Topology { return topology.NewTree(procs) },
		Check:     func(procs int) error { return topology.CheckTree(procs, topology.TreeFanout) },
	})

	// Protocols, in the order the engine historically enumerated them:
	// tokenb, snooping, directory, hammer, tokend, tokenm. The three
	// Token Coherence variants are registered as policies, which induces
	// their protocol entries on the shared substrate.
	RegisterPolicy(TokenPolicy{
		Name: "tokenb",
		New:  func() core.Policy { return core.NewBroadcastPolicy() },
	})
	RegisterProtocol(Protocol{
		Name:            "snooping",
		RequiresOrdered: true,
		Build: func(sys *machine.System) ([]machine.Controller, func() error) {
			return machine.Controllers(snooping.Build(sys).Caches), nil
		},
	})
	RegisterProtocol(Protocol{
		Name: "directory",
		Build: func(sys *machine.System) ([]machine.Controller, func() error) {
			return machine.Controllers(directory.Build(sys).Caches), nil
		},
	})
	RegisterProtocol(Protocol{
		Name: "hammer",
		Build: func(sys *machine.System) ([]machine.Controller, func() error) {
			return machine.Controllers(hammer.Build(sys).Caches), nil
		},
	})
	RegisterPolicy(TokenPolicy{
		Name:  "tokend",
		Hints: true,
		New:   func() core.Policy { return core.NewHomePolicy() },
	})
	RegisterPolicy(TokenPolicy{
		Name:  "tokenm",
		Hints: true,
		New:   func() core.Policy { return core.NewPredictPolicy() },
	})

	// Hierarchical protocols append after the historical six, so every
	// existing Names() listing keeps its prefix. The two-level directory
	// and the region-filtered token policy both build their realms from
	// topology cluster metadata.
	RegisterProtocol(Protocol{
		Name:             "dir2",
		RequiresClusters: true,
		Build: func(sys *machine.System) ([]machine.Controller, func() error) {
			s, err := directory.Build2(sys)
			if err != nil {
				// Engine validation rejects clusterless topologies before
				// construction; reaching this is a wiring error.
				panic(err)
			}
			return machine.Controllers(s.Caches), nil
		},
	})
	RegisterPolicy(TokenPolicy{
		Name: "regionfilter",
		New:  func() core.Policy { return core.NewRegionFilterPolicy() },
	})

	// Workloads: the paper's three commercial mixes in paper order, then
	// the scientific barnes mix, exactly as workload.Names() lists them.
	for _, name := range workload.Names() {
		params, err := workload.Commercial(name)
		if err != nil {
			panic(err)
		}
		p := params
		RegisterWorkload(Workload{
			Name:   name,
			New:    func(procs int) machine.Generator { return workload.NewGenerator(p, procs) },
			Params: &p,
		})
	}
}
