package engine

import (
	"errors"
	"fmt"

	"tokencoherence/internal/machine"
)

// Variant is one named protocol/topology configuration in a Plan, e.g.
// "snooping-tree" or "directory-perfect". The variant's Point carries
// everything the plan axes do not vary.
type Variant struct {
	Name  string
	Point Point
}

func (v Variant) name() string {
	if v.Name != "" {
		return v.Name
	}
	if v.Point.Topo == "" {
		return v.Point.Protocol
	}
	return v.Point.Protocol + "-" + v.Point.Topo
}

// Grid returns one variant per protocol x topology pair, named
// "protocol-topo", in protocol-major order.
func Grid(protocols, topos []string) []Variant {
	var vs []Variant
	for _, proto := range protocols {
		for _, topo := range topos {
			vs = append(vs, Variant{
				Name:  proto + "-" + topo,
				Point: Point{Protocol: proto, Topo: topo},
			})
		}
	}
	return vs
}

// Mutation is a named machine.Config adjustment applied as a plan axis,
// e.g. one link-bandwidth setting of a bandwidth sweep. Tags optionally
// carry axis values for sinks (see TagColumn).
type Mutation struct {
	Name  string
	Tags  map[string]string
	Apply func(*machine.Config)
}

// Plan declaratively describes a cartesian grid of Points: every
// combination of variant, workload, mutation, bandwidth setting, and
// seed becomes one job. Empty axes keep the corresponding field of each
// variant's Point. Jobs expand in a fixed nesting order — workloads
// (outermost), variants, mutations, unlimited, seeds (innermost) — so a
// plan always yields the same job sequence.
type Plan struct {
	// Variants are the protocol/topology configurations (required).
	Variants []Variant
	// Workloads is the commercial-workload axis ("" keeps the variant's).
	Workloads []string
	// Mutations is the named config-mutation axis.
	Mutations []Mutation
	// Unlimited is the bandwidth axis (e.g. {false, true} measures every
	// point with limited and unlimited links).
	Unlimited []bool
	// Seeds is the random-seed axis.
	Seeds []uint64

	// Ops, Warmup and Procs apply to every job when nonzero, overriding
	// the variant's Point. Warmup distinguishes "unset" (0, keep the
	// variant's) from "explicitly cold" (NoWarmup, run zero warmup
	// operations).
	Ops    int
	Warmup int
	Procs  int
	// Islands applies to every job when nonzero: the number of
	// conservative-parallel kernel islands each point runs on. Purely an
	// execution knob — results are byte-identical at any island count —
	// and validated at expansion time like the component names.
	Islands int
}

// Job is one expanded unit of work: a fully specified Point plus the
// plan coordinates it came from.
type Job struct {
	// Index is the job's position in the plan's deterministic order;
	// results are reported in Index order regardless of parallelism.
	Index    int
	Variant  string
	Mutation string
	// Tags are the job's mutation tags (axis values for sinks).
	Tags  map[string]string
	Point Point
}

// Jobs expands the plan into its deterministic job sequence.
func (p Plan) Jobs() ([]Job, error) {
	if len(p.Variants) == 0 {
		return nil, errors.New("engine: plan has no variants")
	}
	workloads := p.Workloads
	if len(workloads) == 0 {
		workloads = []string{""}
	}
	mutations := p.Mutations
	if len(mutations) == 0 {
		mutations = []Mutation{{}}
	}
	unlimited := p.Unlimited
	hasUnlimited := len(unlimited) > 0
	if !hasUnlimited {
		unlimited = []bool{false}
	}
	seeds := p.Seeds
	hasSeeds := len(seeds) > 0
	if !hasSeeds {
		seeds = []uint64{0}
	}

	var jobs []Job
	for _, wl := range workloads {
		for _, v := range p.Variants {
			// base is the (workload, variant) cell's point; the inner
			// axes never change component names or sizing, so validating
			// it once here means an unknown name, an impossible
			// protocol/topology pair, or a system size the topology
			// cannot carry fails at expansion time, before any
			// simulation starts.
			base := v.Point
			if wl != "" {
				base.Workload = wl
			}
			if p.Procs != 0 {
				base.Procs = p.Procs
			}
			if p.Islands != 0 {
				base.Islands = p.Islands
			}
			if err := base.Validate(); err != nil {
				return nil, fmt.Errorf("variant %q: %w", v.name(), err)
			}
			for _, mut := range mutations {
				for _, unl := range unlimited {
					for _, seed := range seeds {
						pt := base
						if hasUnlimited {
							pt.Unlimited = unl
						}
						if hasSeeds {
							pt.Seed = seed
						}
						if p.Ops != 0 {
							pt.Ops = p.Ops
						}
						if p.Warmup != 0 {
							pt.Warmup = p.Warmup
						}
						if mut.Apply != nil {
							base, apply := pt.Mutate, mut.Apply
							pt.Mutate = func(c *machine.Config) {
								if base != nil {
									base(c)
								}
								apply(c)
							}
						}
						jobs = append(jobs, Job{
							Index:    len(jobs),
							Variant:  v.name(),
							Mutation: mut.Name,
							Tags:     mut.Tags,
							Point:    pt.withDefaults(),
						})
					}
				}
			}
		}
	}
	return jobs, nil
}
