package engine

import (
	"strings"
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/topology"
	"tokencoherence/internal/workload"
)

// uniformTestGen builds a scaling-style microbenchmark generator.
func uniformTestGen(procs int) machine.Generator {
	return workload.NewUniform(256, 0.3, sim.Nanosecond, procs)
}

func TestValidateUnknownNamesListRegistered(t *testing.T) {
	cases := []struct {
		name string
		pt   Point
		want []string // substrings the error must carry
	}{
		{"protocol", Point{Protocol: "nope", Topo: TopoTorus, Workload: "oltp"},
			[]string{`unknown protocol "nope"`, "registered:", ProtoTokenB, ProtoSnooping, ProtoTokenM}},
		{"topology", Point{Protocol: ProtoTokenB, Topo: "mesh", Workload: "oltp"},
			[]string{`unknown topology "mesh"`, "registered:", TopoTorus, TopoTree}},
		{"workload", Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "nope"},
			[]string{`unknown workload "nope"`, "registered:", "apache", "barnes"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			err := c.pt.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil", c.pt)
			}
			for _, want := range c.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}

func TestValidateOrderingCapability(t *testing.T) {
	// Snooping on the unordered torus is the paper's "not applicable"
	// bar: the engine must reject it up front, naming the valid pairs.
	err := Point{Protocol: ProtoSnooping, Topo: TopoTorus, Workload: "oltp"}.Validate()
	if err == nil {
		t.Fatal("snooping on the torus not rejected")
	}
	for _, want := range []string{"totally-ordered", `"torus" is unordered`, "valid pairs: snooping/tree"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if err := (Point{Protocol: ProtoSnooping, Topo: TopoTree, Workload: "oltp"}).Validate(); err != nil {
		t.Errorf("snooping on the tree rejected: %v", err)
	}
}

func TestValidateClusterCapability(t *testing.T) {
	// A scope-aware protocol on a topology without cluster metadata is
	// the hierarchical "not applicable" bar. Both built-in fabrics expose
	// clusters, so a clusterless test fabric stands in for the rejection.
	registry.RegisterTopology(registry.Topology{
		Name:    "testclusterless",
		Ordered: false,
		New:     func(procs int) topology.Topology { return topology.NewTorusFor(procs) },
		Check:   topology.CheckTorusFor,
	})
	for _, proto := range []string{ProtoDir2, ProtoRegionFilter} {
		err := Point{Protocol: proto, Topo: "testclusterless", Workload: "oltp"}.Validate()
		if err == nil {
			t.Fatalf("%s on a clusterless topology not rejected", proto)
		}
		for _, want := range []string{"cluster metadata", "valid pairs: " + proto + "/torus, " + proto + "/tree"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing %q", err, want)
			}
		}
		for _, topo := range []string{TopoTorus, TopoTree} {
			if err := (Point{Protocol: proto, Topo: topo, Workload: "oltp"}).Validate(); err != nil {
				t.Errorf("%s on %s rejected: %v", proto, topo, err)
			}
		}
	}
}

func TestEmptyTopologyDefaultsByCapability(t *testing.T) {
	// An empty Topo resolves through the protocol's ordering capability:
	// order-requiring protocols get the first ordered fabric (tree),
	// everything else the first fabric (torus).
	cases := []struct {
		proto, wantTopo string
	}{
		{ProtoSnooping, "tree"},
		{ProtoTokenB, "torus"},
		{ProtoDirectory, "torus"},
		{ProtoHammer, "torus"},
	}
	for _, c := range cases {
		comps, err := Point{Protocol: c.proto, Workload: "oltp"}.withDefaults().resolve()
		if err != nil {
			t.Errorf("%s: %v", c.proto, err)
			continue
		}
		if comps.topo.Name != c.wantTopo {
			t.Errorf("%s with empty Topo resolved to %q, want %q", c.proto, comps.topo.Name, c.wantTopo)
		}
	}
}

func TestGenBearingPointSkipsWorkloadLookup(t *testing.T) {
	// Scaling-style points carry their own generator and no workload
	// name; validation must not demand one.
	pt := Point{Protocol: ProtoTokenB, Topo: TopoTorus, NewGen: uniformTestGen, Procs: 4}
	if err := pt.Validate(); err != nil {
		t.Errorf("NewGen-bearing point rejected: %v", err)
	}
}

func TestValidateTopologySizeCheck(t *testing.T) {
	// Registered topologies advertise the sizes they can carry; Validate
	// consults the Check hook so impossible system sizes fail at
	// plan-expansion time with a clear error, not with a mid-run panic.
	ok := []Point{
		{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Procs: 256},
		{Protocol: ProtoSnooping, Topo: TopoTree, Workload: "oltp", Procs: 64},
		{Protocol: ProtoSnooping, Topo: TopoTree, Workload: "oltp", Procs: 256},
		{Protocol: ProtoSnooping, Topo: TopoTree, Workload: "oltp", Procs: 100}, // padded leaf layer
	}
	for _, pt := range ok {
		if err := pt.Validate(); err != nil {
			t.Errorf("Validate(%s/%s procs=%d) = %v, want nil", pt.Protocol, pt.Topo, pt.Procs, err)
		}
	}
	bad := []struct {
		pt   Point
		want string
	}{
		{Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Procs: 7}, "prime"},
		{Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Procs: 2}, "at least 4"},
		{Point{Protocol: ProtoSnooping, Topo: TopoTree, Workload: "oltp", Procs: 257}, "4..256"},
	}
	for _, c := range bad {
		err := c.pt.Validate()
		if err == nil {
			t.Errorf("Validate(%s/%s procs=%d) = nil, want size error", c.pt.Protocol, c.pt.Topo, c.pt.Procs)
			continue
		}
		for _, want := range []string{"cannot carry", c.want} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing %q", err, want)
			}
		}
	}
}

// TestValidateMachineLimit: a topology that could carry any size (the
// torus takes every composite count) still stops at the simulator's
// machine limit, and the error names it.
func TestValidateMachineLimit(t *testing.T) {
	err := Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Procs: 512}.Validate()
	if err == nil {
		t.Fatal("Validate accepted 512 processors")
	}
	for _, want := range []string{"512 processors", "256-node machine limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestPlanProcsValidatedEarly(t *testing.T) {
	// The plan-level Procs override participates in expansion-time
	// validation: a size the topology cannot carry fails at Jobs().
	plan := Plan{
		Variants:  []Variant{{Point: Point{Protocol: ProtoTokenB, Topo: TopoTorus}}},
		Workloads: []string{"oltp"},
		Procs:     7,
	}
	if _, err := plan.Jobs(); err == nil || !strings.Contains(err.Error(), "cannot carry 7") {
		t.Errorf("plan with prime torus size: err = %v, want early size rejection", err)
	}
}

func TestWarmupSentinel(t *testing.T) {
	// Plan.Warmup = 0 keeps the variant's warmup; NoWarmup forces an
	// explicitly cold start (zero warmup ops) — previously impossible
	// because zero was conflated with "unset".
	variant := Variant{Point: Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Warmup: 50}}

	keep := Plan{Variants: []Variant{variant}, Ops: 100}
	jobs, err := keep.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Point.Warmup != 50 {
		t.Errorf("Plan.Warmup=0 job warmup = %d, want the variant's 50", jobs[0].Point.Warmup)
	}

	cold := Plan{Variants: []Variant{variant}, Ops: 100, Warmup: NoWarmup}
	jobs, err = cold.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Point.Warmup != 0 {
		t.Errorf("Plan.Warmup=NoWarmup job warmup = %d, want 0", jobs[0].Point.Warmup)
	}

	// A negative Warmup on the point itself normalizes the same way.
	if got := (Point{Warmup: NoWarmup}).withDefaults().Warmup; got != 0 {
		t.Errorf("Point{Warmup: NoWarmup}.withDefaults().Warmup = %d, want 0", got)
	}
}

func TestPlanExpansionValidatesEarly(t *testing.T) {
	// Unknown names fail at Jobs() — before any simulation — with the
	// offending variant named.
	bad := Plan{Variants: []Variant{
		{Name: "ok", Point: Point{Protocol: ProtoTokenB, Topo: TopoTorus}},
		{Name: "typo", Point: Point{Protocol: "tokenbb", Topo: TopoTorus}},
	}, Workloads: []string{"oltp"}}
	_, err := bad.Jobs()
	if err == nil {
		t.Fatal("plan with unknown protocol expanded")
	}
	for _, want := range []string{`variant "typo"`, `unknown protocol "tokenbb"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	// The workload axis is validated per cell too.
	badWl := Plan{
		Variants:  []Variant{{Point: Point{Protocol: ProtoTokenB, Topo: TopoTorus}}},
		Workloads: []string{"oltp", "oltpp"},
	}
	if _, err := badWl.Jobs(); err == nil || !strings.Contains(err.Error(), `unknown workload "oltpp"`) {
		t.Errorf("unknown workload on the plan axis: %v", err)
	}

	// Capability violations fail at expansion as well.
	snoop := Plan{Variants: Grid([]string{ProtoSnooping}, []string{TopoTorus}), Workloads: []string{"oltp"}}
	if _, err := snoop.Jobs(); err == nil || !strings.Contains(err.Error(), "totally-ordered") {
		t.Errorf("snooping/torus plan: %v", err)
	}
}

// TestPaperPointMSHRRecords: a controller's MSHR file recycles records,
// so over a paper16 point (the 16-processor grid of Figures 4 and 5
// plus regionfilter, each commercial workload) no controller makes more
// records than Config.MSHRs, the most misses its processor can have
// outstanding, however many misses it serves.
func TestPaperPointMSHRRecords(t *testing.T) {
	variants := [][2]string{
		{ProtoTokenB, TopoTorus}, {ProtoSnooping, TopoTree}, {ProtoDirectory, TopoTorus},
		{ProtoHammer, TopoTorus}, {ProtoRegionFilter, TopoTorus},
	}
	for _, wl := range []string{"apache", "oltp", "specjbb"} {
		for _, v := range variants {
			pt := Point{Protocol: v[0], Topo: v[1], Workload: wl, Procs: 16, Ops: 400, Warmup: 1200, Seed: 1}.withDefaults()
			comps, err := pt.resolve()
			if err != nil {
				t.Fatal(err)
			}
			sys, ctrls, _, err := buildMachine(pt, comps)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.ExecuteWarm(ctrls, comps.wl.New(pt.Procs), pt.Warmup, pt.Ops); err != nil {
				t.Fatal(err)
			}
			records, most := 0, 0
			for i, c := range ctrls {
				n := c.(interface{ MSHRRecords() int }).MSHRRecords()
				if n > sys.Cfg.MSHRs {
					t.Errorf("%s/%s node %d made %d MSHR records, more than Config.MSHRs = %d", v[0], wl, i, n, sys.Cfg.MSHRs)
				}
				records, most = records+n, max(most, n)
			}
			t.Logf("%s/%s: %d MSHR records (at most %d per node) for %d measured misses",
				v[0], wl, records, most, sys.Metrics.Count("misses"))
		}
	}
}
