package registry

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tokencoherence/internal/core"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want panic containing %q", want)
		}
		if s := fmt.Sprint(r); s != want {
			t.Fatalf("panic = %q, want %q", s, want)
		}
	}()
	f()
}

func TestTableRejectsEmptyAndDuplicateNames(t *testing.T) {
	tb := newTable[int]("widget")
	mustPanic(t, `registry: empty widget name`, func() { tb.register("", 1) })
	tb.register("a", 1)
	mustPanic(t, `registry: duplicate widget "a"`, func() { tb.register("a", 2) })
	if v, ok := tb.lookup("a"); !ok || v != 1 {
		t.Errorf("duplicate registration clobbered the entry: %v, %v", v, ok)
	}
}

func TestTableNamesAreRegistrationOrdered(t *testing.T) {
	tb := newTable[int]("widget")
	// Deliberately non-alphabetical: Names must preserve registration
	// order, not sort.
	for i, name := range []string{"zeta", "alpha", "mid"} {
		tb.register(name, i)
	}
	want := []string{"zeta", "alpha", "mid"}
	for i := 0; i < 3; i++ {
		if got := tb.list(); !reflect.DeepEqual(got, want) {
			t.Fatalf("list() = %v, want %v", got, want)
		}
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// table.
	got := tb.list()
	got[0] = "mutated"
	if again := tb.list(); !reflect.DeepEqual(again, want) {
		t.Errorf("list() exposed internal state: %v", again)
	}
}

// TestTableConcurrentAccess exercises Lookup/Names racing with Register;
// CI runs it under -race.
func TestTableConcurrentAccess(t *testing.T) {
	tb := newTable[int]("widget")
	tb.register("seed", 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb.register(fmt.Sprintf("w%d-%d", w, i), i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, ok := tb.lookup("seed"); !ok {
					t.Error("seed entry disappeared")
					return
				}
				_ = tb.list()
			}
		}()
	}
	wg.Wait()
	if got := len(tb.list()); got != 1+4*200 {
		t.Errorf("table holds %d entries, want %d", got, 1+4*200)
	}
}

func TestBuiltinRegistrations(t *testing.T) {
	wantProtos := []string{"tokenb", "snooping", "directory", "hammer", "tokend", "tokenm"}
	if got := ProtocolNames(); !hasPrefix(got, wantProtos) {
		t.Errorf("ProtocolNames() = %v, want prefix %v", got, wantProtos)
	}
	wantPolicies := []string{"tokenb", "tokend", "tokenm"}
	if got := PolicyNames(); !hasPrefix(got, wantPolicies) {
		t.Errorf("PolicyNames() = %v, want prefix %v", got, wantPolicies)
	}
	wantTopos := []string{"torus", "tree"}
	if got := TopologyNames(); !hasPrefix(got, wantTopos) {
		t.Errorf("TopologyNames() = %v, want prefix %v", got, wantTopos)
	}
	wantWls := []string{"apache", "oltp", "specjbb", "barnes"}
	if got := WorkloadNames(); !hasPrefix(got, wantWls) {
		t.Errorf("WorkloadNames() = %v, want prefix %v", got, wantWls)
	}

	// Only snooping demands a totally-ordered fabric; only the tree
	// provides one.
	for _, name := range wantProtos {
		p, ok := LookupProtocol(name)
		if !ok || p.Build == nil {
			t.Errorf("protocol %q missing or has no Build", name)
			continue
		}
		if p.RequiresOrdered != (name == "snooping") {
			t.Errorf("protocol %q RequiresOrdered = %v", name, p.RequiresOrdered)
		}
	}
	for _, name := range wantTopos {
		tp, ok := LookupTopology(name)
		if !ok || tp.New == nil {
			t.Errorf("topology %q missing or has no New", name)
			continue
		}
		if tp.Ordered != (name == "tree") {
			t.Errorf("topology %q Ordered = %v", name, tp.Ordered)
		}
		if built := tp.New(16); built.Ordered() != tp.Ordered {
			t.Errorf("topology %q: built Ordered()=%v, registered %v", name, built.Ordered(), tp.Ordered)
		}
	}
}

// hasPrefix reports whether got begins with want. Other tests in the
// binary may append registrations, so the built-in lists are asserted
// as a prefix, which also pins their deterministic order.
func hasPrefix(got, want []string) bool {
	if len(got) < len(want) {
		return false
	}
	return reflect.DeepEqual(got[:len(want)], want)
}

func TestDefaultTopologyFollowsOrderingCapability(t *testing.T) {
	unordered, ok := DefaultTopology(false)
	if !ok || unordered.Name != "torus" {
		t.Errorf("DefaultTopology(false) = %q, %v; want torus", unordered.Name, ok)
	}
	ordered, ok := DefaultTopology(true)
	if !ok || ordered.Name != "tree" {
		t.Errorf("DefaultTopology(true) = %q, %v; want tree", ordered.Name, ok)
	}
	if got := OrderedTopologyNames(); len(got) == 0 || got[0] != "tree" {
		t.Errorf("OrderedTopologyNames() = %v, want tree first", got)
	}
}

func TestRegisterRejectsNilFactories(t *testing.T) {
	mustPanic(t, `registry: protocol "nilbuild" has no Build function`, func() {
		RegisterProtocol(Protocol{Name: "nilbuild"})
	})
	mustPanic(t, `registry: policy "nilnew" has no New function`, func() {
		RegisterPolicy(TokenPolicy{Name: "nilnew"})
	})
	mustPanic(t, `registry: topology "nilnew" has no New function`, func() {
		RegisterTopology(Topology{Name: "nilnew"})
	})
	mustPanic(t, `registry: workload "nilnew" has no New function`, func() {
		RegisterWorkload(Workload{Name: "nilnew"})
	})
	mustPanic(t, `registry: probe "nilnew" has no New function`, func() {
		RegisterProbe(Probe{Name: "nilnew"})
	})
}

// TestBuiltinWorkloadsCarryParams pins the facade's parameter lookup
// path: every built-in workload registers its Params alongside its
// generator factory.
func TestBuiltinWorkloadsCarryParams(t *testing.T) {
	for _, name := range []string{"apache", "oltp", "specjbb", "barnes"} {
		wl, ok := LookupWorkload(name)
		if !ok {
			t.Fatalf("builtin workload %q missing", name)
		}
		if wl.Params == nil || wl.Params.Name != name {
			t.Errorf("workload %q Params = %+v", name, wl.Params)
		}
	}
}

// TestProbeRegistration pins the probe table's ordering and the
// attach-time contract (New receives the run's MetricSet).
func TestProbeRegistration(t *testing.T) {
	names := []string{"probe-b-test", "probe-a-test"}
	for _, n := range names {
		n := n
		RegisterProbe(Probe{
			Name: n,
			New: func(ms *stats.MetricSet) stats.Observer {
				ms.Counter(stats.Desc{Name: "metric_" + n})
				return stats.Observer{}
			},
		})
	}
	got := ProbeNames()
	// Registration order, not lexical order.
	bi, ai := -1, -1
	for i, n := range got {
		switch n {
		case "probe-b-test":
			bi = i
		case "probe-a-test":
			ai = i
		}
	}
	if bi == -1 || ai == -1 || bi > ai {
		t.Fatalf("ProbeNames() = %v, want probe-b-test before probe-a-test", got)
	}
	ms := stats.NewMetricSet()
	for _, p := range Probes() {
		if p.Name == "probe-b-test" || p.Name == "probe-a-test" {
			p.New(ms)
		}
	}
	for _, want := range []string{"metric_probe-b-test", "metric_probe-a-test"} {
		if _, ok := ms.Lookup(want); !ok {
			t.Errorf("probe did not register %q (have %v)", want, ms.Names())
		}
	}
	mustPanic(t, `registry: duplicate probe "probe-b-test"`, func() {
		RegisterProbe(Probe{Name: "probe-b-test", New: func(ms *stats.MetricSet) stats.Observer { return stats.Observer{} }})
	})
}

// TestRegisterPolicyCollidingWithProtocolLeavesRegistryUntouched pins
// the cross-table atomicity of RegisterPolicy: a policy whose name is
// already taken in the protocol table must panic without recording the
// policy, so the registry never lists a policy that does not back the
// protocol of the same name.
func TestRegisterPolicyCollidingWithProtocolLeavesRegistryUntouched(t *testing.T) {
	RegisterProtocol(Protocol{
		Name: "collider",
		Build: func(sys *machine.System) ([]machine.Controller, func() error) {
			return nil, nil
		},
	})
	mustPanic(t, `registry: duplicate protocol "collider"`, func() {
		RegisterPolicy(TokenPolicy{Name: "collider", New: func() core.Policy { return core.NewBroadcastPolicy() }})
	})
	if _, ok := LookupPolicy("collider"); ok {
		t.Error("failed RegisterPolicy left a policy entry behind")
	}
}

// TestRegisteredWorkloadBuildsFreshGenerators pins the contract plans
// rely on: every New call returns an independent generator instance.
func TestRegisteredWorkloadBuildsFreshGenerators(t *testing.T) {
	wl, ok := LookupWorkload("oltp")
	if !ok {
		t.Fatal("oltp not registered")
	}
	a, b := wl.New(4), wl.New(4)
	if a == nil || b == nil {
		t.Fatal("workload built nil generator")
	}
	if a == machine.Generator(b) {
		t.Error("New returned the same generator twice")
	}
}

// TestBuiltinTopologySizing pins the constructors behind the entries:
// both fabrics now carry 4..256 processors (the tree multi-level beyond
// 16), and both advertise a Check that rejects sizes New would panic on
// — before construction, so plan expansion can fail with a clear error.
func TestBuiltinTopologySizing(t *testing.T) {
	torus, _ := LookupTopology("torus")
	tree, _ := LookupTopology("tree")
	for _, n := range []int{4, 16, 64, 256} {
		if got := torus.New(n).Nodes(); got != n {
			t.Errorf("torus.New(%d).Nodes() = %d", n, got)
		}
		if got := tree.New(n).Nodes(); got != n {
			t.Errorf("tree.New(%d).Nodes() = %d", n, got)
		}
		if err := torus.Check(n); err != nil {
			t.Errorf("torus.Check(%d) = %v", n, err)
		}
		if err := tree.Check(n); err != nil {
			t.Errorf("tree.Check(%d) = %v", n, err)
		}
	}
	// The tree is capped where the interconnect's O(n^2) path cache and
	// multicast slabs stop being cheap; the torus rejects primes (dead
	// North/South links) and sub-2x2 sizes.
	if err := tree.Check(topology.MaxTreeNodes + 1); err == nil {
		t.Error("tree.Check(257) = nil, want error")
	}
	for _, n := range []int{3, 7} {
		if err := torus.Check(n); err == nil {
			t.Errorf("torus.Check(%d) = nil, want error", n)
		}
	}
}

// TestProtocolCapabilityAnnotations pins the -list surface both CLIs
// print: capability tags mark the ordered-fabric and scope-aware
// protocols, and the clustered-topology listing feeds the engine's
// valid-pairs errors.
func TestProtocolCapabilityAnnotations(t *testing.T) {
	cases := map[string][]string{
		"tokenb":       nil,
		"snooping":     {"ordered-fabric"},
		"dir2":         {"scoped"},
		"regionfilter": {"scoped"},
	}
	for name, want := range cases {
		got := ProtocolTags(name)
		if len(got) != len(want) {
			t.Errorf("ProtocolTags(%q) = %v, want %v", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("ProtocolTags(%q) = %v, want %v", name, got, want)
			}
		}
	}
	annotated := strings.Join(AnnotatedProtocolNames(), ", ")
	for _, want := range []string{"snooping[ordered-fabric]", "dir2[scoped]", "regionfilter[scoped]"} {
		if !strings.Contains(annotated, want) {
			t.Errorf("annotated listing %q missing %q", annotated, want)
		}
	}
	clustered := ClusteredTopologyNames()
	if len(clustered) < 2 || clustered[0] != "torus" || clustered[1] != "tree" {
		t.Errorf("ClusteredTopologyNames() = %v, want torus, tree prefix", clustered)
	}
}
