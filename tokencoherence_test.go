package tokencoherence

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestSimulateSmoke(t *testing.T) {
	snap, err := Simulate(Point{
		Protocol: ProtoTokenB,
		Topo:     TopoTorus,
		Workload: "specjbb",
		Ops:      500,
		Warmup:   1200,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	txns, _ := snap.Value("transactions")
	misses, _ := snap.Value("misses")
	if txns == 0 || misses == 0 {
		t.Errorf("implausible run: %v transactions, %v misses", txns, misses)
	}
	if cpt, _ := snap.Value("cycles_per_txn"); cpt <= 0 {
		t.Errorf("cycles_per_txn = %v", cpt)
	}
}

func TestExperimentsList(t *testing.T) {
	exps := Experiments()
	want := map[string]bool{"table2": true, "fig4a": true, "fig4b": true, "fig5a": true, "fig5b": true, "scaling": true,
		"bandwidth": true, "procs": true, "tokens": true, "mshr": true}
	if len(exps) != len(want) {
		t.Fatalf("Experiments() = %v", exps)
	}
	for _, e := range exps {
		if !want[e] {
			t.Errorf("unexpected experiment %q", e)
		}
	}
}

func TestRunExperimentFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(&buf, "table2", Options{Ops: 300, Warmup: 800}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Errorf("unexpected output: %s", buf.String())
	}
}

func TestWorkloadFacade(t *testing.T) {
	// The built-ins are a registration-order prefix; other tests in this
	// binary may append registrations of their own, so do not assert the
	// exact length.
	got := Workloads()
	if len(got) < 4 {
		t.Fatalf("Workloads() = %v", got)
	}
	for i, want := range []string{"apache", "oltp", "specjbb", "barnes"} {
		if got[i] != want {
			t.Errorf("Workloads()[%d] = %q, want %q", i, got[i], want)
		}
	}
	p, err := Workload("apache")
	if err != nil || p.Name != "apache" {
		t.Fatalf("Workload(apache) = %+v, %v", p, err)
	}
	if _, err := Workload("nope"); err == nil {
		t.Error("unknown workload not rejected")
	}
}

// fixedStrideGen is a trivial custom workload: every processor strides
// through its own private region (no sharing, fully deterministic).
type fixedStrideGen struct {
	next []Addr
}

func newFixedStrideGen(procs int) *fixedStrideGen {
	g := &fixedStrideGen{next: make([]Addr, procs)}
	for i := range g.next {
		g.next[i] = Addr(i) << 20
	}
	return g
}

func (g *fixedStrideGen) Next(proc int, rng *Source) Op {
	a := g.next[proc]
	g.next[proc] += 64
	return Op{Addr: a, Write: proc%2 == 0, Think: 2 * Nanosecond, EndTxn: a%1024 == 0}
}

// TestWorkloadRegistryResolution locks in the registry fix: a workload
// added through the public facade must be fully visible through it —
// listed by Workloads, runnable by name, and distinguished by Workload()
// from a workload that does not exist at all. (It previously reported
// registered-but-opaque workloads as unknown because it bypassed the
// registry and consulted only the built-in parameter table.)
func TestWorkloadRegistryResolution(t *testing.T) {
	RegisterWorkload(WorkloadSpec{
		Name: "stride-test",
		New:  func(procs int) Generator { return newFixedStrideGen(procs) },
	})

	found := false
	for _, name := range Workloads() {
		if name == "stride-test" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered workload missing from Workloads()")
	}

	// Workload() resolves through the registry: an opaque registration
	// is reported as parameterless, not as unknown.
	_, err := Workload("stride-test")
	if err == nil || !strings.Contains(err.Error(), "opaque generator factory") {
		t.Fatalf("Workload(stride-test) = %v, want opaque-factory error", err)
	}
	if _, err := Workload("never-registered"); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") ||
		!strings.Contains(err.Error(), "stride-test") {
		t.Fatalf("Workload(never-registered) = %v, want unknown error listing registered names", err)
	}

	// The registered name is runnable end to end by name.
	sys, _, err := SimulateMetrics(Point{
		Protocol: ProtoTokenB, Workload: "stride-test",
		Procs: 4, Ops: 200, Warmup: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if accesses, txns := sys.Metrics.Count("accesses"), sys.Metrics.Count("transactions"); accesses == 0 || txns == 0 {
		t.Errorf("implausible custom-workload run: %d accesses, %d transactions", accesses, txns)
	}

	// A registration that does carry parameters is inspectable.
	params := WorkloadParams{Name: "stride-params", PrivateBlocks: 1 << 10, OpsPerTxn: 16}
	RegisterWorkload(WorkloadSpec{
		Name:   "stride-params",
		New:    func(procs int) Generator { return newFixedStrideGen(procs) },
		Params: &params,
	})
	if got, err := Workload("stride-params"); err != nil || got != params {
		t.Errorf("Workload(stride-params) = %+v, %v; want %+v", got, err, params)
	}
}

func TestDefaultConfigFacade(t *testing.T) {
	c := DefaultConfig()
	if c.Procs != 16 {
		t.Errorf("Procs = %d, want 16", c.Procs)
	}
	c.Validate()
}

func TestAllProtocolConstantsDistinct(t *testing.T) {
	protos := []string{ProtoTokenB, ProtoSnooping, ProtoDirectory, ProtoHammer, ProtoTokenD, ProtoTokenM}
	seen := map[string]bool{}
	for _, p := range protos {
		if seen[p] {
			t.Errorf("duplicate protocol constant %q", p)
		}
		seen[p] = true
	}
}

// TestTracingFacade drives the tracing surface entirely through this
// package: a tracer and a standalone flight recorder attached via
// Engine.Attach, the built-in recorder with a forced starvation trip,
// and fan-out to several facade Observers.
func TestTracingFacade(t *testing.T) {
	var dumps bytes.Buffer
	plan := Plan{
		Variants: []Variant{{Name: "facade", Point: Point{
			Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp",
			Mutate: func(c *Config) {
				c.StarvationDeadline = Picosecond // trip on the first measured miss
				c.DebugLog = &dumps
			},
		}}},
		Seeds:  []uint64{1},
		Ops:    150,
		Warmup: 150,
		Procs:  4,
	}
	var tracer *Tracer
	var recorder *FlightRecorder
	var standalone bytes.Buffer
	var progressDone, started int
	boundary := Observer{Kinds: MaskOf(MeasurementStarted), On: func(Event) { started++ }}
	eng := Engine{
		Attach: func(job Job) func(*System) {
			tracer = NewTracer(TracerConfig{})
			recorder = NewFlightRecorder(RecorderConfig{Deadline: Picosecond, Out: &standalone})
			return func(sys *System) {
				sys.Observe(tracer.Observer())
				sys.Observe(recorder.Observer())
				sys.Observe(boundary)
				sys.Observe(boundary)
			}
		},
		Progress: func(p Progress) { progressDone = p.Done },
	}
	results, err := eng.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	misses, ok := results[0].Metrics.Value("misses")
	if !ok || misses == 0 {
		t.Fatalf("misses metric = %v, %v", misses, ok)
	}
	if got := tracer.Spans(); float64(got) != misses {
		t.Errorf("tracer spans = %d, misses = %.0f", got, misses)
	}
	var buf bytes.Buffer
	if err := tracer.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Errorf("export is not trace-event JSON:\n%.200s", buf.String())
	}
	if !strings.Contains(dumps.String(), "flight recorder") {
		t.Error("1 ps starvation deadline produced no recorder dump")
	}
	if progressDone != 1 {
		t.Errorf("Progress reported Done=%d, want 1", progressDone)
	}

	if started != 2 {
		t.Errorf("MeasurementStarted reached %d of 2 observers", started)
	}
	if !strings.Contains(standalone.String(), "flight recorder") || recorder.Len() == 0 {
		t.Error("the standalone recorder attached through Engine.Attach did not trip")
	}
	if DefaultRecorderSize <= 0 || DefaultStarvationDeadline <= 0 {
		t.Error("implausible recorder defaults")
	}
}
