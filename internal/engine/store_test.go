package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/resultstore"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/workload"
)

// storePlan is a small cacheable grid: one protocol, one workload, two
// seeds, two bandwidth mutations (4 simulations at 4 procs).
func storePlan() Plan {
	var muts []Mutation
	for _, gbps := range []float64{1.6, 6.4} {
		bw := gbps
		muts = append(muts, Mutation{
			Name:  "bw",
			Tags:  map[string]string{"bandwidth_gbps": "x"},
			Apply: func(c *machine.Config) { c.Net.LinkBandwidth = bw * 1e9 },
		})
	}
	return Plan{
		Variants:  Grid([]string{ProtoTokenB}, []string{TopoTorus}),
		Workloads: []string{"oltp"},
		Mutations: muts,
		Seeds:     []uint64{1, 2},
		Ops:       100,
		Warmup:    100,
		Procs:     4,
	}
}

// --- Point hashing ------------------------------------------------------

// TestPointKeyStability pins what the content hash must and must not
// see. Keys must change with anything that can change results (seed,
// ops, bandwidth, a config mutation) and must NOT change with
// execution/observability knobs (islands, flight-recorder settings,
// debug-log destination) — the same exclusions as the CSV schema, so an
// archived result is valid however the point is executed or observed.
func TestPointKeyStability(t *testing.T) {
	base := Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Procs: 4, Ops: 100, Warmup: 100, Seed: 1}
	key := func(pt Point) string {
		t.Helper()
		k, err := PointKey(pt)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0 := key(base)
	if k2 := key(base); k2 != k0 {
		t.Errorf("key not deterministic: %s vs %s", k0, k2)
	}

	same := []struct {
		name string
		mod  func(*Point)
	}{
		{"islands", func(pt *Point) { pt.Islands = 4 }},
		{"recorder knobs", func(pt *Point) {
			pt.Mutate = func(c *machine.Config) {
				c.RecorderSize = 4096
				c.StarvationDeadline = -1
				c.DebugLog = &bytes.Buffer{}
			}
		}},
	}
	for _, tc := range same {
		pt := base
		tc.mod(&pt)
		if k := key(pt); k != k0 {
			t.Errorf("%s changed the key: %s vs %s", tc.name, k, k0)
		}
	}

	diff := []struct {
		name string
		mod  func(*Point)
	}{
		{"seed", func(pt *Point) { pt.Seed = 2 }},
		{"ops", func(pt *Point) { pt.Ops = 200 }},
		{"warmup", func(pt *Point) { pt.Warmup = 200 }},
		{"procs", func(pt *Point) { pt.Procs = 16 }},
		{"unlimited", func(pt *Point) { pt.Unlimited = true }},
		{"workload", func(pt *Point) { pt.Workload = "apache" }},
		{"protocol", func(pt *Point) { pt.Protocol = ProtoDirectory }},
		{"mutation", func(pt *Point) {
			pt.Mutate = func(c *machine.Config) { c.MemLatency *= 2 }
		}},
	}
	seen := map[string]string{k0: "base"}
	for _, tc := range diff {
		pt := base
		tc.mod(&pt)
		k := key(pt)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s: %s", tc.name, prev, k)
		}
		seen[k] = tc.name
	}
}

// TestPointKeySaltChange guards stale-cache correctness: bumping the
// code-version salt must invalidate every key, so results archived
// before a simulator-behavior change can never satisfy sweeps run after
// it.
func TestPointKeySaltChange(t *testing.T) {
	pt := Point{Protocol: ProtoTokenB, Workload: "oltp", Seed: 1}
	k1, err := pointKey(pt, CodeVersion)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := pointKey(pt, CodeVersion+"-next")
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Errorf("salt change did not change the key: %s", k1)
	}
	if k3, _ := PointKey(pt); k3 != k1 {
		t.Errorf("PointKey does not use CodeVersion: %s vs %s", k3, k1)
	}
}

// TestPointKeyRegistrationOrderInvariance: components enter the hash by
// resolved name, so registering more components — which shifts every
// table position after them — must not move a single key. Without this,
// a user extension would silently invalidate a whole archive.
func TestPointKeyRegistrationOrderInvariance(t *testing.T) {
	pt := Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Seed: 7}
	before, err := PointKey(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Registration is global and permanent within the test process;
	// unique names keep this safe for every other test.
	registry.RegisterWorkload(registry.Workload{
		Name: "hashtest-workload",
		New:  func(procs int) machine.Generator { return workload.NewUniform(64, 0.3, sim.Nanosecond, procs) },
	})
	registry.RegisterProtocol(registry.Protocol{
		Name: "hashtest-protocol",
		Build: func(sys *machine.System) ([]machine.Controller, func() error) {
			return nil, nil
		},
	})
	after, err := PointKey(pt)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("registration order leaked into the key: %s vs %s", before, after)
	}
}

// TestPointKeyParallelism: the key is a pure function of the point —
// many goroutines hashing the same point must agree (run under -race in
// CI, which also proves the registry reads are safe).
func TestPointKeyParallelism(t *testing.T) {
	pt := Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp", Procs: 8, Seed: 3}
	want, err := PointKey(pt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if k, err := PointKey(pt); err != nil || k != want {
					t.Errorf("concurrent key = %s, %v; want %s", k, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCanonicalEncodeMapOrder: the canonical encoder must render maps
// (workload parameters, future config fields) identically regardless of
// Go's randomized iteration order.
func TestCanonicalEncodeMapOrder(t *testing.T) {
	m := map[string]float64{"think": 5, "write": 0.3, "blocks": 2048, "alpha": 0.01}
	var want bytes.Buffer
	canonicalEncode(&want, "params", reflect.ValueOf(m))
	for i := 0; i < 100; i++ {
		var got bytes.Buffer
		canonicalEncode(&got, "params", reflect.ValueOf(m))
		if got.String() != want.String() {
			t.Fatalf("iteration %d: encoding varies:\n%s\nvs\n%s", i, got.String(), want.String())
		}
	}
	if !strings.Contains(want.String(), "params[alpha]=0.01\n") {
		t.Errorf("unexpected map encoding:\n%s", want.String())
	}
}

// TestPointKeyGenID: opaque generators have no content identity unless
// the caller names one; naming it makes the point cacheable and the
// name part of the key.
func TestPointKeyGenID(t *testing.T) {
	newGen := func(procs int) machine.Generator {
		return workload.NewUniform(2048, 0.3, 5*sim.Nanosecond, procs)
	}
	pt := Point{Protocol: ProtoTokenB, Topo: TopoTorus, NewGen: newGen, Procs: 4, Seed: 1}
	if _, err := PointKey(pt); !errors.Is(err, ErrUncacheable) {
		t.Fatalf("want ErrUncacheable for anonymous NewGen, got %v", err)
	}
	pt.GenID = "uniform/2048/0.3/5ns"
	k1, err := PointKey(pt)
	if err != nil {
		t.Fatal(err)
	}
	pt.GenID = "uniform/4096/0.3/5ns"
	k2, err := PointKey(pt)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("GenID does not reach the key")
	}
}

// --- Store-backed execution --------------------------------------------

// runWithSinks executes the plan and returns CSV and JSONL output.
func runWithSinks(t *testing.T, eng Engine, plan Plan) (string, string, []Result) {
	t.Helper()
	var csvBuf, jsonBuf bytes.Buffer
	results, err := eng.Execute(context.Background(), plan,
		&CSVSink{W: &csvBuf}, &JSONLSink{W: &jsonBuf})
	if err != nil {
		t.Fatal(err)
	}
	return csvBuf.String(), jsonBuf.String(), results
}

// TestStoreReplayByteIdentity is the tentpole's core guarantee: a fully
// cached re-run recalls every point from the store — zero simulations —
// and its CSV and JSONL output is byte-identical to the computed run's.
func TestStoreReplayByteIdentity(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := storePlan()

	var attached int
	counting := func(job Job) func(*machine.System) {
		attached++
		return nil
	}

	cold := Engine{Workers: 1, Store: st, Reuse: true, Attach: counting}
	csv1, json1, res1 := runWithSinks(t, cold, plan)
	if attached != len(res1) {
		t.Fatalf("cold run simulated %d of %d points", attached, len(res1))
	}
	for _, r := range res1 {
		if r.Cached {
			t.Errorf("cold run job %d marked cached", r.Index)
		}
	}
	if n, _ := st.Len(); n != len(res1) {
		t.Fatalf("store holds %d entries after cold run, want %d", n, len(res1))
	}

	attached = 0
	warm := Engine{Workers: 2, Store: st, Reuse: true, Attach: counting}
	csv2, json2, res2 := runWithSinks(t, warm, plan)
	if attached != 0 {
		t.Errorf("warm run simulated %d points, want 0", attached)
	}
	for _, r := range res2 {
		if !r.Cached {
			t.Errorf("warm run job %d not cached", r.Index)
		}
	}
	if csv1 != csv2 {
		t.Errorf("CSV output differs between computed and recalled runs:\n%s\nvs\n%s", csv1, csv2)
	}
	if json1 != json2 {
		t.Errorf("JSONL output differs between computed and recalled runs:\n%s\nvs\n%s", json1, json2)
	}

	// Without Reuse the store is write-through only: points recompute.
	attached = 0
	writeOnly := Engine{Workers: 1, Store: st, Attach: counting}
	csv3, _, _ := runWithSinks(t, writeOnly, plan)
	if attached != len(res1) {
		t.Errorf("write-through run simulated %d of %d points", attached, len(res1))
	}
	if csv3 != csv1 {
		t.Error("write-through run output differs")
	}
}

// TestStoreResumeAfterCancel models a killed sweep: the first execution
// is cancelled mid-plan (completed points already archived), the second
// resumes against the same store and must emit byte-identical output to
// a never-interrupted run, recomputing only what is missing. The cancel
// happens on the single worker, as the second point starts, so no later
// point can be in flight when it lands.
func TestStoreResumeAfterCancel(t *testing.T) {
	plan := storePlan()
	golden, goldenJSON, _ := runWithSinks(t, Engine{Workers: 1}, plan)

	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := Engine{
		Workers: 1,
		Store:   st,
		Reuse:   true,
		Attach: func(job Job) func(*machine.System) {
			if job.Index == 1 {
				cancel() // die mid-plan; this point still runs and is archived
			}
			return nil
		},
	}
	var devnull bytes.Buffer
	if _, err := interrupted.Execute(ctx, plan, &JSONLSink{W: &devnull}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	n, _ := st.Len()
	if n == 0 || n >= 4 {
		t.Fatalf("store holds %d entries after cancellation, want a strict mid-plan subset", n)
	}

	resumed := Engine{Workers: 2, Store: st, Reuse: true}
	csv2, json2, res := runWithSinks(t, resumed, plan)
	if csv2 != golden || json2 != goldenJSON {
		t.Error("resumed output is not byte-identical to an uninterrupted run")
	}
	var cached int
	for _, r := range res {
		if r.Cached {
			cached++
		}
	}
	if cached != n {
		t.Errorf("resumed run recalled %d points, want %d (the archived ones)", cached, n)
	}
}

// TestShardPartitionEquivalence: two shards of a plan must run disjoint
// job subsets covering every index, each in plan order, and the
// index-merge of their results must equal the single-process run.
func TestShardPartitionEquivalence(t *testing.T) {
	plan := storePlan()
	_, whole, _ := runWithSinks(t, Engine{Workers: 1}, plan)

	lines := map[int]string{} // plan index → JSONL line
	total := 0
	for shard := 0; shard < 2; shard++ {
		var buf bytes.Buffer
		results, err := Engine{Workers: 1, Shard: shard, Shards: 2}.Execute(
			context.Background(), plan, &JSONLSink{W: &buf})
		if err != nil {
			t.Fatal(err)
		}
		out := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(out) != len(results) {
			t.Fatalf("shard %d emitted %d lines for %d jobs", shard, len(out), len(results))
		}
		for i, r := range results {
			if r.Index%2 != shard {
				t.Errorf("shard %d ran job %d", shard, r.Index)
			}
			if _, dup := lines[r.Index]; dup {
				t.Errorf("job %d ran on both shards", r.Index)
			}
			lines[r.Index] = out[i]
			total++
		}
	}
	jobs, err := plan.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if total != len(jobs) {
		t.Fatalf("shards covered %d of %d jobs", total, len(jobs))
	}
	var merged strings.Builder
	for i := 0; i < total; i++ {
		merged.WriteString(lines[i])
		merged.WriteByte('\n')
	}
	if merged.String() != whole {
		t.Errorf("index-merged shard output differs from single-process run:\n%s\nvs\n%s",
			merged.String(), whole)
	}
}

// TestShardValidation rejects nonsense shard specs up front.
func TestShardValidation(t *testing.T) {
	for _, bad := range []Engine{{Shard: 2, Shards: 2}, {Shard: -1, Shards: 3}, {Shard: 1}} {
		if _, err := bad.Execute(context.Background(), storePlan()); err == nil {
			t.Errorf("shard %d/%d: want error", bad.Shard, bad.Shards)
		}
	}
}

// endRecorder wraps a sink and records End calls.
type endRecorder struct {
	Sink
	ends int
}

func (e *endRecorder) End() error {
	if es, ok := e.Sink.(EndSink); ok {
		if err := es.End(); err != nil {
			return err
		}
	}
	e.ends++
	return nil
}

// TestCancelFlushesSinks is the Ctrl-C regression: a cancelled Execute
// must still End() its sinks, so output buffered in a bufio.Writer
// reaches the file and the partial CSV parses cleanly — a header plus
// whole rows, no torn line.
func TestCancelFlushesSinks(t *testing.T) {
	plan := storePlan()
	ctx, cancel := context.WithCancel(context.Background())
	var raw bytes.Buffer
	bw := bufio.NewWriter(&raw)
	sink := &endRecorder{Sink: &CSVSink{W: bw}}
	eng := Engine{
		Workers: 1,
		Progress: func(p Progress) {
			if p.Done == 2 {
				cancel()
			}
		},
	}
	if _, err := eng.Execute(ctx, plan, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if sink.ends != 1 {
		t.Fatalf("End called %d times, want 1", sink.ends)
	}
	out := raw.String()
	if out == "" || !strings.HasSuffix(out, "\n") {
		t.Fatalf("partial output torn or empty: %q", out)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("partial CSV does not parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("partial CSV has %d rows, want header plus at least one completed point", len(rows))
	}
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			t.Errorf("row %d has %d fields, want %d", i, len(row), len(rows[0]))
		}
	}
}
