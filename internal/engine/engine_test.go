package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/stats"
)

// testPlan is a small but non-trivial grid: two protocols, two
// workloads, two seeds (8 simulations at 8 procs).
func testPlan() Plan {
	return Plan{
		Variants:  Grid([]string{ProtoTokenB, ProtoDirectory}, []string{TopoTorus}),
		Workloads: []string{"oltp", "specjbb"},
		Seeds:     []uint64{1, 2},
		Ops:       200,
		Warmup:    400,
		Procs:     8,
	}
}

func TestPlanJobsOrderAndCount(t *testing.T) {
	plan := testPlan()
	plan.Unlimited = []bool{false, true}
	plan.Mutations = []Mutation{
		{Name: "base"},
		{Name: "slow", Apply: func(c *machine.Config) { c.MemLatency *= 2 }},
	}
	jobs, err := plan.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * 2 * 2
	if len(jobs) != want {
		t.Fatalf("got %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Errorf("job %d has Index %d", i, j.Index)
		}
		if j.Point.Ops != 200 || j.Point.Warmup != 400 || j.Point.Procs != 8 {
			t.Errorf("job %d sizing not applied: %+v", i, j.Point)
		}
	}
	// Workloads are the outermost axis, seeds the innermost.
	if jobs[0].Point.Workload != "oltp" || jobs[len(jobs)/2].Point.Workload != "specjbb" {
		t.Errorf("workload axis not outermost: %q then %q",
			jobs[0].Point.Workload, jobs[len(jobs)/2].Point.Workload)
	}
	if jobs[0].Point.Seed != 1 || jobs[1].Point.Seed != 2 {
		t.Errorf("seed axis not innermost: %d then %d", jobs[0].Point.Seed, jobs[1].Point.Seed)
	}
	if jobs[0].Variant != "tokenb-torus" || jobs[0].Mutation != "base" {
		t.Errorf("first job = %q/%q", jobs[0].Variant, jobs[0].Mutation)
	}
}

func TestPlanRejectsEmpty(t *testing.T) {
	if _, err := (Plan{}).Jobs(); err == nil {
		t.Error("empty plan not rejected")
	}
}

// TestEngineDeterministicOutput is the parallelism-invariance contract:
// a grid over two protocols and two seeds must emit byte-identical CSV
// and JSONL whether executed by one worker or eight.
func TestEngineDeterministicOutput(t *testing.T) {
	capture := func(workers int, mkSink func(w *bytes.Buffer) Sink) string {
		var buf bytes.Buffer
		eng := Engine{Workers: workers}
		if _, err := eng.Execute(context.Background(), testPlan(), mkSink(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := []struct {
		format string
		mk     func(w *bytes.Buffer) Sink
	}{
		{"csv", func(w *bytes.Buffer) Sink { return &CSVSink{W: w} }},
		{"jsonl", func(w *bytes.Buffer) Sink { return &JSONLSink{W: w} }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.format, func(t *testing.T) {
			t.Parallel()
			serial := capture(1, c.mk)
			parallel := capture(8, c.mk)
			if serial != parallel {
				t.Errorf("%s output differs between 1 and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s",
					c.format, serial, parallel)
			}
			if lines := strings.Count(serial, "\n"); lines < 8 {
				t.Errorf("%s output has %d lines, want at least 8", c.format, lines)
			}
		})
	}
}

// TestJSONLHeadlinesMatchMetrics: on every JSONL row the five headline
// fields equal their entries in the row's metrics map. A non-finite
// headline is null there and absent from the map.
func TestJSONLHeadlinesMatchMetrics(t *testing.T) {
	var buf bytes.Buffer
	if _, err := (Engine{}).Execute(context.Background(), testPlan(), &JSONLSink{W: &buf}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d JSONL rows, want 8", len(lines))
	}
	for i, line := range lines {
		var row struct {
			CyclesPerTxn  *float64           `json:"cycles_per_txn"`
			AvgMissNS     *float64           `json:"avg_miss_ns"`
			BytesPerMiss  *float64           `json:"bytes_per_miss"`
			ReissuedPct   *float64           `json:"reissued_pct"`
			PersistentPct *float64           `json:"persistent_pct"`
			Metrics       map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]*float64{
			"cycles_per_txn": row.CyclesPerTxn,
			"avg_miss_ns":    row.AvgMissNS,
			"bytes_per_miss": row.BytesPerMiss,
			"reissued_pct":   row.ReissuedPct,
			"persistent_pct": row.PersistentPct,
		} {
			m, ok := row.Metrics[name]
			switch {
			case v == nil && ok:
				t.Errorf("row %d: %s is null but the metrics map holds %v", i, name, m)
			case v != nil && (!ok || m != *v):
				t.Errorf("row %d: %s = %v, metrics map holds %v (present %v)", i, name, *v, m, ok)
			}
		}
	}
}

// TestEnginePanicIsolation checks that one panicking point is confined
// to its own result while every other job still completes.
func TestEnginePanicIsolation(t *testing.T) {
	plan := Plan{
		Variants: []Variant{
			{Name: "good", Point: Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp"}},
			{Name: "bad", Point: Point{Protocol: ProtoTokenB, Topo: TopoTorus, Workload: "oltp",
				Mutate: func(c *machine.Config) { panic("boom") }}},
		},
		Seeds:  []uint64{1},
		Ops:    150,
		Warmup: 300,
		Procs:  4,
	}
	var agg AggregateSink
	results, err := Engine{Workers: 2}.Execute(context.Background(), plan, &agg)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[0].Metrics == nil {
		t.Errorf("healthy job did not complete: %+v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "boom") {
		t.Errorf("panicking job's error = %v", results[1].Err)
	}
	if len(agg.Cells()) != 1 {
		t.Errorf("sink saw %d cells, want only the healthy one", len(agg.Cells()))
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Engine{}.Execute(ctx, testPlan())
	if err != context.Canceled {
		t.Errorf("Execute on cancelled context = %v, want context.Canceled", err)
	}
}

func TestEngineUnknownProtocolFails(t *testing.T) {
	plan := Plan{Variants: []Variant{{Point: Point{Protocol: "nope", Topo: TopoTorus, Workload: "oltp"}}}}
	if _, err := (Engine{}).Execute(context.Background(), plan); err == nil {
		t.Error("unknown protocol did not fail the plan")
	}
}

func TestAggregateSinkGroupsSeeds(t *testing.T) {
	var agg AggregateSink
	if _, err := (Engine{}).Execute(context.Background(), testPlan(), &agg); err != nil {
		t.Fatal(err)
	}
	cells := agg.Cells()
	if len(cells) != 4 { // 2 workloads x 2 variants, seeds collapsed
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		if len(c.Snapshots) != 2 {
			t.Errorf("cell %s/%s has %d snapshots, want 2", c.Variant, c.Workload, len(c.Snapshots))
		}
		if c.Mean("cycles_per_txn") <= 0 {
			t.Errorf("cell %s/%s mean cycles = %v", c.Variant, c.Workload, c.Mean("cycles_per_txn"))
		}
	}
	if got := agg.Find("tokenb-torus", "oltp", "", false); got == nil {
		t.Error("Find did not locate the tokenb/oltp cell")
	}
	if got := agg.Find("tokenb-torus", "nope", "", false); got != nil {
		t.Error("Find located a nonexistent cell")
	}
}

// TestEngineProgress checks the optional progress callback counts every
// job exactly once, ends at the total, and carries the completed result.
func TestEngineProgress(t *testing.T) {
	plan := testPlan()
	plan.Workloads = plan.Workloads[:1]
	var calls []int
	eng := Engine{Workers: 4, Progress: func(p Progress) {
		if p.Total != 4 {
			t.Errorf("total = %d, want 4", p.Total)
		}
		if p.Failed != 0 {
			t.Errorf("failed = %d, want 0", p.Failed)
		}
		if p.Last == nil || p.Last.Metrics == nil || p.Last.Err != nil {
			t.Errorf("progress %d lacks its completed result: %+v", p.Done, p.Last)
		}
		calls = append(calls, p.Done)
	}}
	if _, err := eng.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 || calls[len(calls)-1] != 4 {
		t.Errorf("progress calls = %v", calls)
	}
}

// TestEngineProgressFailures checks Failed counts errored jobs and the
// failing job's result reaches the callback with its error set.
func TestEngineProgressFailures(t *testing.T) {
	plan := testPlan()
	plan.Workloads = plan.Workloads[:1]
	plan.Variants = append([]Variant(nil), plan.Variants...)
	bad := plan.Variants[0]
	bad.Name = "panicky"
	bad.Point.Mutate = func(c *machine.Config) { panic("forced failure") }
	plan.Variants[0] = bad
	var lastFailed int
	sawErr := false
	eng := Engine{Workers: 2, Progress: func(p Progress) {
		lastFailed = p.Failed
		if p.Last != nil && p.Last.Err != nil {
			sawErr = true
		}
	}}
	if _, err := eng.Execute(context.Background(), plan); err == nil {
		t.Fatal("want error from the panicking variant")
	}
	if lastFailed != 2 { // the bad variant ran under both seeds
		t.Errorf("final Failed = %d, want 2", lastFailed)
	}
	if !sawErr {
		t.Error("no progress report carried the failing result")
	}
}

// TestEngineAttach checks the per-job Attach hook sees every job and its
// returned function receives the assembled system before the run.
func TestEngineAttach(t *testing.T) {
	plan := testPlan()
	plan.Workloads = plan.Workloads[:1]
	var mu sync.Mutex
	attached := map[int]bool{}
	eng := Engine{Workers: 4, Attach: func(job Job) func(*machine.System) {
		return func(sys *machine.System) {
			if sys.Metrics == nil || sys.Net == nil {
				t.Errorf("job %d: attach received a half-built system", job.Index)
			}
			mu.Lock()
			attached[job.Index] = true
			mu.Unlock()
		}
	}}
	results, err := eng.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(attached) != len(results) {
		t.Errorf("attach hook ran for %d of %d jobs", len(attached), len(results))
	}
}

// TestAggregateMean: a cell's mean sums its seeds' values and divides
// once, and an empty cell reads 0.
func TestAggregateMean(t *testing.T) {
	var a Aggregate
	if got := a.Mean("x"); got != 0 {
		t.Errorf("empty cell mean = %v, want 0", got)
	}
	for _, v := range []uint64{2, 4, 4, 4, 5, 5, 7, 9} {
		ms := stats.NewMetricSet()
		ms.Counter(stats.Desc{Name: "x"}).Add(v)
		a.Snapshots = append(a.Snapshots, ms.Snapshot())
	}
	if got := a.Mean("x"); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
}
