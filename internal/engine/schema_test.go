package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

// commonSchemaPrefix is the machine + interconnect schema every protocol
// exposes, in registration order. This is a golden list: renaming or
// reordering a metric breaks downstream column selections and JSONL
// consumers, so it must fail loudly here and be an explicit decision.
var commonSchemaPrefix = []string{
	"elapsed_ns",
	"transactions",
	"cycles_per_txn",
	"accesses",
	"l1_hits",
	"l2_hits",
	"upgrades",
	"writebacks",
	"misses",
	"misses_not_reissued",
	"misses_reissued_once",
	"misses_reissued_more",
	"misses_persistent",
	"reissued_pct",
	"persistent_pct",
	"avg_miss_ns",
	"miss_latency_p50_ns",
	"miss_latency_p99_ns",
	"miss_latency_max_ns",
	"bytes_per_miss",
	"bytes_per_miss_request",
	"bytes_per_miss_reissue",
	"bytes_per_miss_control",
	"bytes_per_miss_data",
	"events_scheduled",
	"events_executed",
	"bytes_total",
	"bytes_request",
	"bytes_reissue",
	"bytes_control",
	"bytes_data",
	"msgs_request",
	"msgs_reissue",
	"msgs_control",
	"msgs_data",
}

// protocolSchemaSuffix is each built-in protocol's own contribution.
var protocolSchemaSuffix = map[string][]string{
	"tokenb":    {"reissues", "token_transfers", "persistent_activations"},
	"tokend":    {"reissues", "token_transfers", "persistent_activations"},
	"tokenm":    {"reissues", "token_transfers", "persistent_activations"},
	"snooping":  {"snoop_broadcasts"},
	"directory": {"dir_home_requests"},
	"hammer":    {"hammer_home_requests"},
}

// TestMetricSchemaGolden locks the metric schema: deterministic names in
// a deterministic order per protocol. It runs before any test in this
// file registers a probe (tests in a file run in declaration order), so
// the schema here is exactly the built-ins'.
func TestMetricSchemaGolden(t *testing.T) {
	for proto, suffix := range protocolSchemaSuffix {
		descs, err := engine.MetricSchema(engine.Point{Protocol: proto})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		var names []string
		for _, d := range descs {
			names = append(names, d.Name)
			if d.Unit == "" || d.Help == "" || d.Fmt == "" {
				t.Errorf("%s: metric %q missing unit/help/fmt: %+v", proto, d.Name, d)
			}
		}
		want := append(append([]string(nil), commonSchemaPrefix...), suffix...)
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s schema drifted:\n got %v\nwant %v", proto, names, want)
		}
	}
	// Schema queries resolve through the registry like everything else.
	if _, err := engine.MetricSchema(engine.Point{Protocol: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown protocol schema error = %v", err)
	}
}

// TestMetricSchemaColumnFormats locks the format verbs behind the
// columns DefaultColumns selects, which keep CSV output byte-stable.
func TestMetricSchemaColumnFormats(t *testing.T) {
	descs, err := engine.MetricSchema(engine.Point{Protocol: "tokenb"})
	if err != nil {
		t.Fatal(err)
	}
	fmts := map[string]string{}
	for _, d := range descs {
		fmts[d.Name] = d.Fmt
	}
	for name, want := range map[string]string{
		"cycles_per_txn": "%.2f",
		"avg_miss_ns":    "%.1f",
		"bytes_per_miss": "%.1f",
		"reissued_pct":   "%.2f",
		"persistent_pct": "%.3f",
	} {
		if fmts[name] != want {
			t.Errorf("%s Fmt = %q, want %q", name, fmts[name], want)
		}
	}
}

// TestMetricColumnsMatchRunFields verifies the by-name columns report
// exactly the ratios recomputed from the run's counters, for a real run.
func TestMetricColumnsMatchRunFields(t *testing.T) {
	sys, snap, err := engine.RunPoint(engine.Point{
		Protocol: "tokenb", Workload: "oltp", Procs: 4, Ops: 300, Warmup: 300, Seed: 7,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := engine.Result{Metrics: snap}
	count := sys.Metrics.Count
	m := stats.Misses{
		Issued:       count("misses"),
		ReissuedOnce: count("misses_reissued_once"),
		ReissuedMore: count("misses_reissued_more"),
		Persistent:   count("misses_persistent"),
	}
	var traffic uint64
	for c := 0; c < msg.NumCategories; c++ {
		traffic += count("bytes_" + msg.Category(c).Slug())
	}
	elapsed, _ := snap.Value("elapsed_ns")
	lat := sys.Metrics.Merged("avg_miss_ns")
	for _, tc := range []struct {
		col  engine.Column
		want string
	}{
		{engine.ColCyclesPerTxn, fmt.Sprintf("%.2f", elapsed/float64(count("transactions")))},
		{engine.ColAvgMissNS, fmt.Sprintf("%.1f", lat.Mean().Nanoseconds())},
		{engine.ColBytesPerMiss, fmt.Sprintf("%.1f", float64(traffic)/float64(m.Issued))},
		{engine.ColReissuedPct, fmt.Sprintf("%.2f", m.Frac(m.ReissuedOnce+m.ReissuedMore))},
		{engine.ColPersistentPct, fmt.Sprintf("%.3f", m.Frac(m.Persistent))},
		{engine.MetricColumn("transactions"), fmt.Sprintf("%d", count("transactions"))},
		{engine.MetricColumn("misses"), fmt.Sprintf("%d", m.Issued)},
	} {
		if got := tc.col.Value(r); got != tc.want {
			t.Errorf("column %s = %q, want %q", tc.col.Name, got, tc.want)
		}
	}
	// A metric the snapshot lacks renders an empty cell, not an error.
	if got := engine.MetricColumn("no_such_metric").Value(r); got != "" {
		t.Errorf("missing metric column = %q, want empty", got)
	}
	if got := engine.MetricColumn("anything").Value(engine.Result{}); got != "" {
		t.Errorf("nil-snapshot column = %q, want empty", got)
	}
}

// TestColumnByNameResolution covers the -columns resolution order:
// identity fields, then metrics, then mutation tags.
func TestColumnByNameResolution(t *testing.T) {
	sys, snap, err := engine.RunPoint(engine.Point{
		Protocol: "directory", Workload: "apache", Procs: 4, Ops: 200, Warmup: 200,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := engine.Result{
		Job: engine.Job{
			Variant: "dir-v", Mutation: "m1",
			Tags:  map[string]string{"bandwidth_gbps": "3.2", "misses": "tag-shadowed"},
			Point: engine.Point{Protocol: "directory", Topo: "torus", Workload: "apache", Procs: 4, Seed: 9},
		},
		Metrics: snap,
	}
	cols := engine.ColumnsByName([]string{"protocol", "seed", "misses", "bandwidth_gbps", "unknown"})
	got := make([]string, len(cols))
	for i, c := range cols {
		got[i] = c.Value(r)
	}
	want := []string{
		"directory", "9",
		fmt.Sprintf("%d", sys.Metrics.Count("misses")), // metric wins over the same-named tag
		"3.2", // tag fallback
		"",    // unknown name: empty cells
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resolved values = %q, want %q", got, want)
	}
	if cols[2].Name != "misses" || cols[4].Name != "unknown" {
		t.Errorf("column headers wrong: %v", []string{cols[2].Name, cols[4].Name})
	}
}

// TestProbeDerivesMetricEndToEnd registers a probe through the registry
// and checks the full path: observer events → probe counter → snapshot →
// by-name CSV column, under a parallel engine run. It is declared last
// in this file because the probe stays registered for the rest of the
// binary (the earlier golden test must see the built-in schema).
func TestProbeDerivesMetricEndToEnd(t *testing.T) {
	registry.RegisterProbe(registry.Probe{
		Name: "engine-test-slow-miss",
		New: func(ms *stats.MetricSet) stats.Observer {
			slow := ms.Counter(stats.Desc{
				Name: "probe_slow_misses", Unit: "count", Fmt: "%.0f",
				Help: "misses slower than 500ns",
			})
			total := ms.Counter(stats.Desc{
				Name: "probe_completed_misses", Unit: "count", Fmt: "%.0f",
				Help: "misses observed to complete",
			})
			return stats.Observer{
				Kinds: stats.MaskOf(stats.MissCompleted),
				On: func(ev stats.Event) {
					total.Inc()
					if ev.Aux > 500*sim.Nanosecond {
						slow.Inc()
					}
				},
			}
		},
	})

	// The probe's metrics append to every protocol's schema.
	descs, err := engine.MetricSchema(engine.Point{Protocol: "tokenb"})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(descs))
	for i, d := range descs {
		names[i] = d.Name
	}
	wantTail := []string{"probe_slow_misses", "probe_completed_misses"}
	if got := names[len(names)-2:]; !reflect.DeepEqual(got, wantTail) {
		t.Fatalf("schema tail = %v, want %v", got, wantTail)
	}

	// Run a two-seed plan in parallel and select the probe metric as a
	// CSV column by name.
	plan := engine.Plan{
		Variants: []engine.Variant{{Point: engine.Point{Protocol: "tokenb", Workload: "oltp"}}},
		Seeds:    []uint64{1, 2},
		Ops:      250, Warmup: 250, Procs: 4,
	}
	var buf bytes.Buffer
	sink := &engine.CSVSink{W: &buf, Columns: engine.ColumnsByName(
		[]string{"seed", "probe_completed_misses", "probe_slow_misses"})}
	results, err := engine.Engine{Workers: 2}.Execute(context.Background(), plan, sink)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "seed,probe_completed_misses,probe_slow_misses" {
		t.Fatalf("unexpected CSV:\n%s", buf.String())
	}
	for i, r := range results {
		// The probe counted exactly the measured interval's misses: the
		// MetricSet reset at the warmup boundary covered its counter too.
		sys, _, err := engine.RunPoint(r.Point, nil)
		if err != nil {
			t.Fatal(err)
		}
		completed := sys.Metrics.Merged("avg_miss_ns")
		v, ok := r.Metrics.Value("probe_completed_misses")
		if !ok || uint64(v) != completed.Count() {
			t.Errorf("seed %d: probe_completed_misses = %v (ok=%v), run counted %d",
				r.Point.Seed, v, ok, completed.Count())
		}
		wantRow := fmt.Sprintf("%d,%.0f,%s", r.Point.Seed, v, mustFormatted(t, r.Metrics, "probe_slow_misses"))
		if lines[i+1] != wantRow {
			t.Errorf("row %d = %q, want %q", i+1, lines[i+1], wantRow)
		}
	}
}

// TestJSONLSinkNonFiniteValues locks the degenerate-run behavior: a
// measured interval with zero transactions reports +Inf cycles/txn,
// which serializes as null instead of aborting the sweep at its last
// step.
func TestJSONLSinkNonFiniteValues(t *testing.T) {
	var buf bytes.Buffer
	sink := &engine.JSONLSink{W: &buf}
	// A machine that has run nothing: zero transactions make
	// cycles_per_txn +Inf.
	cfg := machine.DefaultConfig()
	cfg.Procs = 4
	sys := machine.NewSystem(cfg, topology.NewTorusFor(4), 1)
	if err := sink.Emit(engine.Result{
		Job:     engine.Job{Point: engine.Point{Protocol: "tokenb", Topo: "torus"}},
		Metrics: sys.Metrics.Snapshot(),
	}); err != nil {
		t.Fatalf("Emit with non-finite metrics: %v", err)
	}
	line := buf.String()
	if !strings.Contains(line, `"cycles_per_txn":null`) {
		t.Errorf("non-finite cycles_per_txn not serialized as null: %s", line)
	}
	if !strings.Contains(line, `"avg_miss_ns":0`) {
		t.Errorf("finite fields disturbed: %s", line)
	}
}

func mustFormatted(t *testing.T, s *stats.Snapshot, name string) string {
	t.Helper()
	v, ok := s.Formatted(name)
	if !ok {
		t.Fatalf("metric %s missing from snapshot", name)
	}
	return v
}
