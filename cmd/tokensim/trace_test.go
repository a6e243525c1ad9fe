package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tokencoherence/internal/engine"
)

// traceShape is the subset of the Chrome trace-event format the smoke
// test validates.
type traceShape struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string      `json:"name"`
		Ph   string      `json:"ph"`
		Ts   json.Number `json:"ts"`
		Dur  json.Number `json:"dur"`
	} `json:"traceEvents"`
}

// TestTraceSmoke is the CI smoke test (it runs under -short): a tokenb
// 16-processor point with -trace must emit valid trace-event JSON whose
// complete-span count equals the run's misses metric.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	args := []string{"-protocol", "tokenb", "-topo", "torus", "-workload", "oltp",
		"-procs", "16", "-ops", "300", "-warmup", "300", "-seeds", "1",
		"-trace", dir, "-columns", "misses"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || lines[0] != "misses" {
		t.Fatalf("-columns misses output wrong:\n%s", out.String())
	}
	misses, err := strconv.Atoi(lines[1])
	if err != nil || misses == 0 {
		t.Fatalf("misses row = %q", lines[1])
	}

	b, err := os.ReadFile(filepath.Join(dir, "point-0000-tokenb-torus-oltp-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr traceShape
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", tr.DisplayTimeUnit)
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
		case "X":
			spans++
			if ev.Dur == "" {
				t.Errorf("complete span %q lacks dur", ev.Name)
			}
			fallthrough
		case "B", "i":
			if ev.Ts == "" {
				t.Errorf("event %q (%s) lacks ts", ev.Name, ev.Ph)
			}
		default:
			t.Errorf("unexpected event phase %q in %q", ev.Ph, ev.Name)
		}
	}
	if spans != misses {
		t.Errorf("trace has %d complete spans, misses metric is %d", spans, misses)
	}
}

// TestTraceMultiSeed checks several seeds write one trace each, named
// by plan index and seed.
func TestTraceMultiSeed(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	args := []string{"-protocol", "tokenb", "-workload", "oltp",
		"-procs", "4", "-ops", "150", "-warmup", "150", "-seeds", "1,2",
		"-trace", dir, "-columns", "seed,misses"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 2 {
		t.Errorf("two-seed run wrote %d trace files, want 2", len(files))
	}
	for i, seed := range []string{"1", "2"} {
		name := filepath.Join(dir, fmt.Sprintf("point-%04d-tokenb-torus-oltp-seed%s.json", i, seed))
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("seed %s trace: %v", seed, err)
		}
		var tr traceShape
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Errorf("seed %s trace invalid: %v", seed, err)
		}
	}
}

// TestRecorderFlags checks -deadline wires through to the armed flight
// recorder: an absurdly tight deadline makes the first measured miss
// dump the ring to stderr, while the run itself still succeeds.
func TestRecorderFlags(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-protocol", "tokenb", "-workload", "oltp",
		"-procs", "4", "-ops", "150", "-warmup", "150", "-seeds", "1",
		"-flight-recorder", "64", "-deadline", "1ns"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	dump := errw.String()
	if !strings.Contains(dump, "flight recorder: transaction exceeded starvation deadline") {
		t.Fatalf("no recorder dump on stderr:\n%s", dump)
	}
	if !strings.Contains(dump, "protocol events, oldest first:") {
		t.Errorf("dump lacks the ring listing:\n%s", dump)
	}
	if !strings.Contains(out.String(), "avg miss latency") {
		t.Errorf("run with a tripped recorder printed no statistics:\n%s", out.String())
	}

	// A disabled recorder must not dump even with the same deadline.
	out.Reset()
	errw.Reset()
	args = []string{"-protocol", "tokenb", "-workload", "oltp",
		"-procs", "4", "-ops", "150", "-warmup", "150", "-seeds", "1",
		"-flight-recorder", "-1", "-deadline", "1ns"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(errw.String(), "flight recorder") {
		t.Errorf("disabled recorder still dumped:\n%s", errw.String())
	}
}

// TestTraceExperimentPerPoint: -trace applies to experiments too,
// writing one trace file per point of the plan.
func TestTraceExperimentPerPoint(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	args := []string{"-experiment", "table2", "-ops", "100", "-warmup", "100", "-trace", dir}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"apache", "oltp", "specjbb", "barnes"} // one point per workload
	if len(files) != len(want) {
		t.Fatalf("table2 wrote %d trace files, want %d", len(files), len(want))
	}
	for i, f := range files {
		if name := fmt.Sprintf("point-%04d-tokenb-torus-%s-seed1.json", i, want[i]); f.Name() != name {
			t.Errorf("trace file %d is %s, want %s", i, f.Name(), name)
		}
	}
	if !strings.Contains(out.String(), "Table 2") {
		t.Errorf("traced experiment printed no table:\n%s", out.String())
	}
}

// runTraceSweep runs the tokens sweep with -trace into a fresh dir and
// returns the per-point file contents keyed by file name.
func runTraceSweep(t *testing.T, parallel int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	var out, errw bytes.Buffer
	args := []string{"-experiment", "tokens", "-workload", "apache",
		"-ops", "120", "-warmup", "120",
		"-parallel", fmt.Sprint(parallel), "-trace", dir}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestSweepTraceFiles checks -trace writes one valid Chrome trace per
// point, byte-identical whether the engine ran serial or parallel.
func TestSweepTraceFiles(t *testing.T) {
	serial := runTraceSweep(t, 1)
	if len(serial) == 0 {
		t.Fatal("-trace wrote no files")
	}
	for name, b := range serial {
		if !strings.HasPrefix(name, "point-") || !strings.HasSuffix(name, ".json") {
			t.Errorf("unexpected trace file name %q", name)
		}
		var tr struct {
			DisplayTimeUnit string            `json:"displayTimeUnit"`
			TraceEvents     []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatalf("%s is not valid trace JSON: %v", name, err)
		}
		if tr.DisplayTimeUnit != "ns" || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: displayTimeUnit=%q, %d events", name, tr.DisplayTimeUnit, len(tr.TraceEvents))
		}
	}
	parallel := runTraceSweep(t, 3)
	if len(parallel) != len(serial) {
		t.Fatalf("file counts differ: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Errorf("parallel run lacks %s", name)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between -parallel 1 and -parallel 3", name)
		}
	}
}

// TestSweepProgressSerialized checks per-point -progress lines from a
// parallel run arrive whole: every stderr line is either a well-formed
// point line or the final summary, never a torn interleaving.
func TestSweepProgressSerialized(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-experiment", "tokens", "-workload", "apache",
		"-ops", "120", "-warmup", "120", "-parallel", "4", "-progress"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	pointLine := regexp.MustCompile(`^sweep: \d+/\d+ \S+ seed=\d+ (ok|FAILED)$`)
	summary := regexp.MustCompile(`^sweep: (\d+)/(\d+) points$`)
	lines := strings.Split(strings.TrimSuffix(errw.String(), "\n"), "\n")
	points, summaries := 0, 0
	for _, line := range lines {
		switch {
		case pointLine.MatchString(line):
			points++
		case summary.MatchString(line):
			summaries++
		default:
			t.Errorf("malformed progress line %q", line)
		}
	}
	if points == 0 || summaries != 1 {
		t.Errorf("progress emitted %d point lines and %d summaries:\n%s", points, summaries, errw.String())
	}
	m := summary.FindStringSubmatch(lines[len(lines)-1])
	if m == nil || m[1] != m[2] {
		t.Errorf("last line is not a completed summary: %q", lines[len(lines)-1])
	}
}

// TestSweepTelemetryEndpoint drives the -http telemetry directly: bind
// a free port, feed progress reports, and read the counters back over
// HTTP as any live dashboard would.
func TestSweepTelemetryEndpoint(t *testing.T) {
	var log bytes.Buffer
	tel, err := startTelemetry("127.0.0.1:0", 1, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.stop()
	if !strings.Contains(log.String(), "telemetry on http://") {
		t.Errorf("endpoint not announced: %q", log.String())
	}
	tel.update(engine.Progress{Done: 2, Total: 8, Failed: 1})

	resp, err := http.Get("http://" + tel.addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Sweep map[string]float64 `json:"sweep"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	for key, want := range map[string]float64{
		"points_total": 8, "points_done": 2, "points_failed": 1,
	} {
		if got := vars.Sweep[key]; got != want {
			t.Errorf("sweep.%s = %v, want %v", key, got, want)
		}
	}
	if _, ok := vars.Sweep["eta_seconds"]; !ok {
		t.Error("sweep map lacks eta_seconds")
	}

	// The pprof index must be mounted on the same mux.
	resp, err = http.Get("http://" + tel.addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

// TestSweepHTTPFlag checks the -http flag wires telemetry into a real
// sweep run and announces the bound address on stderr.
func TestSweepHTTPFlag(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-experiment", "tokens", "-workload", "apache",
		"-ops", "120", "-warmup", "120", "-http", "127.0.0.1:0"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "sweep: telemetry on http://127.0.0.1:") {
		t.Errorf("bound telemetry address not announced: %q", errw.String())
	}
	if !strings.Contains(out.String(), "cycles_per_txn") {
		t.Errorf("monitored sweep emitted no CSV:\n%s", out.String())
	}
}
