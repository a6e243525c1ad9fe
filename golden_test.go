package tokencoherence

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current outputs instead of comparing against it")

// goldenArgs sizes every golden sweep and trace: small enough that the
// whole test stays in CI budget, large enough that every sweep point
// completes transactions on every protocol.
var goldenArgs = []string{"-ops", "200", "-warmup", "300"}

// TestGoldenOutputs pins the simulator's user-visible output byte for
// byte, so refactors of the simulation core (the kernel, caches,
// interconnect) are checked against the exact bytes the previous code
// produced rather than against invariants alone. It builds the tokensim
// command and compares, against testdata/golden:
//
//   - whole: every parameter sweep as JSONL and CSV, -list-metrics,
//     tokensim -experiment all at a small size, and a two-seed tokenb
//     custom point as its statistics block and as -columns CSV;
//   - as SHA-256 + byte count: the hop-level Chrome traces of a tokenb
//     16-processor point and of a dir2 64-processor point run serially
//     and on four islands, and the stderr flight-recorder dumps of the
//     tokenb point under a 500ns starvation deadline;
//   - as FNV-64a + byte count: the raw stats.Event stream (hops included)
//     of the 64-processor points TestIslandKernelByteIdentity64 checks.
//
// Run with -update to regenerate the files after an intentional output
// change, and say why in the change that commits them.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden outputs skipped in -short mode")
	}
	bin := t.TempDir()
	tokensim := filepath.Join(bin, "tokensim")
	build := exec.Command("go", "build", "-o", tokensim, "./cmd/tokensim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Every subtest runs in parallel: the single-threaded points and the
	// multi-point sweeps share the CPUs, keeping the test in CI budget.
	golden := func(name string, produce func(t *testing.T) []byte) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, name, produce(t))
		})
	}
	for _, kind := range []string{"bandwidth", "procs", "tokens", "mshr"} {
		golden("sweep-"+kind+".jsonl", func(t *testing.T) []byte {
			return runCLI(t, tokensim, slices.Concat([]string{"-experiment", kind, "-format", "json"}, goldenArgs)...)
		})
		golden("sweep-"+kind+".csv", func(t *testing.T) []byte {
			return runCLI(t, tokensim, slices.Concat([]string{"-experiment", kind}, goldenArgs)...)
		})
	}
	golden("tokensim-list-metrics.txt", func(t *testing.T) []byte { return runCLI(t, tokensim, "-list-metrics") })
	golden("tokensim-experiment-all.txt", func(t *testing.T) []byte {
		return runCLI(t, tokensim, "-experiment", "all", "-ops", "100", "-warmup", "100", "-maxprocs", "16")
	})
	point := []string{"-protocol", "tokenb", "-seeds", "1,2", "-ops", "200", "-warmup", "300"}
	golden("tokensim-tokenb-seeds12.txt", func(t *testing.T) []byte { return runCLI(t, tokensim, point...) })
	golden("tokensim-tokenb-seeds12-columns.csv", func(t *testing.T) []byte {
		return runCLI(t, tokensim, slices.Concat(point, []string{"-columns", "seed,cycles_per_txn,reissues"})...)
	})
	golden("tokensim-tokenb16-deadline500ns-stderr.sha256", func(t *testing.T) []byte {
		_, dump := runCmd(t, tokensim, slices.Concat([]string{"-protocol", "tokenb", "-procs", "16", "-deadline", "500ns"}, goldenArgs)...)
		return fmt.Appendf(nil, "sha256 %x\nbytes %d\n", sha256.Sum256(dump), len(dump))
	})
	for _, tc := range []struct{ name, proto, procs, islands string }{
		{"tokensim-tokenb16-trace-hops.sha256", "tokenb", "16", "1"},
		{"tokensim-dir2-64-trace-hops.sha256", "dir2", "64", "1"},
		{"tokensim-dir2-64-islands4-trace-hops.sha256", "dir2", "64", "4"},
	} {
		golden(tc.name, func(t *testing.T) []byte {
			dir := filepath.Join(bin, tc.name)
			runCLI(t, tokensim, slices.Concat([]string{"-protocol", tc.proto, "-procs", tc.procs, "-islands", tc.islands, "-trace", dir, "-trace-hops"}, goldenArgs)...)
			trace, err := os.ReadFile(filepath.Join(dir, "point-0000-"+tc.proto+"-torus-oltp-seed1.json"))
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Appendf(nil, "sha256 %x\nbytes %d\n", sha256.Sum256(trace), len(trace))
		})
	}
	for _, tc := range []struct{ proto, topo string }{
		{engine.ProtoTokenB, engine.TopoTorus},
		{engine.ProtoSnooping, engine.TopoTree},
	} {
		golden("events-"+tc.proto+"-"+tc.topo+"64.fnv", func(t *testing.T) []byte {
			return eventStreamDigest(t, engine.Point{
				Protocol: tc.proto, Topo: tc.topo, Workload: "apache",
				Procs: 64, Ops: 120, Warmup: 120, Seed: 5,
			})
		})
	}
}

// runCLI runs a built command and returns its stdout, failing the test
// on a non-zero exit.
func runCLI(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	stdout, _ := runCmd(t, bin, args...)
	return stdout
}

// runCmd runs a built command and returns its stdout and stderr,
// failing the test on a non-zero exit.
func runCmd(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errw bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errw
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, errw.Bytes())
	}
	return out.Bytes(), errw.Bytes()
}

// eventStreamDigest runs pt serially with a probe observing every event
// kind and returns the FNV-64a hash and byte count of the raw event
// stream, encoded exactly as TestIslandKernelByteIdentity64 hashes it.
func eventStreamDigest(t *testing.T, pt engine.Point) []byte {
	t.Helper()
	h := fnv.New64a()
	n := &countingWriter{w: h}
	probe := stats.Observer{Kinds: stats.AllKinds, On: func(ev stats.Event) {
		binary.Write(n, binary.LittleEndian, ev) //nolint:errcheck // hash writes cannot fail
	}}
	eng := engine.Engine{Workers: 1, Attach: func(engine.Job) func(*machine.System) {
		return func(s *machine.System) { s.Observe(probe) }
	}}
	plan := engine.Plan{Variants: []engine.Variant{{Name: "pt", Point: pt}}}
	if _, err := eng.Execute(context.Background(), plan, &engine.JSONLSink{W: io.Discard}); err != nil {
		t.Fatalf("%s/%s: %v", pt.Protocol, pt.Topo, err)
	}
	return fmt.Appendf(nil, "fnv64a %016x\nbytes %d\n", h.Sum64(), n.n)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.w.Write(p)
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenOutputs -update . to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n%s", name, goldenDiff(want, got))
	}
}

// goldenDiff reports the first line where got departs from want.
func goldenDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
