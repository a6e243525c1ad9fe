// Command tokensim runs the Token Coherence reproduction's experiments
// and custom simulation points from the command line.
//
// Usage:
//
//	tokensim -experiment table2|fig4a|fig4b|fig5a|fig5b|scaling|all
//	tokensim -protocol tokenb -topo torus -workload oltp -ops 4000
//	tokensim -protocol tokenb -columns seed,cycles_per_txn,reissues
//	tokensim -list
//	tokensim -list-config
//	tokensim -list-metrics
//
// Experiments print the corresponding paper table/figure rows; a custom
// point prints its full statistics, or — with -columns — one CSV row per
// seed selecting any published metric by name (-list-metrics shows the
// schema). With -store DIR the custom point reads and fills the same
// content-addressed result store the sweep command uses: seeds already
// archived print instantly from the store, byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/harness"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/resultstore"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "tokensim:", err)
		os.Exit(1)
	}
}

// run parses args and executes the requested experiment or custom point,
// writing to stdout. It is the testable body of main.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tokensim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "", "experiment to reproduce: "+strings.Join(harness.Experiments(), ", ")+", or 'all'")
		protocol   = fs.String("protocol", "tokenb", "protocol for a custom run: "+strings.Join(registry.ProtocolNames(), ", "))
		topo       = fs.String("topo", "torus", "interconnect: "+strings.Join(registry.TopologyNames(), ", "))
		wl         = fs.String("workload", "oltp", "workload: "+strings.Join(registry.WorkloadNames(), ", "))
		procs      = fs.Int("procs", 16, "number of processors")
		maxProcs   = fs.Int("maxprocs", 0, "largest system size the scaling experiment sweeps, up to 256 (default 64)")
		ops        = fs.Int("ops", 4000, "measured operations per processor")
		warmup     = fs.Int("warmup", 0, "warmup operations per processor (default 2x ops; negative for a cold-cache run)")
		seeds      = fs.String("seeds", "1", "comma-separated seeds")
		parallel   = fs.Int("parallel", 0, "worker pool size for multi-point runs (0 = one per CPU)")
		islands    = fs.Int("islands", 0, "conservative-parallel islands per point (0 or 1 = serial kernel; results are byte-identical at any count)")
		unlimited  = fs.Bool("unlimited", false, "unlimited link bandwidth")
		perfectDir = fs.Bool("perfect-dir", false, "zero-latency directory lookup")
		listConfig = fs.Bool("list-config", false, "print the Table 1 system parameters and exit")
		list       = fs.Bool("list", false, "list registered protocols, policies, topologies, workloads, probes, and experiments, then exit")
		columns    = fs.String("columns", "", "emit the custom point as CSV with these comma-separated columns (identity fields and metric names) instead of the statistics block")
		listMet    = fs.Bool("list-metrics", false, "list the metric schema of the selected protocol/topo/workload, then exit")
		traceOut   = fs.String("trace", "", "write the custom point's transaction trace to this file as Chrome trace-event JSON (load in chrome://tracing or Perfetto); multiple seeds write one file each with a -seedN suffix")
		traceHops  = fs.Bool("trace-hops", false, "include per-link network hops in -trace output (roughly 100x more events)")
		recorder   = fs.Int("flight-recorder", 0, "flight-recorder ring size in events for the custom point (0 = default 512, negative disables)")
		deadline   = fs.Duration("deadline", 0, "starvation deadline for the custom point's flight recorder: a transaction exceeding this simulated latency dumps the recorder (0 = default 50ms, negative disables)")
		storeDir   = fs.String("store", "", "content-addressed result store for the custom point: archived seeds are recalled instead of re-simulated, computed ones are archived (shared with sweep -store)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		printComponents(stdout)
		return nil
	}
	if *listConfig {
		printConfig(stdout)
		return nil
	}
	if *listMet {
		descs, err := engine.MetricSchema(engine.Point{
			Protocol: *protocol, Topo: *topo, Workload: *wl, Procs: *procs,
		})
		if err != nil {
			return err
		}
		return engine.WriteMetricSchema(stdout, descs)
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return err
	}

	opt := harness.Options{Ops: *ops, Warmup: *warmup, Procs: *procs, MaxProcs: *maxProcs, Seeds: seedList, Parallel: *parallel, Islands: *islands}
	if *experiment != "" {
		if *columns != "" {
			return fmt.Errorf("-columns applies to custom points and cannot be combined with -experiment (experiments print fixed paper-style tables)")
		}
		if *traceOut != "" || *recorder != 0 || *deadline != 0 {
			return fmt.Errorf("-trace, -flight-recorder, and -deadline apply to custom points and cannot be combined with -experiment")
		}
		if *storeDir != "" {
			return fmt.Errorf("-store applies to custom points and cannot be combined with -experiment (archive experiment grids with sweep -store)")
		}
		names := []string{*experiment}
		if *experiment == "all" {
			names = harness.Experiments()
		}
		for _, name := range names {
			if err := harness.RunExperiment(stdout, name, opt); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}

	// A custom point is a one-variant plan over the seed axis, executed
	// on the engine's worker pool (results are printed in seed order
	// regardless of parallelism).
	w := *warmup
	switch {
	case w < 0:
		w = engine.NoWarmup // explicitly cold: zero warmup operations
	case w == 0:
		w = 2 * *ops
	}
	point := engine.Point{
		Protocol: *protocol, Topo: *topo, Workload: *wl,
		Unlimited: *unlimited, PerfectDir: *perfectDir,
	}
	// Flight-recorder dumps from parallel seeds go to stderr through one
	// mutex-serialized writer, each dump as a single write.
	errw := trace.NewSyncWriter(stderr)
	size, dl := *recorder, *deadline
	point.Mutate = func(c *machine.Config) {
		c.DebugLog = errw
		if size != 0 {
			c.RecorderSize = size
		}
		if dl != 0 {
			c.StarvationDeadline = sim.Time(dl.Nanoseconds()) * sim.Nanosecond
		}
	}
	plan := engine.Plan{
		Variants: []engine.Variant{{Point: point}},
		Seeds:    opt.Seeds,
		Ops:      *ops,
		Warmup:   w,
		Procs:    *procs,
		Islands:  *islands,
	}
	eng := engine.Engine{Workers: *parallel}
	if *storeDir != "" {
		st, serr := resultstore.Open(*storeDir)
		if serr != nil {
			return serr
		}
		// Version-stamp new entries so `sweep store gc` can prune them
		// once the simulator version moves on.
		st.SetVersion(engine.CodeVersion)
		eng.Store = st
		eng.Reuse = true
	}
	var tracers *jobTracers
	if *traceOut != "" {
		tracers = &jobTracers{hops: *traceHops, m: make(map[int]*trace.Tracer)}
		eng.Attach = tracers.attach
	}

	var results []engine.Result
	if *columns != "" {
		// CSV mode: stream the selected identity/metric columns per seed,
		// rejecting names the point's schema cannot satisfy.
		names := engine.SplitColumnSpec(*columns)
		if len(names) == 0 {
			return fmt.Errorf("-columns %q names no columns", *columns)
		}
		descs, merr := engine.MetricSchema(plan.Variants[0].Point)
		if merr != nil {
			return merr
		}
		if unknown := engine.UnknownColumns(names, descs, nil); len(unknown) > 0 {
			return fmt.Errorf("unknown column(s) %s (identity fields or metric names from -list-metrics)",
				strings.Join(unknown, ", "))
		}
		sink := &engine.CSVSink{W: stdout, Columns: engine.ColumnsByName(names)}
		results, err = eng.Execute(context.Background(), plan, sink)
	} else {
		results, err = eng.Execute(context.Background(), plan)
		// Print the completed seeds up to the first failure even when a
		// later seed errored, as the serial loop used to.
		for _, r := range results {
			if r.Err != nil || r.Run == nil {
				break
			}
			printRun(stdout, fmt.Sprintf("%s/%s/%s seed=%d", *protocol, *topo, *wl, r.Point.Seed), r.Run)
		}
	}
	if tracers != nil {
		if terr := tracers.writeFiles(*traceOut, results); terr != nil && err == nil {
			err = terr
		}
	}
	return err
}

// jobTracers attaches one transaction tracer per seed and writes the
// trace files after the run. Attach runs on the engine's worker
// goroutines, so the map is mutex-protected.
type jobTracers struct {
	hops bool
	mu   sync.Mutex
	m    map[int]*trace.Tracer
}

func (jt *jobTracers) attach(job engine.Job) func(*machine.System) {
	t := trace.NewTracer(trace.TracerConfig{Hops: jt.hops})
	jt.mu.Lock()
	jt.m[job.Index] = t
	jt.mu.Unlock()
	return func(sys *machine.System) { sys.Observe(t.Observer()) }
}

// writeFiles writes one trace per executed job: to base itself for a
// single seed, to base with a -seedN suffix (before the extension) when
// several seeds ran.
func (jt *jobTracers) writeFiles(base string, results []engine.Result) error {
	for _, r := range results {
		jt.mu.Lock()
		t := jt.m[r.Index]
		jt.mu.Unlock()
		if t == nil {
			continue // job never ran
		}
		name := base
		if len(results) > 1 {
			ext := filepath.Ext(base)
			name = strings.TrimSuffix(base, ext) + fmt.Sprintf("-seed%d", r.Point.Seed) + ext
		}
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := t.Export(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func printRun(w io.Writer, label string, run *stats.Run) {
	m := run.Misses
	fmt.Fprintf(w, "%s\n", label)
	fmt.Fprintf(w, "  elapsed          %v\n", run.Elapsed)
	fmt.Fprintf(w, "  transactions     %d (%.1f cycles/txn)\n", run.Transactions, run.CyclesPerTransaction())
	fmt.Fprintf(w, "  accesses         %d (L1 %.1f%%, L2 %.1f%%, miss %.2f%%)\n",
		run.Accesses,
		pct(run.L1Hits, run.Accesses), pct(run.L2Hits, run.Accesses), pct(m.Issued, run.Accesses))
	fmt.Fprintf(w, "  avg miss latency %v\n", run.AvgMissLatency())
	fmt.Fprintf(w, "  misses           %d: %.2f%% first try, %.2f%% reissued once, %.2f%% more, %.3f%% persistent\n",
		m.Issued, m.Frac(m.NotReissued()), m.Frac(m.ReissuedOnce), m.Frac(m.ReissuedMore), m.Frac(m.Persistent))
	fmt.Fprintf(w, "  traffic          %.1f bytes/miss (requests %.1f, reissue+persistent %.1f, control %.1f, data %.1f)\n",
		run.BytesPerMiss(),
		run.CategoryBytesPerMiss(msg.CatRequest), run.CategoryBytesPerMiss(msg.CatReissue),
		run.CategoryBytesPerMiss(msg.CatControl), run.CategoryBytesPerMiss(msg.CatData))
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// printComponents enumerates the registry-resolved components and the
// harness experiments, so users discover what the flags accept —
// including anything registered beyond the built-ins.
func printComponents(w io.Writer) {
	fmt.Fprintf(w, "protocols:   %s\n", strings.Join(registry.AnnotatedProtocolNames(), ", "))
	fmt.Fprintf(w, "policies:    %s\n", strings.Join(registry.PolicyNames(), ", "))
	fmt.Fprintf(w, "topologies:  %s\n", strings.Join(registry.TopologyNames(), ", "))
	fmt.Fprintf(w, "workloads:   %s\n", strings.Join(registry.WorkloadNames(), ", "))
	fmt.Fprintf(w, "probes:      %s\n", strings.Join(registry.ProbeNames(), ", "))
	fmt.Fprintf(w, "experiments: %s\n", strings.Join(harness.Experiments(), ", "))
}

func printConfig(w io.Writer) {
	c := machine.DefaultConfig()
	fmt.Fprintln(w, "Target system parameters (paper Table 1):")
	fmt.Fprintf(w, "  processors          %d in-order-issue models, MSHRs=%d, max outstanding loads=%d\n", c.Procs, c.MSHRs, c.MaxLoads)
	fmt.Fprintf(w, "  L1 cache            %d kB, %d-way, %v\n", c.L1Size>>10, c.L1Assoc, c.L1Latency)
	fmt.Fprintf(w, "  L2 cache            %d MB, %d-way, %v\n", c.L2Size>>20, c.L2Assoc, c.L2Latency)
	fmt.Fprintf(w, "  block size          %d bytes\n", msg.BlockSize)
	fmt.Fprintf(w, "  DRAM latency        %v\n", c.MemLatency)
	fmt.Fprintf(w, "  controller latency  %v\n", c.CtrlLatency)
	fmt.Fprintf(w, "  directory latency   %v (DRAM full map)\n", c.DirLatency)
	fmt.Fprintf(w, "  link bandwidth      %.1f GB/s\n", c.Net.LinkBandwidth/1e9)
	fmt.Fprintf(w, "  link latency        %v\n", c.Net.LinkLatency)
	fmt.Fprintf(w, "  tokens per block    %d\n", c.TokensPerBlock)
	fmt.Fprintf(w, "  reissue policy      %dx avg miss latency + backoff (base %v), persistent after %d reissues\n",
		c.BackoffFactor, c.BackoffBase, c.MaxReissues)
}
