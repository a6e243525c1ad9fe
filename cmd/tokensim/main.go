// Command tokensim runs the Token Coherence reproduction from the
// command line: the experiment catalogue (the paper's tables and
// figures, the scaling study and the parameter sweeps) and custom
// simulation points.
//
// Usage:
//
//	tokensim -experiment table2|fig4a|fig4b|fig5a|fig5b|scaling|all
//	tokensim -experiment bandwidth|procs|tokens|mshr -workload apache
//	tokensim -protocol tokenb -topo torus -workload oltp -ops 4000
//	tokensim -protocol tokenb -columns seed,cycles_per_txn,reissues
//	tokensim -list | -list-config | -list-metrics
//	tokensim merge s0.jsonl s1.jsonl
//	tokensim store gc -store DIR [-dry-run]
//
// A paper experiment prints its table ('all' prints every table), a
// parameter sweep prints one CSV row per point, and a custom point
// prints its statistics block per seed. -format csv or -columns selects
// CSV rows of any run, with any published metric by name (-list-metrics
// shows the schema); -format json emits one JSON line per point with
// the full metric map. Every point is an independent deterministic
// simulation run on a bounded worker pool (-parallel, default one per
// CPU), so the output is identical at any parallelism.
//
// Any run can use a content-addressed result store:
//
//	tokensim -experiment procs -store results/           # archive every point
//	tokensim -experiment procs -store results/ -resume   # recall what's archived
//	tokensim -experiment procs -store results/ -resume -format json -shard 0/2 > s0.jsonl
//	tokensim -experiment procs -store results/ -resume -format json -shard 1/2 > s1.jsonl
//	tokensim merge s0.jsonl s1.jsonl                     # back to plan order
//
// -store archives each completed point under its content hash
// (engine.PointKey) as it finishes, so a killed run re-run with -resume
// recomputes only the missing points and prints byte-identical output.
// -shard i/N runs one slice of the plan; the shards may run on separate
// machines, with or without a shared store, and merge reassembles their
// JSONL outputs byte-exactly once the files are copied to one place.
// `tokensim store gc -store results/` prunes entries stamped by older
// simulator versions, which no current binary could ever reuse.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
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

// run parses args and executes the requested experiments or custom
// point, writing results to stdout and diagnostics to stderr. It is the
// testable body of main.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "merge":
			return runMerge(args[1:], stdout, stderr)
		case "store":
			return runStore(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("tokensim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "", "experiment to run: "+strings.Join(harness.Experiments(), ", ")+", or 'all' for every paper table (default: a custom point)")
		protocol   = fs.String("protocol", "tokenb", "custom point's protocol: "+strings.Join(registry.ProtocolNames(), ", "))
		topo       = fs.String("topo", "torus", "custom point's interconnect: "+strings.Join(registry.TopologyNames(), ", "))
		wl         = fs.String("workload", "oltp", "workload of a custom point or parameter sweep: "+strings.Join(registry.WorkloadNames(), ", "))
		procs      = fs.Int("procs", 16, "number of processors")
		maxProcs   = fs.Int("maxprocs", 0, "largest system size the scaling and procs experiments sweep, up to 256 (default 64)")
		ops        = fs.Int("ops", 0, "measured operations per processor (default 4000, or 2000 for the parameter sweeps)")
		warmup     = fs.Int("warmup", 0, "warmup operations per processor (default 2x ops, or 5000 for the parameter sweeps; negative for a cold-cache run)")
		seeds      = fs.String("seeds", "1", "comma-separated seeds")
		parallel   = fs.Int("parallel", 0, "worker pool size (0 = one per CPU)")
		islands    = fs.Int("islands", 0, "conservative-parallel islands per point (0 or 1 = serial kernel; results are byte-identical at any count)")
		unlimited  = fs.Bool("unlimited", false, "custom point: unlimited link bandwidth")
		perfectDir = fs.Bool("perfect-dir", false, "custom point: zero-latency directory lookup")
		format     = fs.String("format", "", "emit rows as csv or json (JSON lines with the full metric map) instead of the default text output")
		columns    = fs.String("columns", "", "emit CSV with these comma-separated columns (identity fields, metric names, sweep tags) instead of the defaults")
		listConfig = fs.Bool("list-config", false, "print the Table 1 system parameters and exit")
		list       = fs.Bool("list", false, "list registered protocols, policies, topologies, workloads, probes, and experiments, then exit")
		listMet    = fs.Bool("list-metrics", false, "list the metric schema of the selected experiment or custom point, then exit")
		traceDir   = fs.String("trace", "", "write one Chrome trace-event JSON file per point into this directory (load in chrome://tracing or Perfetto)")
		traceHops  = fs.Bool("trace-hops", false, "include per-link network hops in -trace output (roughly 100x more events)")
		recorder   = fs.Int("flight-recorder", 0, "flight-recorder ring size in events (0 = default 512, negative disables)")
		deadline   = fs.Duration("deadline", 0, "starvation deadline for the flight recorder: a transaction exceeding this simulated latency dumps the recorder to stderr (0 = default 50ms, negative disables)")
		progress   = fs.Bool("progress", false, "report progress on stderr")
		httpAddr   = fs.String("http", "", "serve live telemetry on this address while the run executes (expvar at /debug/vars, profiles at /debug/pprof/)")
		storeDir   = fs.String("store", "", "archive each completed point in this content-addressed result store directory (created if missing)")
		resume     = fs.Bool("resume", false, "recall archived results from -store instead of recomputing them (resume mode)")
		shard      = fs.String("shard", "", "run only shard i of N cooperating processes, as i/N (requires -format json; reassemble with 'tokensim merge')")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand or stray argument %q (subcommands: merge, store)", fs.Arg(0))
	}
	if *list {
		printComponents(stdout)
		return nil
	}
	if *listConfig {
		printConfig(stdout)
		return nil
	}
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume recalls archived results and requires -store")
	}
	switch *format {
	case "", "csv":
	case "json":
		if *columns != "" {
			return fmt.Errorf("-columns selects CSV columns and cannot be combined with -format json (JSONL already carries the full metric map)")
		}
	default:
		return fmt.Errorf("unknown format %q (want csv or json)", *format)
	}
	var shardIdx, shardCount int
	if *shard != "" {
		var err error
		if shardIdx, shardCount, err = parseShardSpec(*shard); err != nil {
			return err
		}
		if *format != "json" {
			return fmt.Errorf("-shard emits mergeable JSONL and requires -format json")
		}
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return err
	}
	opt := harness.Options{Ops: *ops, Warmup: *warmup, Procs: *procs, MaxProcs: *maxProcs, Seeds: seedList,
		Parallel: *parallel, Islands: *islands, Workload: *wl}

	// The runs: the selected catalogue entries, or a custom point as a
	// one-variant plan over the seed axis (nameless, with no printer).
	var entries []harness.Experiment
	switch *experiment {
	case "":
		point := engine.Point{Protocol: *protocol, Topo: *topo, Workload: *wl, Unlimited: *unlimited, PerfectDir: *perfectDir}
		entries = []harness.Experiment{{Plan: func(o harness.Options) engine.Plan {
			return o.Plan([]engine.Variant{{Point: point}})
		}}}
	case "all":
		for _, e := range harness.Catalogue() {
			if e.Print != nil {
				entries = append(entries, e)
			}
		}
	default:
		e, err := harness.Lookup(*experiment)
		if err != nil {
			return err
		}
		entries = []harness.Experiment{e}
	}
	if *experiment != "" {
		// The custom point's flags would otherwise be silently ignored.
		var pointFlags []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "protocol", "topo", "unlimited", "perfect-dir":
				pointFlags = append(pointFlags, "-"+f.Name)
			}
		})
		if len(pointFlags) > 0 {
			return fmt.Errorf("custom-point flag(s) %s cannot be combined with -experiment", strings.Join(pointFlags, ", "))
		}
	}
	if *listMet {
		for _, e := range entries {
			descs, err := engine.PlanMetricSchema(e.Plan(e.Defaults(opt)))
			if err != nil {
				return err
			}
			if err := engine.WriteMetricSchema(stdout, descs); err != nil {
				return err
			}
		}
		return nil
	}

	// Progress lines, flight-recorder dumps, and telemetry notices all go
	// to stderr through one mutex-serialized writer, each as a single
	// Write, so parallel workers never tear each other's lines.
	errw := trace.NewSyncWriter(stderr)
	r := &runner{
		eng:      engine.Engine{Workers: *parallel, Shard: shardIdx, Shards: shardCount},
		errw:     errw,
		progress: *progress,
		storeDir: *storeDir,
		config: func(c *machine.Config) {
			c.DebugLog = errw
			if *recorder != 0 {
				c.RecorderSize = *recorder
			}
			if *deadline != 0 {
				c.StarvationDeadline = sim.Time(deadline.Nanoseconds()) * sim.Nanosecond
			}
		},
	}
	var store *resultstore.Store
	if *storeDir != "" {
		if store, err = openStore(*storeDir); err != nil {
			return err
		}
		r.eng.Store, r.eng.Reuse = store, *resume
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		r.tracers = &pointTracers{dir: *traceDir, hops: *traceHops, m: make(map[int]*trace.Tracer)}
		r.eng.Attach = r.tracers.attach
	}
	if *httpAddr != "" {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if r.tel, err = startTelemetry(*httpAddr, workers, store, errw); err != nil {
			return err
		}
		defer r.tel.stop()
	}

	for _, e := range entries {
		o := e.Defaults(opt)
		plan := e.Plan(o)
		cols := e.Columns
		if *columns != "" {
			if cols, err = selectColumns(*columns, plan); err != nil {
				return err
			}
		}
		// More shards than points means some shard indices own nothing:
		// legal (the merge still reassembles correctly) but almost always
		// a mis-sized -shard spec, so say so instead of silently emitting
		// an empty file.
		if jobs, err := plan.Jobs(); err == nil && shardCount > len(jobs) {
			fmt.Fprintf(stderr, "sweep: warning: -shard %s splits a %d-point plan %d ways; shards >= %d will be empty\n",
				*shard, len(jobs), shardCount, len(jobs))
		}

		// Rows reach stdout in large writes; the flush after execute runs
		// on every exit path, so an interrupted run still leaves a
		// complete, parseable partial file.
		out := bufio.NewWriter(stdout)
		text := *format == "" && *columns == ""
		table := text && e.Print != nil
		var agg engine.AggregateSink
		var sink engine.Sink = &engine.CSVSink{W: out, Columns: cols}
		switch {
		case shardCount > 0:
			sink = newShardSink(out, shardIdx, shardCount)
		case *format == "json":
			sink = &engine.JSONLSink{W: out}
		case table:
			sink = &agg
		case text && *experiment == "":
			sink = &statsSink{w: out}
		}
		err := r.execute(plan, sink)
		if err == nil && table {
			e.Print(out, &agg, o)
			fmt.Fprintln(out)
		}
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runner executes plans with the command's execution flags: worker
// pool, shard, result store, tracers, telemetry, progress, and the
// flight-recorder configuration.
type runner struct {
	eng      engine.Engine
	errw     io.Writer
	progress bool
	storeDir string
	tracers  *pointTracers
	tel      *telemetry
	// config is applied to every point's machine configuration before
	// the variant's own Mutate and the plan's mutation axis.
	config func(*machine.Config)
}

// execute runs plan on the worker pool, streaming its results into sink
// in plan order.
func (r *runner) execute(plan engine.Plan, sink engine.Sink) error {
	variants := make([]engine.Variant, len(plan.Variants))
	for i, v := range plan.Variants {
		prev := v.Point.Mutate
		v.Point.Mutate = func(c *machine.Config) {
			r.config(c)
			if prev != nil {
				prev(c)
			}
		}
		variants[i] = v
	}
	plan.Variants = variants

	eng := r.eng
	var flushErr error
	if r.progress || r.tracers != nil || r.tel != nil {
		eng.Progress = func(p engine.Progress) {
			if r.tracers != nil {
				if err := r.tracers.flush(p.Last); err != nil && flushErr == nil {
					flushErr = err
				}
			}
			if r.tel != nil {
				r.tel.update(p)
			}
			if r.progress {
				status := "ok"
				if p.Last.Err != nil {
					status = "FAILED"
				}
				line := fmt.Sprintf("sweep: %d/%d %s seed=%d %s\n", p.Done, p.Total, jobName(p.Last.Job, "/"), p.Last.Point.Seed, status)
				if p.Done == p.Total {
					summary := fmt.Sprintf("sweep: %d/%d points", p.Done, p.Total)
					if p.Failed > 0 {
						summary += fmt.Sprintf(", %d failed", p.Failed)
					}
					line += summary + "\n"
				}
				io.WriteString(r.errw, line) //nolint:errcheck // progress is best effort
			}
		}
	}

	// Ctrl-C cancels the plan instead of killing the process mid-write:
	// the engine stops dispatching and returns, the caller flushes the
	// completed rows, and with -store every completed point is already
	// archived for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	_, err := eng.Execute(ctx, plan, sink)
	if err == nil {
		err = flushErr
	}
	if errors.Is(err, context.Canceled) {
		hint := ""
		if r.storeDir != "" {
			hint = "; re-run with -store " + r.storeDir + " -resume to continue"
		}
		err = fmt.Errorf("interrupted (completed points are flushed%s)", hint)
	}
	return err
}

// statsSink prints a custom point's statistics block per seed. A failed
// seed leaves a gap in the emitted indices and the blocks stop there, so
// the output is the seeds completed before the first failure.
type statsSink struct {
	w    io.Writer
	next int
}

func (s *statsSink) Begin(int) error { return nil }

func (s *statsSink) Emit(r engine.Result) error {
	if r.Index != s.next {
		return nil
	}
	s.next++
	run, m, w := r.Run, r.Run.Misses, s.w
	fmt.Fprintf(w, "%s/%s/%s seed=%d\n", r.Point.Protocol, r.Point.Topo, r.Point.Workload, r.Point.Seed)
	fmt.Fprintf(w, "  elapsed          %v\n", run.Elapsed)
	fmt.Fprintf(w, "  transactions     %d (%.1f cycles/txn)\n", run.Transactions, run.CyclesPerTransaction())
	fmt.Fprintf(w, "  accesses         %d (L1 %.1f%%, L2 %.1f%%, miss %.2f%%)\n",
		run.Accesses,
		pct(run.L1Hits, run.Accesses), pct(run.L2Hits, run.Accesses), pct(m.Issued, run.Accesses))
	fmt.Fprintf(w, "  avg miss latency %v\n", run.AvgMissLatency())
	fmt.Fprintf(w, "  misses           %d: %.2f%% first try, %.2f%% reissued once, %.2f%% more, %.3f%% persistent\n",
		m.Issued, m.Frac(m.NotReissued()), m.Frac(m.ReissuedOnce), m.Frac(m.ReissuedMore), m.Frac(m.Persistent))
	_, err := fmt.Fprintf(w, "  traffic          %.1f bytes/miss (requests %.1f, reissue+persistent %.1f, control %.1f, data %.1f)\n",
		run.BytesPerMiss(),
		run.CategoryBytesPerMiss(msg.CatRequest), run.CategoryBytesPerMiss(msg.CatReissue),
		run.CategoryBytesPerMiss(msg.CatControl), run.CategoryBytesPerMiss(msg.CatData))
	return err
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// selectColumns resolves a -columns spec against the plan, rejecting
// names that match neither an identity field, a metric of the plan's
// schema (unioned across its protocols), nor one of its mutation tags —
// a typo would otherwise render silent empty cells.
func selectColumns(spec string, plan engine.Plan) ([]engine.Column, error) {
	names := engine.SplitColumnSpec(spec)
	if len(names) == 0 {
		return nil, fmt.Errorf("-columns %q names no columns", spec)
	}
	descs, err := engine.PlanMetricSchema(plan)
	if err != nil {
		return nil, err
	}
	var tags []string
	seen := map[string]bool{}
	for _, mut := range plan.Mutations {
		for tag := range mut.Tags {
			if !seen[tag] {
				seen[tag] = true
				tags = append(tags, tag)
			}
		}
	}
	if unknown := engine.UnknownColumns(names, descs, tags); len(unknown) > 0 {
		return nil, fmt.Errorf("unknown column(s) %s (identity fields, metric names from -list-metrics, or this experiment's tags %v)",
			strings.Join(unknown, ", "), tags)
	}
	return engine.ColumnsByName(names), nil
}

// jobName joins a job's plan coordinates — variant, workload, mutation
// — with sep, for progress lines and trace file names.
func jobName(job engine.Job, sep string) string {
	parts := []string{job.Variant}
	if wl := job.Point.Workload; wl != "" {
		parts = append(parts, wl)
	}
	if job.Mutation != "" {
		parts = append(parts, job.Mutation)
	}
	return strings.Join(parts, sep)
}

// pointTracers attaches one transaction tracer per job and writes each
// job's trace file once the job completes. Attach runs on worker
// goroutines, so the index map is mutex-protected; flush runs on the
// engine's single collector goroutine, bounding buffered traces to the
// in-flight jobs.
type pointTracers struct {
	dir  string
	hops bool
	mu   sync.Mutex
	m    map[int]*trace.Tracer
}

func (pt *pointTracers) attach(job engine.Job) func(*machine.System) {
	t := trace.NewTracer(trace.TracerConfig{Hops: pt.hops})
	pt.mu.Lock()
	pt.m[job.Index] = t
	pt.mu.Unlock()
	return func(sys *machine.System) { sys.Observe(t.Observer()) }
}

func (pt *pointTracers) flush(r *engine.Result) error {
	pt.mu.Lock()
	t := pt.m[r.Index]
	delete(pt.m, r.Index)
	pt.mu.Unlock()
	if t == nil {
		return nil // job was skipped or recalled from the store
	}
	// The name is stable across runs and parallelism; sanitizeFile maps
	// the mutation axis's "/" and "=" to underscores.
	name := fmt.Sprintf("point-%04d-%s-seed%d.json", r.Index, jobName(r.Job, "-"), r.Point.Seed)
	f, err := os.Create(filepath.Join(pt.dir, sanitizeFile(name)))
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitizeFile maps characters that are awkward in file names (the
// mutation axis uses "/" and "=") to underscores.
func sanitizeFile(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
}

// runStore is the `tokensim store` subcommand group. Its one verb, gc,
// prunes archived envelopes whose embedded version stamp no longer
// matches this binary's engine.CodeVersion — entries a resumed run
// could never reuse — and sweeps crashed Puts' orphaned temp files.
func runStore(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 || args[0] != "gc" {
		fmt.Fprintln(stderr, "usage: tokensim store gc -store DIR [-dry-run]")
		return fmt.Errorf("store: unknown verb %q (want gc)", strings.Join(args, " "))
	}
	fs := flag.NewFlagSet("tokensim store gc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storeDir = fs.String("store", "", "result store directory to collect (required)")
		dryRun   = fs.Bool("dry-run", false, "report what would be pruned without removing anything")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("store gc: -store is required")
	}
	st, err := openStore(*storeDir)
	if err != nil {
		return err
	}
	got, err := st.GC(engine.CodeVersion, *dryRun)
	if err != nil {
		return err
	}
	verb := "pruned"
	if *dryRun {
		verb = "would prune"
	}
	fmt.Fprintf(stdout, "store gc: kept %d current objects; %s %d stale objects (%d bytes) and %d orphaned temp files [version %s]\n",
		got.Kept, verb, got.Pruned, got.PrunedBytes, got.Temps, engine.CodeVersion)
	return nil
}

// openStore opens the result store in dir, stamping the entries it
// writes with this binary's simulator version so `tokensim store gc`
// can later prune entries no current binary could ever reuse.
func openStore(dir string) (*resultstore.Store, error) {
	st, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	st.SetVersion(engine.CodeVersion)
	return st, nil
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

// printComponents enumerates the registry-resolved components and the
// experiment catalogue, so users discover what the flags accept —
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
