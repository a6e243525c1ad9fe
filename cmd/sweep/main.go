// Command sweep runs parameter sweeps over the simulator and emits CSV
// or JSON lines, for studies beyond the paper's fixed design points:
//
//	sweep -kind bandwidth   # runtime vs link bandwidth per protocol
//	sweep -kind procs       # runtime and traffic vs system size
//	sweep -kind tokens      # TokenB sensitivity to tokens per block
//	sweep -kind mshr        # sensitivity to memory-level parallelism
//
// Each row is one simulation point; pipe the output to a plotting tool.
// Sweeps are declarative engine.Plan grids (see internal/sweeps)
// executed on a bounded worker pool (-parallel, default one worker per
// CPU); every point is an independent deterministic simulation, so the
// rows are identical at any parallelism. -columns selects any published
// metric by name in place of the sweep's default columns
// (-list-metrics shows the schema); -format json serializes the full
// metric map per point.
//
// Sweeps can run as a service against a content-addressed result store:
//
//	sweep -kind bandwidth -store results/            # archive every point
//	sweep -kind bandwidth -store results/ -resume    # recall what's archived
//	sweep -kind procs -store results/ -resume -format json -shard 0/2 > s0.jsonl
//	sweep -kind procs -store results/ -resume -format json -shard 1/2 > s1.jsonl
//	sweep merge s0.jsonl s1.jsonl                    # back to plan order
//
// -store archives each completed point under its content hash
// (engine.PointKey) as it finishes, so a killed sweep re-run with
// -resume recomputes only the missing points and emits byte-identical
// output. -shard i/N runs one slice of the plan; the shards may run on
// separate machines, with or without a shared store, and merge
// reassembles their JSONL outputs byte-exactly once the files are
// copied to one place. `sweep store gc -store results/` prunes entries
// stamped by older simulator versions, which no current binary could
// ever reuse.
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
	"strings"
	"sync"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/machine"
	"tokencoherence/internal/registry"
	"tokencoherence/internal/resultstore"
	"tokencoherence/internal/sweeps"
	"tokencoherence/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run parses args and executes the requested sweep, writing rows to
// stdout and progress to stderr. It is the testable body of main.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "merge":
			return runMerge(args[1:], stdout, stderr)
		case "store":
			return runStore(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind     = fs.String("kind", "bandwidth", "sweep kind: "+strings.Join(sweeps.Kinds(), ", "))
		wl       = fs.String("workload", "oltp", "workload for the sweep: "+strings.Join(registry.WorkloadNames(), ", "))
		ops      = fs.Int("ops", 2000, "measured operations per processor")
		warmup   = fs.Int("warmup", 5000, "warmup operations per processor")
		seed     = fs.Uint64("seed", 1, "random seed")
		parallel = fs.Int("parallel", 0, "worker pool size (0 = one per CPU)")
		islands  = fs.Int("islands", 0, "conservative-parallel islands per point (0 or 1 = serial kernel; results are byte-identical at any count)")
		format   = fs.String("format", "csv", "output format: csv or json")
		progress = fs.Bool("progress", false, "report progress on stderr")
		list     = fs.Bool("list", false, "list registered sweep kinds and components, then exit")
		columns  = fs.String("columns", "", "comma-separated CSV columns (identity fields, metric names, mutation tags) overriding the sweep's defaults")
		listMet  = fs.Bool("list-metrics", false, "list the metric schema of the sweep's first point, then exit")
		traceDir = fs.String("trace", "", "write one Chrome trace-event JSON file per point into this directory (load in chrome://tracing or Perfetto)")
		httpAddr = fs.String("http", "", "serve live sweep telemetry on this address while the sweep runs (expvar at /debug/vars, profiles at /debug/pprof/)")
		storeDir = fs.String("store", "", "archive each completed point in this content-addressed result store directory (created if missing)")
		resume   = fs.Bool("resume", false, "recall archived results from -store instead of recomputing them (resume mode)")
		shard    = fs.String("shard", "", "run only shard i of N cooperating processes, as i/N (requires -format json; reassemble with 'sweep merge')")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand or stray argument %q (subcommands: merge, store)", fs.Arg(0))
	}
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume recalls archived results and requires -store")
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
	if *list {
		printComponents(stdout)
		return nil
	}
	plan, cols, err := sweeps.ByKind(*kind, *wl, *seed)
	if err != nil {
		return err
	}
	if *listMet {
		return printMetrics(stdout, plan)
	}
	if *columns != "" {
		if *format != "csv" {
			return fmt.Errorf("-columns selects CSV columns and cannot be combined with -format %s (JSONL already carries the full metric map)", *format)
		}
		names := engine.SplitColumnSpec(*columns)
		if len(names) == 0 {
			return fmt.Errorf("-columns %q names no columns", *columns)
		}
		if err := rejectUnknownColumns(names, plan); err != nil {
			return err
		}
		cols = engine.ColumnsByName(names)
	}
	plan.Ops = *ops
	plan.Warmup = *warmup
	plan.Islands = *islands
	if shardCount > 0 {
		// More shards than points means some shard indices own nothing:
		// legal (the merge still reassembles correctly) but almost always
		// a mis-sized -shard spec, so say so instead of silently emitting
		// an empty file.
		if jobs, err := plan.Jobs(); err == nil && shardCount > len(jobs) {
			fmt.Fprintf(stderr, "sweep: warning: -shard %s splits a %d-point plan %d ways; shards >= %d will be empty\n",
				*shard, len(jobs), shardCount, len(jobs))
		}
	}
	return execute(plan, cols, options{
		parallel: *parallel,
		format:   *format,
		progress: *progress,
		traceDir: *traceDir,
		httpAddr: *httpAddr,
		store:    *storeDir,
		resume:   *resume,
		shard:    shardIdx,
		shards:   shardCount,
	}, stdout, stderr)
}

// rejectUnknownColumns fails a -columns selection naming neither an
// identity field, a metric of the sweep's schema (unioned across its
// protocols), nor one of its mutation tags — a typo would otherwise
// render silent empty cells.
func rejectUnknownColumns(names []string, plan engine.Plan) error {
	descs, err := engine.PlanMetricSchema(plan)
	if err != nil {
		return err
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
		return fmt.Errorf("unknown column(s) %s (identity fields, metric names from -list-metrics, or this sweep's tags %v)",
			strings.Join(unknown, ", "), tags)
	}
	return nil
}

// printMetrics lists the metric schema the sweep's points expose —
// unioned across the sweep's protocols, so protocol-specific metrics of
// every variant show up — telling users what -columns accepts beyond
// the identity fields and mutation tags.
func printMetrics(w io.Writer, plan engine.Plan) error {
	descs, err := engine.PlanMetricSchema(plan)
	if err != nil {
		return err
	}
	return engine.WriteMetricSchema(w, descs)
}

// printComponents enumerates the sweep kinds and the registry's
// components, so users discover what -kind and -workload (and, for
// custom plans, Point.Protocol/Topo) accept.
func printComponents(w io.Writer) {
	fmt.Fprintf(w, "sweep kinds: %s\n", strings.Join(sweeps.Kinds(), ", "))
	fmt.Fprintf(w, "protocols:   %s\n", strings.Join(registry.AnnotatedProtocolNames(), ", "))
	fmt.Fprintf(w, "topologies:  %s\n", strings.Join(registry.TopologyNames(), ", "))
	fmt.Fprintf(w, "workloads:   %s\n", strings.Join(registry.WorkloadNames(), ", "))
}

// options collects execute's behavior flags.
type options struct {
	parallel int
	format   string
	progress bool
	traceDir string
	httpAddr string
	store    string
	resume   bool
	// shard/shards partition the plan (0/0 = unsharded); shards >= 1
	// selects the mergeable index-wrapped JSONL output format.
	shard, shards int
}

// execute runs the plan on the worker pool and streams rows to stdout.
// Progress lines, flight-recorder dumps, and telemetry notices all go to
// stderr through one mutex-serialized writer, each as a single Write, so
// parallel workers never tear each other's lines.
func execute(plan engine.Plan, cols []engine.Column, opt options, stdout, stderr io.Writer) error {
	// Buffer stdout and let the sink's End flush it: rows reach the
	// consumer in large writes, and an interrupted sweep still leaves a
	// complete, parseable partial file (End runs on every exit path).
	out := bufio.NewWriter(stdout)
	var sink engine.Sink
	switch {
	case opt.shards >= 1:
		sink = newShardSink(out, opt.shard, opt.shards)
	case opt.format == "csv":
		sink = &engine.CSVSink{W: out, Columns: cols}
	case opt.format == "json":
		sink = &engine.JSONLSink{W: out}
	default:
		return fmt.Errorf("unknown format %q (want csv or json)", opt.format)
	}
	errw := trace.NewSyncWriter(stderr)
	plan.Variants = withDebugLog(plan.Variants, errw)

	eng := engine.Engine{Workers: opt.parallel, Shard: opt.shard, Shards: opt.shards}
	var store *resultstore.Store
	if opt.store != "" {
		var err error
		if store, err = resultstore.Open(opt.store); err != nil {
			return err
		}
		// Stamp new archive entries with this binary's simulator version
		// so `sweep store gc` can later prune entries no current binary
		// could ever reuse.
		store.SetVersion(engine.CodeVersion)
		eng.Store = store
		eng.Reuse = opt.resume
	}

	var tracers *pointTracers
	if opt.traceDir != "" {
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			return err
		}
		tracers = &pointTracers{dir: opt.traceDir, m: make(map[int]*trace.Tracer)}
		eng.Attach = tracers.attach
	}
	var tel *telemetry
	if opt.httpAddr != "" {
		workers := opt.parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		var err error
		if tel, err = startTelemetry(opt.httpAddr, workers, store, errw); err != nil {
			return err
		}
		defer tel.stop()
	}

	var flushErr error
	if opt.progress || tracers != nil || tel != nil {
		eng.Progress = func(p engine.Progress) {
			if tracers != nil {
				if err := tracers.flush(p.Last); err != nil && flushErr == nil {
					flushErr = err
				}
			}
			if tel != nil {
				tel.update(p)
			}
			if opt.progress {
				status := "ok"
				if p.Last.Err != nil {
					status = "FAILED"
				}
				line := fmt.Sprintf("sweep: %d/%d %s %s\n", p.Done, p.Total, jobLabel(p.Last.Job), status)
				if p.Done == p.Total {
					summary := fmt.Sprintf("sweep: %d/%d points", p.Done, p.Total)
					if p.Failed > 0 {
						summary += fmt.Sprintf(", %d failed", p.Failed)
					}
					line += summary + "\n"
				}
				io.WriteString(errw, line) //nolint:errcheck // progress is best effort
			}
		}
	}

	// Ctrl-C cancels the plan instead of killing the process mid-write:
	// the engine stops dispatching, flushes the sinks (End), and with
	// -store every completed point is already archived for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	_, err := eng.Execute(ctx, plan, sink)
	if err == nil {
		err = flushErr
	}
	if errors.Is(err, context.Canceled) {
		err = fmt.Errorf("interrupted (completed points are flushed%s)", resumeHint(opt))
	}
	return err
}

// resumeHint tells an interrupted user how to pick the sweep back up.
func resumeHint(opt options) string {
	if opt.store == "" {
		return ""
	}
	return "; re-run with -store " + opt.store + " -resume to continue"
}

// withDebugLog routes every point's flight-recorder dumps through w by
// prepending a Mutate to each variant (the variant's own Mutate and the
// plan's mutation axis still apply afterwards and may override).
func withDebugLog(variants []engine.Variant, w io.Writer) []engine.Variant {
	out := make([]engine.Variant, len(variants))
	for i, v := range variants {
		prev := v.Point.Mutate
		v.Point.Mutate = func(c *machine.Config) {
			c.DebugLog = w
			if prev != nil {
				prev(c)
			}
		}
		out[i] = v
	}
	return out
}

// jobLabel renders a job's plan coordinates for progress lines.
func jobLabel(job engine.Job) string {
	parts := []string{job.Variant}
	if wl := job.Point.Workload; wl != "" {
		parts = append(parts, wl)
	}
	if job.Mutation != "" {
		parts = append(parts, job.Mutation)
	}
	return fmt.Sprintf("%s seed=%d", strings.Join(parts, "/"), job.Point.Seed)
}

// pointTracers attaches one transaction tracer per job and writes each
// job's trace file once the job completes. Attach runs on worker
// goroutines, so the index map is mutex-protected; flush runs on the
// engine's single collector goroutine, bounding buffered traces to the
// in-flight jobs.
type pointTracers struct {
	dir string
	mu  sync.Mutex
	m   map[int]*trace.Tracer
}

func (pt *pointTracers) attach(job engine.Job) func(*machine.System) {
	t := trace.NewTracer(trace.TracerConfig{})
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
		return nil // job was skipped before its tracer attached
	}
	f, err := os.Create(filepath.Join(pt.dir, traceFileName(r.Job)))
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFileName derives a per-point file name from the job's plan
// coordinates, stable across runs and parallelism.
func traceFileName(job engine.Job) string {
	name := job.Variant
	if wl := job.Point.Workload; wl != "" {
		name += "-" + wl
	}
	if job.Mutation != "" {
		name += "-" + job.Mutation
	}
	return sanitizeFile(fmt.Sprintf("point-%04d-%s-seed%d.json", job.Index, name, job.Point.Seed))
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

// runStore is the `sweep store` subcommand group. Its one verb, gc,
// prunes archived envelopes whose embedded version stamp no longer
// matches this binary's engine.CodeVersion — entries a resumed sweep
// could never reuse — and sweeps crashed Puts' orphaned temp files.
func runStore(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 || args[0] != "gc" {
		fmt.Fprintln(stderr, "usage: sweep store gc -store DIR [-dry-run]")
		return fmt.Errorf("store: unknown verb %q (want gc)", strings.Join(args, " "))
	}
	fs := flag.NewFlagSet("sweep store gc", flag.ContinueOnError)
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
	st, err := resultstore.Open(*storeDir)
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
