package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/stats"
)

// Result is one executed job: the plan coordinates plus the run's
// metric snapshot or the error (including recovered panics) that
// stopped it.
type Result struct {
	Job
	// Metrics is the run's metric snapshot: every named metric the
	// machine, interconnect, protocol, and registered probes published.
	// It is the point's only result record; sinks, column selectors and
	// the store read it by name.
	Metrics *stats.Snapshot
	// Cached marks a result recalled from the Engine's Store instead of
	// simulated: provenance for telemetry (a recalled point cost no
	// events and should not feed ETA rate estimates) and for callers that
	// must know whether any simulation ran. Cached results flow through
	// sinks identically to computed ones.
	Cached bool
	Err    error
}

// Progress describes a plan's execution state after one more job
// finished; the engine passes it to the Progress callback.
type Progress struct {
	// Done counts completed jobs (successes and failures); Total is the
	// plan's deterministic job count, known before the first run starts —
	// which is what makes sweep ETAs possible.
	Done, Total int
	// Failed counts completed jobs whose Err is set.
	Failed int
	// Last is the job that just completed, with its Metrics/Err
	// populated. Completion order is nondeterministic under parallelism;
	// sink emission, not Progress, is the ordered stream.
	Last *Result
}

// Store is a content-addressed result archive keyed by PointKey: the
// engine fills it with every successfully computed point and, in reuse
// mode, recalls archived results instead of simulating. Implementations
// must be safe for concurrent use — workers consult the store in
// parallel. internal/resultstore provides the durable file-backed
// implementation.
type Store interface {
	// Get returns the archived metric snapshot for key, reporting
	// found=false for a clean miss. An error means the store itself
	// failed (corrupt entry, unreadable directory) and fails the job
	// loudly — a store that silently recomputes would mask corruption.
	Get(key string) (metrics *stats.Snapshot, found bool, err error)
	// Put archives a computed point's metric snapshot under key. Put must
	// be atomic: concurrent writers of the same key (two sweep shards
	// sharing a store) may race, but they write identical content, so
	// last-rename-wins is correct.
	Put(key string, metrics *stats.Snapshot) error
}

// EndSink is the optional Sink extension Execute invokes exactly once
// when emission is over — after the last Emit, on every exit path
// including context cancellation and sink failure. Buffered sinks flush
// here, so an interrupted sweep still leaves a valid, parseable partial
// file; the built-in CSV and JSONL sinks forward End to their writer's
// Flush method when it has one.
type EndSink interface {
	End() error
}

// Engine executes a Plan's jobs on a bounded worker pool. The zero
// value is ready to use and runs one worker per available CPU.
type Engine struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Store, when set, archives every successfully computed cacheable
	// point under its PointKey. With Reuse also set, the store is
	// consulted before each job runs and a hit replays the archived
	// result through the normal sink path — byte-identical output,
	// zero simulation. Uncacheable points (ErrUncacheable) always
	// simulate and are never archived.
	Store Store
	// Reuse enables store lookups (resume mode). Without it a Store is
	// write-through only: every point recomputes and refreshes its entry,
	// which is how a store is (re)populated from scratch.
	Reuse bool
	// Shard/Shards partition a plan across cooperating processes: with
	// Shards = N > 1, this engine runs only the jobs whose plan Index ≡
	// Shard (mod N) — the deterministic plan order is the partition
	// function, so N shards cover every job exactly once with no
	// coordination. Results keep their plan-wide Index for merging;
	// Progress.Total and Sink.Begin report the shard's own job count.
	Shard, Shards int
	// Progress, when set, is called after each job completes. Calls come
	// from the engine's single collector goroutine and never overlap, so
	// a callback that writes output needs no locking against itself —
	// only against writers on other goroutines (see trace.NewSyncWriter).
	Progress func(p Progress)
	// Attach, when set, is consulted once per job before it runs; a
	// non-nil returned function is called with the job's fully assembled
	// System (protocol built, registry probes attached) so per-job
	// observers — transaction tracers, extra recorders — can attach.
	// Attach itself runs on worker goroutines and must be safe for
	// concurrent use; the returned function runs before the job's
	// single-threaded simulation starts and may touch the System freely.
	Attach func(job Job) func(*machine.System)
}

func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Execute runs every job of the plan and returns the results in plan
// order — the same rows regardless of parallelism. Successful results
// are streamed to the sinks in plan order as soon as their contiguous
// prefix completes. A panicking point is isolated to its own job and
// recorded as that result's Err; remaining jobs still run. A failing
// sink, by contrast, stops dispatch of not-yet-started jobs (their
// output would be lost anyway). The returned error is the context's
// error if it was cancelled, otherwise the lowest-index job error
// (with all results still returned), otherwise the first sink error.
func (e Engine) Execute(ctx context.Context, plan Plan, sinks ...Sink) ([]Result, error) {
	jobs, err := plan.Jobs()
	if err != nil {
		return nil, err
	}
	if e.Shards > 1 {
		if e.Shard < 0 || e.Shard >= e.Shards {
			return nil, fmt.Errorf("engine: shard %d out of range [0, %d)", e.Shard, e.Shards)
		}
		owned := make([]Job, 0, (len(jobs)+e.Shards-1)/e.Shards)
		for _, job := range jobs {
			if job.Index%e.Shards == e.Shard {
				owned = append(owned, job)
			}
		}
		jobs = owned
	} else if e.Shards < 0 || (e.Shards == 0 && e.Shard != 0) {
		return nil, fmt.Errorf("engine: invalid shard spec %d/%d", e.Shard, e.Shards)
	}
	for _, s := range sinks {
		if err := s.Begin(len(jobs)); err != nil {
			return nil, err
		}
	}

	results := make([]Result, len(jobs))
	for i, job := range jobs {
		results[i] = Result{Job: job}
	}

	workers := e.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// runCtx stops dispatch early when a sink fails mid-stream, without
	// conflating that with the caller cancelling ctx.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	idxCh := make(chan int)
	doneCh := make(chan int, workers)
	go func() {
		defer close(idxCh)
		for i := range jobs {
			select {
			case idxCh <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := runCtx.Err(); err != nil {
					results[i].Err = err
				} else {
					e.runJob(&results[i])
				}
				doneCh <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(doneCh)
	}()

	// Emit to sinks strictly in plan order: results are held until their
	// contiguous prefix is complete, so parallel and serial executions
	// produce byte-identical sink output.
	completed := make([]bool, len(jobs))
	next, done, failed := 0, 0, 0
	var sinkErr error
	for i := range doneCh {
		done++
		completed[i] = true
		if results[i].Err != nil {
			failed++
		}
		for next < len(jobs) && completed[next] {
			r := results[next]
			if r.Err == nil && sinkErr == nil {
				for _, s := range sinks {
					if err := s.Emit(r); err != nil {
						sinkErr = err
						cancel() // stop dispatching work nobody will see
						break
					}
				}
			}
			next++
		}
		if e.Progress != nil {
			e.Progress(Progress{Done: done, Total: len(jobs), Failed: failed, Last: &results[i]})
		}
	}

	// Emission is over on every path — completion, caller cancellation,
	// sink failure — so give each sink its one End call now. A buffered
	// sink flushes here, which is what keeps a Ctrl-C'd sweep's partial
	// output a valid, parseable file rather than a torn one.
	var endErr error
	for _, s := range sinks {
		if es, ok := s.(EndSink); ok {
			if err := es.End(); err != nil && endErr == nil {
				endErr = err
			}
		}
	}
	if sinkErr == nil {
		sinkErr = endErr
	}

	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, r := range results {
		// Skip jobs the engine itself skipped after a sink failure; the
		// sink error below explains those.
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			return results, r.Err
		}
	}
	return results, sinkErr
}

// runJob executes one job on a worker goroutine, consulting and filling
// the result store when one is configured. Store failures are loud: a
// Get that errors (as opposed to cleanly missing) or a Put that cannot
// persist becomes the job's error, because a silently degraded store
// would defeat the resume guarantee callers rely on.
func (e Engine) runJob(r *Result) {
	key := ""
	if e.Store != nil {
		k, err := PointKey(r.Job.Point)
		switch {
		case err == nil:
			key = k
		case errors.Is(err, ErrUncacheable):
			// No content identity: simulate normally, never archive.
		default:
			r.Err = err
			return
		}
	}
	if key != "" && e.Reuse {
		snap, found, err := e.Store.Get(key)
		if err != nil {
			r.Err = fmt.Errorf("engine: store get %s: %w", key, err)
			return
		}
		if found {
			r.Metrics, r.Cached = snap, true
			return
		}
	}
	r.Metrics, r.Err = runIsolated(r.Job, e.Attach)
	if key != "" && r.Err == nil {
		if err := e.Store.Put(key, r.Metrics); err != nil {
			r.Err = fmt.Errorf("engine: store put %s: %w", key, err)
		}
	}
}

// runIsolated executes one job, converting a panic into an error so a
// single bad configuration cannot take down the whole sweep.
func runIsolated(job Job, attach func(Job) func(*machine.System)) (snap *stats.Snapshot, err error) {
	pt := job.Point
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: point %s/%s/%s panicked: %v\n%s",
				pt.Protocol, pt.Topo, pt.Workload, r, debug.Stack())
		}
	}()
	var hook func(*machine.System)
	if attach != nil {
		hook = attach(job)
	}
	_, snap, err = RunPoint(pt, hook)
	return snap, err
}
