package main

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"tokencoherence/internal/engine"
)

// sweepVarsOnce guards the process-wide "sweep" expvar map: expvar
// panics on a duplicate Publish, and tests run several sweeps in one
// process, so the map is published exactly once. Each telemetry
// instance Sets its own value objects into the map under the fixed key
// names — the newest sweep owns what readers see, while an earlier
// sweep's update loop keeps writing its own (now unpublished) values
// untouched. The map is never Init()ed after publication: that would
// wipe a running sweep's counters out from under its HTTP readers.
var sweepVarsOnce struct {
	sync.Once
	m *expvar.Map
}

func sweepVars() *expvar.Map {
	sweepVarsOnce.Do(func() { sweepVarsOnce.m = expvar.NewMap("sweep") })
	return sweepVarsOnce.m
}

// telemetry is the -http endpoint: live sweep counters as expvar at
// /debug/vars and the standard pprof profiles at /debug/pprof/, served
// while the sweep runs. The simulation itself is untouched — telemetry
// reads the engine's progress reports, so a monitored sweep emits the
// same rows as an unmonitored one.
type telemetry struct {
	srv     *http.Server
	ln      net.Listener
	start   time.Time
	workers int
	now     func() time.Time // injectable clock for tests

	total, done, failed, cached, events  expvar.Int
	eventsPerSec, etaSeconds, elapsedSec expvar.Float
}

// storeStats is the slice of *resultstore.Store the telemetry endpoint
// exports: live archive counters, without coupling this package's tests
// to a real store.
type storeStats interface {
	Hits() uint64
	Misses() uint64
	Bytes() uint64
}

// newTelemetry builds the progress-consuming core without binding a
// socket, for tests that feed synthetic Progress sequences.
func newTelemetry(workers int, now func() time.Time) *telemetry {
	if now == nil {
		now = time.Now
	}
	return &telemetry{start: now(), workers: workers, now: now}
}

// startTelemetry binds addr (":0" picks a free port), publishes the
// counters, and serves until stop. workers is the engine's effective
// pool size, which the ETA model needs (see update); store, when
// non-nil, additionally exports the result store's live hit/miss/byte
// counters. The chosen address is announced on logw so callers binding
// port 0 can find the endpoint.
func startTelemetry(addr string, workers int, store storeStats, logw io.Writer) (*telemetry, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	t := newTelemetry(workers, nil)
	t.ln = ln
	m := sweepVars()
	m.Set("points_total", &t.total)
	m.Set("points_done", &t.done)
	m.Set("points_failed", &t.failed)
	m.Set("points_cached", &t.cached)
	m.Set("events_executed", &t.events)
	if store != nil {
		m.Set("store_hits", expvar.Func(func() any { return store.Hits() }))
		m.Set("store_misses", expvar.Func(func() any { return store.Misses() }))
		m.Set("store_bytes", expvar.Func(func() any { return store.Bytes() }))
	}
	m.Set("events_per_sec", &t.eventsPerSec)
	m.Set("eta_seconds", &t.etaSeconds)
	m.Set("elapsed_seconds", &t.elapsedSec)

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	t.srv = &http.Server{Handler: mux}
	go t.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at stop
	if logw != nil {
		fmt.Fprintf(logw, "sweep: telemetry on http://%s/debug/vars\n", ln.Addr())
	}
	return t, nil
}

// addr reports the bound address (resolving ":0" to the chosen port).
func (t *telemetry) addr() string { return t.ln.Addr().String() }

// update consumes one engine progress report. It runs on the engine's
// single collector goroutine; each expvar value is individually atomic,
// so HTTP readers need no further synchronization.
//
// ETA extrapolates wall-clock time per completed point over the plan's
// deterministic job count — the total is known before the first point
// finishes, which is what makes the estimate possible at all. The
// naive elapsed/done rate overestimates throughput's inverse by up to
// the worker count early on: with W workers, the first completion
// arrives after roughly one full point's wall time even though W points
// are nearly done, so elapsed/done ≈ W times the steady-state per-point
// cost. The min(done, W)/W factor discounts the estimate during that
// ramp and becomes exact (1.0) once a full wave of points has finished.
//
// Store cache hits are excluded from the rate estimate on both sides: a
// recalled point completes in microseconds and executes no events, so
// folding it into elapsed/done would collapse the ETA toward zero while
// every not-yet-archived point still costs full simulation time. The
// per-point rate divides by computed = done − cached, and a sweep whose
// completions are so far all cache hits reports ETA 0 — the honest
// reading when nothing has been simulated yet.
func (t *telemetry) update(p engine.Progress) {
	t.total.Set(int64(p.Total))
	t.done.Set(int64(p.Done))
	t.failed.Set(int64(p.Failed))
	if p.Last != nil && p.Last.Cached {
		t.cached.Add(1)
	}
	if p.Last != nil && p.Last.Metrics != nil && !p.Last.Cached {
		if v, ok := p.Last.Metrics.Value("events_executed"); ok {
			t.events.Add(int64(v))
		}
	}
	elapsed := t.now().Sub(t.start).Seconds()
	t.elapsedSec.Set(elapsed)
	if elapsed > 0 {
		t.eventsPerSec.Set(float64(t.events.Value()) / elapsed)
	}
	computed := p.Done - int(t.cached.Value())
	if computed > 0 {
		w := t.workers
		if w < 1 {
			w = 1
		}
		if w > p.Total {
			w = p.Total
		}
		ramp := float64(min(computed, w)) / float64(w)
		t.etaSeconds.Set(elapsed / float64(computed) * float64(p.Total-p.Done) * ramp)
	} else {
		t.etaSeconds.Set(0)
	}
}

// stop closes the listener and server; in-flight requests are cut off,
// which is fine for a debug endpoint.
func (t *telemetry) stop() { t.srv.Close() } //nolint:errcheck // best effort
