package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/stats"
)

// snapshotWithEvents builds a metric snapshot reporting n executed
// events, the shape telemetry reads off each completed result.
func snapshotWithEvents(t *testing.T, n float64) *stats.Snapshot {
	t.Helper()
	ms := stats.NewMetricSet()
	ms.Derived(stats.Desc{Name: "events_executed", Unit: "events", Help: "test"}, func() float64 { return n })
	return ms.Snapshot()
}

// fakeClock advances a telemetry's injectable clock by fixed steps.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) tick(d time.Duration) { c.t = c.t.Add(d) }
func secs(t *telemetry) (eta, elapsed float64) {
	return t.etaSeconds.Value(), t.elapsedSec.Value()
}

// TestTelemetryETAFoldsWorkers replays a synthetic sweep — 8 points on
// 4 workers, the completion stream a pipelined pool produces (first
// finish after the ~4s ramp, then one per second as workers free up) —
// through the ETA model. The worker-aware estimate must stay within a
// factor of two of the true remaining wall time at every report; the
// old worker-blind elapsed/done model fails that immediately, reading
// 28s at the first completion against a truth of 7s (4× off — exactly
// the -parallel factor the bug report describes).
func TestTelemetryETAFoldsWorkers(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tel := newTelemetry(4, clock.now)

	finish := []time.Duration{4 * time.Second, 5 * time.Second, 6 * time.Second, 7 * time.Second,
		8 * time.Second, 9 * time.Second, 10 * time.Second, 11 * time.Second}
	for i, at := range finish {
		clock.t = time.Unix(1000, 0).Add(at)
		tel.update(engine.Progress{Done: i + 1, Total: 8})
		eta, elapsed := secs(tel)
		if want := at.Seconds(); elapsed != want {
			t.Fatalf("after point %d: elapsed = %v, want %v", i+1, elapsed, want)
		}
		truth := (finish[len(finish)-1] - at).Seconds()
		if truth == 0 {
			if eta != 0 {
				t.Errorf("eta after the last point = %v, want 0", eta)
			}
			continue
		}
		if eta > 2*truth || eta < truth/2 {
			t.Errorf("after point %d: eta = %.2fs, outside [%.2f, %.2f] around true remaining %.2fs",
				i+1, eta, truth/2, 2*truth, truth)
		}
	}
}

// TestTelemetryETARampFirstCompletion pins the exact factor at the
// sharpest point of the old bug: 1 of 16 points done on 8 workers after
// 4s. The naive estimate is 4/1×15 = 60s; folding the worker count in
// scales it by min(done,workers)/workers = 1/8, giving 7.5s — within a
// point's cost of the true 7s (two full waves of 8 remain).
func TestTelemetryETARampFirstCompletion(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tel := newTelemetry(8, clock.now)
	clock.tick(4 * time.Second)
	tel.update(engine.Progress{Done: 1, Total: 16})
	if eta, _ := secs(tel); eta != 7.5 {
		t.Errorf("eta = %v, want 7.5 (naive estimate would be 60)", eta)
	}
}

// TestTelemetryETAWorkersCappedByTotal checks a pool wider than the
// plan: 4 points on 16 workers all finish in one wave, and the ramp
// factor must divide by the 4 points that can actually run — not by 16,
// which would underestimate a two-wave plan's remainder 4×.
func TestTelemetryETAWorkersCappedByTotal(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tel := newTelemetry(16, clock.now)
	clock.tick(4 * time.Second)
	tel.update(engine.Progress{Done: 2, Total: 4})
	// elapsed/done × remaining × done/min(workers,total) = 4/2 × 2 × 2/4 = 2s.
	if eta, _ := secs(tel); eta != 2 {
		t.Errorf("eta = %v, want 2", eta)
	}
}

// TestTelemetryETADiscountsCachedPoints replays a resumed sweep: 16
// points on 2 workers, the first 8 recalled from the result store
// within 100ms, then computed points landing one per second. At the
// first computed completion the naive elapsed/done rate would read
// 1.1/9 ≈ 0.12 s/point and forecast under a second of work, while seven
// full simulations (~4s of wall time on 2 workers) actually remain.
// Subtracting cache hits from the rate keeps the estimate honest.
func TestTelemetryETADiscountsCachedPoints(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tel := newTelemetry(2, clock.now)

	cached := engine.Result{Cached: true}
	for i := 0; i < 8; i++ {
		clock.t = time.Unix(0, int64(i+1)*10_000_000) // 10ms per recall
		tel.update(engine.Progress{Done: i + 1, Total: 16, Last: &cached})
		if eta, _ := secs(tel); eta != 0 {
			t.Fatalf("after %d pure cache hits: eta = %v, want 0 (nothing simulated yet)", i+1, eta)
		}
	}
	if got := tel.cached.Value(); got != 8 {
		t.Fatalf("cached = %d, want 8", got)
	}

	computed := engine.Result{}
	clock.t = time.Unix(0, 0).Add(1100 * time.Millisecond)
	tel.update(engine.Progress{Done: 9, Total: 16, Last: &computed})
	// computed = 1, ramp = min(1,2)/2: eta = 1.1/1 × 7 × 0.5 = 3.85s —
	// the right order of magnitude for 7 points on 2 workers.
	if eta, _ := secs(tel); math.Abs(eta-3.85) > 1e-9 {
		t.Errorf("first computed point: eta = %v, want 3.85 (naive hit-blind estimate would be ~0.86)", eta)
	}

	// Steady state: completions 10..16 arrive one per second.
	for done := 10; done <= 16; done++ {
		clock.t = time.Unix(0, 0).Add(1100*time.Millisecond + time.Duration(done-9)*time.Second)
		tel.update(engine.Progress{Done: done, Total: 16, Last: &computed})
		eta, _ := secs(tel)
		truth := float64(16 - done) // one completion per second from here
		if done == 16 {
			if eta != 0 {
				t.Errorf("after the last point: eta = %v, want 0", eta)
			}
			continue
		}
		if eta > 2*truth || eta < truth/2 {
			t.Errorf("after point %d: eta = %.2fs, outside [%.2f, %.2f] around true remaining %.2fs",
				done, eta, truth/2, 2*truth, truth)
		}
	}
}

// TestTelemetryCachedPointsSkipEventCounters: a recalled result carries
// the original run's events_executed metric, but this process never
// executed those events — the live rate counters must not absorb them.
func TestTelemetryCachedPointsSkipEventCounters(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tel := newTelemetry(1, clock.now)
	snap := snapshotWithEvents(t, 5000)
	clock.tick(time.Second)
	tel.update(engine.Progress{Done: 1, Total: 2, Last: &engine.Result{Cached: true, Metrics: snap}})
	if got := tel.events.Value(); got != 0 {
		t.Errorf("cached point added %d events to the live counter", got)
	}
	tel.update(engine.Progress{Done: 2, Total: 2, Last: &engine.Result{Metrics: snap}})
	if got := tel.events.Value(); got != 5000 {
		t.Errorf("computed point events = %d, want 5000", got)
	}
}

// TestTelemetrySecondSweepKeepsFirstCounting is the regression test for
// the expvar wipe: starting a second sweep's telemetry while the first
// still runs must not clear or corrupt the first sweep's counters — the
// first instance keeps accumulating on its own values, and the
// published map simply hands the keys to the newest sweep.
func TestTelemetrySecondSweepKeepsFirstCounting(t *testing.T) {
	var log bytes.Buffer
	first, err := startTelemetry("127.0.0.1:0", 2, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer first.stop()
	first.update(engine.Progress{Done: 3, Total: 10, Failed: 1})
	if got := first.done.Value(); got != 3 {
		t.Fatalf("first sweep done = %d, want 3", got)
	}

	second, err := startTelemetry("127.0.0.1:0", 2, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer second.stop()

	// The old code called Init() on the shared map here, which zeroed
	// the first sweep's published counters mid-run. The first instance
	// must still hold — and keep updating — its own values.
	if got := first.done.Value(); got != 3 {
		t.Errorf("starting a second sweep reset the first sweep's done to %d", got)
	}
	first.update(engine.Progress{Done: 4, Total: 10, Failed: 1})
	if got := first.done.Value(); got != 4 {
		t.Errorf("first sweep stopped counting after second started: done = %d", got)
	}

	// The shared expvar map now belongs to the second sweep.
	second.update(engine.Progress{Done: 1, Total: 5})
	m := sweepVars()
	if got := second.done.Value(); got != 1 {
		t.Errorf("second sweep done = %d, want 1", got)
	}
	if m.Get("points_done") != &second.done {
		t.Error("published points_done is not the newest sweep's counter")
	}
}
