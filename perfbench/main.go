// Command perfbench is the simulator's benchmark. It runs one workload
// (see workloads.go) for a fixed wall-clock time, checks every simulated
// point, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones a user of the
// simulator sees; with --trace 1 the same workload runs under the CPU
// profiler and the metrics are per layer. run.py builds and runs it:
//
//	python3 perfbench/run.py --workload paper16 --seed 1 --seconds 20 --trace 0
//
// run.py passes --profile, the file the traced run writes its CPU
// profile to; the toolchain's pprof then reads it (see profile.go).
//
// The benchmark runs on one CPU (GOMAXPROCS 1), as each worker of a
// sweep that keeps every CPU busy with its own point does; on more, the
// garbage collector's idle workers burn whatever CPU the host leaves
// free. Times are the process's CPU time, user plus system, not wall
// time: on a shared virtual machine the hypervisor hands this machine's
// CPUs to other tenants for seconds at a time, which shows in wall time
// but not in CPU time.
//
// CPU time still follows the host: when other tenants load the shared
// caches and memory, the same point takes up to twice as long, in
// phases lasting from seconds to minutes. The end-to-end time is
// therefore point_cpu_vs_ref, each point's CPU time divided by that of
// a fixed memory-bound reference loop (refLoop) run just before and
// just after it. A change to the simulator moves it as it moves the
// point's CPU time; a slow host phase slows both and largely cancels.
// The raw CPU time per point is reported per layer as point_cpu_ms.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	tc "tokencoherence"
)

const (
	// setupReps is how many times the set-up phase builds every machine
	// of a round; one more build is made first and discarded because it
	// runs on fresh zero pages while every later one reuses (and clears)
	// freed heap, as a long sweep does.
	setupReps = 7
	// minRounds keeps the medians meaningful when one round is long
	// compared with --seconds.
	minRounds = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper16 or scale256")
	seed := flag.Uint64("seed", 1, "seed for the simulation points' seeds")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds of measured rounds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a profiled run, 0 end-to-end metrics")
	profile := flag.String("profile", "", "file the CPU profile of a --trace 1 run is written to")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *traced == 1 && *profile == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --trace 1 needs --profile")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *profile, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench accumulates one run's measurements.
type bench struct {
	dumps             dumpCounter
	attempted, failed int

	// Sums over measured points.
	points                    int
	cpu                       time.Duration
	events, msgs              float64
	misses, reissued, persist float64
	allocBytes, mallocs, gcs  uint64
}

func run(name string, seed uint64, measure time.Duration, profile string, traced bool) (*result, error) {
	b := &bench{}
	rng := &splitmix{s: seed}
	round := func() ([]tc.Point, error) { return roundPoints(name, rng, &b.dumps) }

	pts, err := round()
	if err != nil {
		return nil, err
	}
	setup, err := measureSetup(pts)
	if err != nil {
		return nil, err
	}

	// One unmeasured round lets the heap and the registry settle.
	for _, pt := range pts {
		b.simulate(pt)
	}

	var prof *os.File
	if traced {
		if prof, err = os.Create(profile); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	// cpu[i] and rel[i] hold the i-th point of every measured round: its
	// CPU time in ms, and that time over the reference loop's around it.
	cpu := make([][]float64, len(pts))
	rel := make([][]float64, len(pts))
	var first tc.Point
	var firstSnap map[string]float64
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < measure; r++ {
		if pts, err = round(); err != nil {
			return nil, err
		}
		// The traced run skips the reference loop, which would only add
		// its own samples to the profile.
		var before time.Duration
		if !traced {
			before = refTime()
		}
		for i, pt := range pts {
			pr := b.simulate(pt)
			var after time.Duration
			if !traced {
				after = refTime()
			}
			if pr.snap == nil {
				before = after
				continue
			}
			if r == 0 && i == 0 {
				first, firstSnap = pt, pr.snap
			}
			cpu[i] = append(cpu[i], pr.cpu.Seconds()*1e3)
			if !traced {
				rel[i] = append(rel[i], 2*pr.cpu.Seconds()/(before+after).Seconds())
			}
			before = after
			b.add(pr)
		}
	}
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}

	// Simulation is deterministic: the first measured point, run again,
	// must reproduce every metric exactly.
	deterministic := true
	if firstSnap != nil {
		if !sameMetrics(firstSnap, b.simulate(first).snap) {
			deterministic = false
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d is not deterministic\n", first.Protocol, first.Seed)
		}
	}

	res := &result{
		Correct:   b.failed == 0 && deterministic && b.points > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	n := math.Max(float64(b.points), 1)
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics["point_cpu_vs_ref"] = metric{sumOfMedians(rel) / float64(len(pts)), "x"}
		res.Metrics["setup_s"] = metric{setup, "s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		res.Metrics["alloc_mb_per_point"] = metric{float64(b.allocBytes) / (1 << 20) / n, "MB"}
		return res, nil
	}
	shares, err := layerShares(profile)
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		res.Metrics["cpu_"+l+"_pct"] = metric{shares[l], "%"}
	}
	res.Metrics["point_cpu_ms"] = metric{sumOfMedians(cpu) / float64(len(pts)), "ms"}
	res.Metrics["ns_per_event"] = metric{float64(b.cpu.Nanoseconds()) / math.Max(b.events, 1), "ns"}
	res.Metrics["events_per_point"] = metric{b.events / n, "count"}
	res.Metrics["msgs_per_point"] = metric{b.msgs / n, "count"}
	res.Metrics["mallocs_per_point"] = metric{float64(b.mallocs) / n, "count"}
	res.Metrics["gc_cycles_per_point"] = metric{float64(b.gcs) / n, "count"}
	res.Metrics["reissued_pct"] = metric{100 * b.reissued / math.Max(b.misses, 1), "%"}
	res.Metrics["persistent_pct"] = metric{100 * b.persist / math.Max(b.misses, 1), "%"}
	return res, nil
}

// measureSetup returns the CPU seconds it takes to build every machine
// of a round — configuration, topology, caches, interconnect, protocol
// controllers — without simulating: each machine's median over
// setupReps builds, summed over the round.
func measureSetup(pts []tc.Point) (float64, error) {
	each := make([][]float64, len(pts))
	for r := 0; r <= setupReps; r++ {
		for i, pt := range pts {
			runtime.GC()
			c0 := cpuTime()
			if _, err := tc.MetricSchema(pt); err != nil {
				return 0, fmt.Errorf("set-up %s: %w", pt.Protocol, err)
			}
			if r > 0 {
				each[i] = append(each[i], (cpuTime() - c0).Seconds())
			}
		}
	}
	return sumOfMedians(each), nil
}

// sumOfMedians sums the medians of the series. Taking each point's
// median over rounds before summing drops the rounds the host slowed.
func sumOfMedians(series [][]float64) float64 {
	var sum float64
	for _, s := range series {
		sum += median(s)
	}
	return sum
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/automatic:gc-cycles"},
}

func readRuntime() [3]uint64 {
	metrics.Read(runtimeSamples)
	var v [3]uint64
	for i, s := range runtimeSamples {
		v[i] = s.Value.Uint64()
	}
	return v
}

// pointRun is one simulated point: CPU time, metric snapshot (nil when
// the point failed), and the Go runtime's allocated bytes, allocated
// objects and automatic GC cycles during the point.
type pointRun struct {
	cpu  time.Duration
	snap map[string]float64
	rt   [3]uint64
}

// simulate runs and checks one point.
func (b *bench) simulate(pt tc.Point) pointRun {
	runtime.GC()
	b.dumps.n = 0
	before := readRuntime()
	c0 := cpuTime()
	_, snap, err := tc.SimulateMetrics(pt)
	pr := pointRun{cpu: cpuTime() - c0}
	after := readRuntime()
	for i := range pr.rt {
		pr.rt[i] = after[i] - before[i]
	}
	b.attempted++
	if err == nil {
		err = check(snap, b.dumps.n)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s/%s seed %d: %v\n", pt.Protocol, pt.Topo, pt.Seed, err)
		return pr
	}
	pr.snap = snap.FiniteMap()
	return pr
}

func (b *bench) add(pr pointRun) {
	snap := pr.snap
	b.points++
	b.cpu += pr.cpu
	b.events += snap["events_executed"]
	for name, v := range snap {
		if strings.HasPrefix(name, "msgs_") {
			b.msgs += v
		}
	}
	b.misses += snap["misses"]
	b.reissued += snap["misses_reissued_once"] + snap["misses_reissued_more"]
	b.persist += snap["misses_persistent"]
	b.allocBytes += pr.rt[0]
	b.mallocs += pr.rt[1]
	b.gcs += pr.rt[2]
}

// check rejects a point whose simulation did no work or whose flight
// recorder dumped. Deadlocks, coherence-oracle violations and token
// conservation failures already surface as SimulateMetrics errors.
func check(snap *tc.MetricSnapshot, dumps int) error {
	if dumps > 0 {
		return fmt.Errorf("flight recorder dumped %d times", dumps)
	}
	for _, name := range []string{"accesses", "transactions", "misses", "events_executed"} {
		if v, ok := snap.Value(name); !ok || !(v > 0) {
			return fmt.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	return nil
}

func sameMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's CPU time, user plus system, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refBuf is the reference loop's working set: larger than a core's
// private caches, small beside the points' own heaps.
var refBuf = make([]uint64, 1<<20)

var refSink uint64

// refTime runs refLoop after a collection and returns its CPU time.
func refTime() time.Duration {
	runtime.GC()
	c0 := cpuTime()
	refSink += refLoop()
	return cpuTime() - c0
}

// refLoop is fixed work in the simulator's style — dependent random
// reads and writes over a buffer — taking about 10 ms on an idle host.
// It must never change: point_cpu_vs_ref is measured in its units.
func refLoop() uint64 {
	var x, s uint64 = 1, 0
	for i := 0; i < 1_500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x + s) & uint64(len(refBuf)-1)
		s += refBuf[j]
		refBuf[j] = s
	}
	return s
}

// peakRSSMB reads the process's peak resident set size (Linux VmHWM)
// less refBuf, which the reference loop keeps resident all run long.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb/1024 - float64(len(refBuf)*8)/(1<<20), nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
