package main

import (
	"fmt"

	tc "tokencoherence"
	"tokencoherence/internal/workload"
)

// A workload is one round of simulation points: the benchmark runs the
// round again and again, each time with fresh simulation seeds drawn
// from --seed, and reports per-round medians.
//
//   - paper16: the paper's 16-processor target system (Table 1) running
//     its evaluation grid — TokenB, Directory and Hammer on the torus,
//     Snooping on the ordered tree — over the three commercial mixes,
//     plus regionfilter, the token substrate with region-filtered
//     multicast over the torus's row clusters. Broadcast receive, cache
//     probes, the interconnect and TokenB's reissues dominate.
//   - scale256: the scalability experiment's uniform-sharing
//     microbenchmark (§6, question 5; harness and sweeps build the same
//     generator) on a 256-processor torus with TokenB, the flat Directory
//     and the two-level dir2. Per-node set-up, 256-way multicast and the
//     directory homes dominate. TokenB gets only two operations per
//     processor because its broadcasts cost O(n²) messages at this size.
var workloads = map[string]func() []tc.Point{
	"paper16": func() []tc.Point {
		var pts []tc.Point
		for _, wl := range []string{"apache", "oltp", "specjbb"} {
			for _, v := range paperVariants {
				pts = append(pts, tc.Point{Protocol: v[0], Topo: v[1], Workload: wl,
					Procs: 16, Ops: 400, Warmup: 1200})
			}
		}
		return pts
	},
	"scale256": func() []tc.Point {
		pt := func(proto string, ops int) tc.Point {
			return tc.Point{Protocol: proto, Topo: tc.TopoTorus, NewGen: uniformSharing,
				Procs: 256, Ops: ops}
		}
		return []tc.Point{pt(tc.ProtoTokenB, 2), pt(tc.ProtoDirectory, 10), pt(tc.ProtoDir2, 10)}
	},
}

// paperVariants are the protocol/interconnect pairs of the paper's
// Figures 4 and 5, then regionfilter.
var paperVariants = [][2]string{
	{tc.ProtoTokenB, tc.TopoTorus},
	{tc.ProtoSnooping, tc.TopoTree},
	{tc.ProtoDirectory, tc.TopoTorus},
	{tc.ProtoHammer, tc.TopoTorus},
	{tc.ProtoRegionFilter, tc.TopoTorus},
}

func uniformSharing(procs int) tc.Generator {
	return workload.NewUniform(2048, 0.3, 5*tc.Nanosecond, procs)
}

// dumpCounter counts flight-recorder dumps. The recorder dumps on a
// deadlock, a safety-oracle failure or a transaction that overran the
// starvation deadline, so any dump fails the point.
type dumpCounter struct{ n int }

func (d *dumpCounter) Write(p []byte) (int, error) {
	d.n++
	return len(p), nil
}

// roundPoints returns the workload's round with seeds drawn from rng
// and flight-recorder dumps routed to dumps.
func roundPoints(name string, rng *splitmix, dumps *dumpCounter) ([]tc.Point, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	pts := mk()
	for i := range pts {
		pts[i].Seed = rng.next()
		pts[i].Mutate = func(c *tc.Config) { c.DebugLog = dumps }
	}
	return pts, nil
}

// splitmix is SplitMix64, the seed stream for simulation points.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
