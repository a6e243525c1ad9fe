package tokencoherence_test

// This file is the extension API's proof of openness: it registers a
// custom destination-set predictor (a new token performance policy) and
// a custom interconnect fabric (a bidirectional ring) using only the
// public tokencoherence package — no tokencoherence/internal import
// appears anywhere — and runs them together as a first-class protocol,
// token-conservation audit and coherence oracle included.

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"tokencoherence"
)

// ringTopology is a bidirectional ring: each node has a clockwise and a
// counterclockwise outgoing link, and unicasts take the shorter
// direction (ties go clockwise). Deterministic single-direction routing
// is prefix-closed, so the union of one source's paths is a tree, which
// is what the interconnect's multicast bandwidth accounting requires
// (it checks this when it builds the source's routes). A ring
// imposes no total order on broadcasts, so Ordered is false and the
// engine will refuse to pair it with traditional snooping.
type ringTopology struct {
	n int
}

func (r ringTopology) Name() string  { return "ring" }
func (r ringTopology) Nodes() int    { return r.n }
func (r ringTopology) Ordered() bool { return false }

// Each node owns two directed links: 2*node is clockwise (toward
// node+1), 2*node+1 is counterclockwise (toward node-1).
func (r ringTopology) NumLinks() int { return 2 * r.n }

// Path appends the route's links to path; src == dst appends none.
func (r ringTopology) Path(path []tokencoherence.LinkID, src, dst tokencoherence.NodeID) []tokencoherence.LinkID {
	cw := (int(dst) - int(src) + r.n) % r.n
	ccw := (int(src) - int(dst) + r.n) % r.n
	at := int(src)
	if cw <= ccw {
		for i := 0; i < cw; i++ {
			path = append(path, tokencoherence.LinkID(2*at))
			at = (at + 1) % r.n
		}
	} else {
		for i := 0; i < ccw; i++ {
			path = append(path, tokencoherence.LinkID(2*at+1))
			at = (at - 1 + r.n) % r.n
		}
	}
	return path
}

// lastSupplierPolicy is a minimal destination-set predictor in the
// spirit of the paper's §7 TokenM sketch: it remembers, per block, the
// last cache that supplied tokens, and sends first-issue transient
// requests to that cache plus the home. A reissue falls back to full
// broadcast. The predictor can be arbitrarily wrong — the substrate's
// token counting keeps every guess safe; mispredictions only cost
// reissues.
type lastSupplierPolicy struct {
	last map[tokencoherence.Block]tokencoherence.NodeID
}

func (p *lastSupplierPolicy) Observe(c *tokencoherence.TokenController, m *tokencoherence.Message) {
	if m.Src.Unit == tokencoherence.UnitCache {
		p.last[tokencoherence.BlockOf(m.Addr)] = m.Src.Node
	}
}

func (p *lastSupplierPolicy) Destinations(c *tokencoherence.TokenController, m *tokencoherence.MSHR, reissue bool, buf []tokencoherence.Port) []tokencoherence.Port {
	if reissue {
		// Mispredicted: broadcast to everyone plus the home.
		for i := 0; i < c.Cfg.Procs; i++ {
			if tokencoherence.NodeID(i) != c.ID {
				buf = append(buf, tokencoherence.Port{Node: tokencoherence.NodeID(i), Unit: tokencoherence.UnitCache})
			}
		}
		return append(buf, c.HomePort(m.Block))
	}
	buf = append(buf, c.HomePort(m.Block))
	if n, ok := p.last[m.Block]; ok && n != c.ID {
		buf = append(buf, tokencoherence.Port{Node: n, Unit: tokencoherence.UnitCache})
	}
	return buf
}

// Example_extension registers the custom policy and the ring through
// the public API, then runs the resulting protocol on the resulting
// fabric. The run passes the same token-conservation audit and
// coherence oracle as the built-ins.
func Example_extension() {
	tokencoherence.RegisterPolicy(tokencoherence.PolicySpec{
		Name:  "tokenlast",
		Hints: true, // home memories redirect using soft-state hints
		New: func() tokencoherence.Policy {
			return &lastSupplierPolicy{last: make(map[tokencoherence.Block]tokencoherence.NodeID)}
		},
	})
	tokencoherence.RegisterTopology(tokencoherence.TopologySpec{
		Name:    "ring",
		Ordered: false,
		New:     func(procs int) tokencoherence.Topology { return ringTopology{n: procs} },
	})

	snap, err := tokencoherence.Simulate(tokencoherence.Point{
		Protocol: "tokenlast",
		Topo:     "ring",
		Workload: "oltp",
		Procs:    8,
		Ops:      600,
		Warmup:   1200,
		Seed:     1,
	})
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}

	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	c := tokencoherence.Components()
	fmt.Println("policy registered as protocol:", has(c.Protocols, "tokenlast") && has(c.Policies, "tokenlast"))
	fmt.Println("ring registered:", has(c.Topologies, "ring"))
	txns, _ := snap.Value("transactions")
	misses, _ := snap.Value("misses")
	fmt.Println("tokens conserved over a real run:", txns > 0 && misses > 0)

	// The capability flag still guards the new fabric: snooping needs a
	// total order the ring cannot provide.
	err = tokencoherence.Point{Protocol: tokencoherence.ProtoSnooping, Topo: "ring"}.Validate()
	fmt.Println("snooping on the ring rejected:", err != nil)

	// Output:
	// policy registered as protocol: true
	// ring registered: true
	// tokens conserved over a real run: true
	// snooping on the ring rejected: true
}

// Example_probe registers a measurement probe through the public API —
// again without touching tokencoherence/internal — that subscribes to
// miss-completion events and derives a metric the fixed statistics do
// not carry: the fraction of misses slower than 1 microsecond (the
// reissue/persistent tail the paper's adaptive timeout reacts to). The
// probe's metrics join the run's named schema, so they select into CSV
// output by name exactly like the built-ins.
func Example_probe() {
	tokencoherence.RegisterProbe(tokencoherence.ProbeSpec{
		Name: "tail-latency",
		// New runs once per simulation with that run's MetricSet; metrics
		// registered here are zeroed automatically at the warmup boundary.
		New: func(ms *tokencoherence.MetricSet) tokencoherence.Observer {
			tail := ms.Counter(tokencoherence.MetricDesc{
				Name: "tail_misses", Unit: "count", Fmt: "%.0f",
				Help: "misses slower than 1us",
			})
			hist := ms.Histogram(tokencoherence.MetricDesc{
				Name: "probe_miss_latency", Unit: "ns",
				Help: "miss latency distribution rebuilt from observer events",
			})
			// Subscribe to miss completions only; Aux carries the latency.
			return tokencoherence.Observer{
				Kinds: tokencoherence.MaskOf(tokencoherence.MissCompleted),
				On: func(ev tokencoherence.Event) {
					hist.Observe(ev.Aux)
					if ev.Aux > tokencoherence.Microsecond {
						tail.Inc()
					}
				},
			}
		},
	})

	// The probe appears in the component listing and its metrics in the
	// schema of every protocol.
	has := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	fmt.Println("probe registered:", has(tokencoherence.Components().Probes, "tail-latency"))
	descs, err := tokencoherence.MetricSchema(tokencoherence.Point{Protocol: tokencoherence.ProtoTokenB})
	if err != nil {
		fmt.Println("schema:", err)
		return
	}
	schema := make([]string, len(descs))
	for i, d := range descs {
		schema[i] = d.Name
	}
	fmt.Println("probe metrics in schema:", has(schema, "tail_misses") && has(schema, "probe_miss_latency"))

	// Select the derived metric into CSV output by name, next to the
	// built-in columns, over a two-seed plan.
	var buf bytes.Buffer
	sink := &tokencoherence.CSVSink{W: &buf, Columns: tokencoherence.ColumnsByName(
		[]string{"seed", "cycles_per_txn", "tail_misses"})}
	plan := tokencoherence.Plan{
		Variants: []tokencoherence.Variant{{Point: tokencoherence.Point{
			Protocol: tokencoherence.ProtoTokenB, Workload: "oltp", Procs: 8,
		}}},
		Seeds: []uint64{1, 2},
		Ops:   400, Warmup: 800,
	}
	if _, err := (tokencoherence.Engine{}).Execute(context.Background(), plan, sink); err != nil {
		fmt.Println("execute:", err)
		return
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	fmt.Println("csv header:", lines[0])
	fmt.Println("csv rows with probe metric:", len(lines) == 3)

	// The same numbers are readable programmatically from the snapshot,
	// consistent with what the probe's own histogram observed.
	sys, snap, err := tokencoherence.SimulateMetrics(tokencoherence.Point{
		Protocol: tokencoherence.ProtoTokenB, Workload: "oltp",
		Procs: 8, Ops: 400, Warmup: 800, Seed: 1,
	})
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}
	tail, ok := snap.Value("tail_misses")
	mean, ok2 := snap.Value("probe_miss_latency")
	fmt.Println("snapshot carries probe metrics:", ok && ok2)
	avg, _ := snap.Value("avg_miss_ns")
	fmt.Println("probe histogram mean matches run:", mean == avg)
	fmt.Println("tail within misses:", tail >= 0 && uint64(tail) <= sys.Metrics.Count("misses"))

	// Output:
	// probe registered: true
	// probe metrics in schema: true
	// csv header: seed,cycles_per_txn,tail_misses
	// csv rows with probe metric: true
	// snapshot carries probe metrics: true
	// probe histogram mean matches run: true
	// tail within misses: true
}
