package tokencoherence_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"tokencoherence"
)

// ExampleSimulate is the package's compiled quick start: run one
// simulation point and read its headline statistics. The run is
// deterministic, audited for token conservation, and checked by the
// coherence oracle.
func ExampleSimulate() {
	snap, err := tokencoherence.Simulate(tokencoherence.Point{
		Protocol: tokencoherence.ProtoTokenB,
		Topo:     tokencoherence.TopoTorus,
		Workload: "oltp",
		Procs:    8,
		Ops:      500,
		Warmup:   1000,
		Seed:     1,
	})
	if err != nil {
		// A non-nil error includes token-conservation audit and
		// coherence-oracle violations.
		fmt.Println("simulate:", err)
		return
	}
	// Every measurement is a named metric (tokensim -list-metrics).
	v := func(name string) float64 { x, _ := snap.Value(name); return x }
	fmt.Println("made progress:", v("transactions") > 0 && v("misses") > 0)
	fmt.Println("finite metrics:", v("cycles_per_txn") > 0 && v("bytes_per_miss") > 0)
	// Output:
	// made progress: true
	// finite metrics: true
}

// ExampleObserver attaches two observers to a contended TokenB run
// through Engine.Attach: one counts the substrate's protocol events by
// kind, the other counts network hops by message category.
func ExampleObserver() {
	protocolKinds := []tokencoherence.EventKind{
		tokencoherence.MissIssued, tokencoherence.MissCompleted, tokencoherence.Reissued,
		tokencoherence.PersistentActivated, tokencoherence.PersistentDeactivated,
		tokencoherence.TokensTransferred,
	}
	var protocolMask tokencoherence.EventMask = tokencoherence.MaskOf(protocolKinds...)
	events := make(map[tokencoherence.EventKind]int)
	hops := make(map[tokencoherence.Category]int)
	eng := tokencoherence.Engine{Attach: func(tokencoherence.Job) func(*tokencoherence.System) {
		return func(sys *tokencoherence.System) {
			sys.Observe(tokencoherence.Observer{Kinds: protocolMask, On: func(ev tokencoherence.Event) {
				events[ev.Kind]++
			}})
			sys.Observe(tokencoherence.Observer{
				Kinds: tokencoherence.MaskOf(tokencoherence.NetworkHop),
				On:    func(ev tokencoherence.Event) { hops[ev.Cat]++ },
			})
		}
	}}
	plan := tokencoherence.Plan{
		Variants: []tokencoherence.Variant{{Point: tokencoherence.Point{
			Protocol: tokencoherence.ProtoTokenB, Workload: "oltp", Procs: 8,
			// One reissue, then a persistent request.
			Mutate: func(c *tokencoherence.Config) { c.MaxReissues = 1 },
		}}},
		Seeds: []uint64{1},
		Ops:   400, Warmup: 400,
	}
	if _, err := eng.Execute(context.Background(), plan); err != nil {
		fmt.Println("execute:", err)
		return
	}
	fmt.Println("every issued miss completed:", events[tokencoherence.MissIssued] == events[tokencoherence.MissCompleted])
	fmt.Println("tokens transferred:", events[tokencoherence.TokensTransferred] > 0)
	fmt.Println("misses reissued:", events[tokencoherence.Reissued] > 0)
	fmt.Println("persistent requests activated and retired:",
		events[tokencoherence.PersistentActivated] > 0 && events[tokencoherence.PersistentDeactivated] > 0)
	for _, cat := range []tokencoherence.Category{
		tokencoherence.CatRequest, tokencoherence.CatReissue, tokencoherence.CatControl, tokencoherence.CatData,
	} {
		fmt.Printf("%s hops: %v\n", cat, hops[cat] > 0)
	}
	// Output:
	// every issued miss completed: true
	// tokens transferred: true
	// misses reissued: true
	// persistent requests activated and retired: true
	// requests hops: true
	// reissues+persistent hops: true
	// other-control hops: true
	// data hops: true
}

// ExampleCSVSink writes a plan's results as CSV: the default columns
// that identify each point, a published metric selected by name, and a
// column computed from each Result. The plan's mutation axis runs every
// point again at half the link bandwidth.
func ExampleCSVSink() {
	halfBandwidth := tokencoherence.Mutation{
		Name:  "half-bw",
		Apply: func(c *tokencoherence.Config) { c.Net.LinkBandwidth /= 2 },
	}
	plan := tokencoherence.Plan{
		Variants: []tokencoherence.Variant{{Name: "tokenb", Point: tokencoherence.Point{
			Protocol: tokencoherence.ProtoTokenB, Topo: tokencoherence.TopoTorus,
			Workload: "apache", Procs: 4,
		}}},
		Mutations: []tokencoherence.Mutation{{Name: "full-bw"}, halfBandwidth},
		Seeds:     []uint64{1},
		Ops:       200, Warmup: 200,
	}
	identity := tokencoherence.DefaultColumns()[:8] // variant ... procs
	cols := append(identity,
		tokencoherence.MetricColumn("bytes_per_miss"),
		tokencoherence.Column{Name: "kb_total", Value: func(r tokencoherence.Result) string {
			b, _ := r.Metrics.Value("bytes_total")
			return fmt.Sprintf("%.1f", b/1024)
		}},
	)
	var out bytes.Buffer
	sinks := []tokencoherence.Sink{&tokencoherence.CSVSink{W: &out, Columns: cols}}
	if _, err := (tokencoherence.Engine{}).Execute(context.Background(), plan, sinks...); err != nil {
		fmt.Println("execute:", err)
		return
	}
	// Print the header, then each row's identity cells; the two
	// measurements vary with the simulator, so only their count is shown.
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	fmt.Println(rows[0])
	for _, row := range rows[1:] {
		cells := strings.Split(row, ",")
		fmt.Println(strings.Join(cells[:8], ","), "+", len(cells[8:]), "measurements")
	}
	// Output:
	// variant,protocol,topo,workload,mutation,seed,unlimited,procs,bytes_per_miss,kb_total
	// tokenb,tokenb,torus,apache,full-bw,1,false,4 + 2 measurements
	// tokenb,tokenb,torus,apache,half-bw,1,false,4 + 2 measurements
}
