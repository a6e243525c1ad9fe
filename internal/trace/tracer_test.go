package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// decodeTrace parses an exported trace back into its top-level shape.
func decodeTrace(t *testing.T, b []byte) struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   json.Number    `json:"ts"`
		Dur  json.Number    `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
} {
	t.Helper()
	var out struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   json.Number    `json:"ts"`
			Dur  json.Number    `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, b)
	}
	return out
}

// TestTracerSpanStitching checks one miss's event sequence becomes one
// complete span with its reissues and token arrivals as instants.
func TestTracerSpanStitching(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	o := tr.Observer()
	o.On(stats.Event{Kind: stats.MissIssued, Node: 3, Block: 42, Flag: true, At: 1_234_567 * sim.Picosecond})
	o.On(stats.Event{Kind: stats.Reissued, Node: 3, Block: 42, N: 1, At: 2 * sim.Microsecond})
	o.On(stats.Event{Kind: stats.TokensTransferred, Node: 3, Block: 42, N: 5, At: 3 * sim.Microsecond})
	o.On(stats.Event{Kind: stats.TokensTransferred, Node: 9, Block: 42, N: 1, At: 3 * sim.Microsecond}) // no open miss: dropped
	o.On(stats.Event{Kind: stats.MissCompleted, Node: 3, Block: 42, N: 1, Aux: 2 * sim.Microsecond})
	if tr.Spans() != 1 {
		t.Fatalf("Spans = %d, want 1", tr.Spans())
	}

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, buf.Bytes())
	if out.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var spans, instants int
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			spans++
			if ev.Name != "GetM 0x2a" || ev.Cat != "miss" || ev.Pid != pidProcs || ev.Tid != 3 {
				t.Errorf("span event = %+v", ev)
			}
			if string(ev.Ts) != "1.234567" {
				t.Errorf("ts = %s, want exact microseconds 1.234567", ev.Ts)
			}
			if string(ev.Dur) != "2.000000" {
				t.Errorf("dur = %s, want 2.000000", ev.Dur)
			}
			if ev.Args["reissues"] != float64(1) || ev.Args["persistent"] != false {
				t.Errorf("span args = %v", ev.Args)
			}
		case "i":
			instants++
		case "B":
			t.Errorf("unexpected open span %+v", ev)
		}
	}
	if spans != 1 {
		t.Errorf("exported %d X spans, want 1", spans)
	}
	if instants != 2 { // reissue + the open transaction's token arrival
		t.Errorf("exported %d instants, want 2", instants)
	}
}

// TestTracerWarmupBoundary checks MeasurementStarted discards warmup
// events and pre-boundary transactions never become measured spans.
func TestTracerWarmupBoundary(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	o := tr.Observer()
	o.On(stats.Event{Kind: stats.MissIssued, Block: 1, At: 1 * sim.Microsecond})          // warmup miss
	o.On(stats.Event{Kind: stats.MissIssued, Node: 1, Block: 2, At: 2 * sim.Microsecond}) // straddles the boundary
	o.On(stats.Event{Kind: stats.MissCompleted, Block: 1, Aux: sim.Microsecond})
	o.On(stats.Event{Kind: stats.MeasurementStarted, At: 5 * sim.Microsecond})
	o.On(stats.Event{Kind: stats.Reissued, Node: 1, Block: 2, N: 1, At: 6 * sim.Microsecond})         // pre-boundary span: dropped
	o.On(stats.Event{Kind: stats.MissCompleted, Node: 1, Block: 2, N: 1, Aux: 5 * sim.Microsecond})   // pre-boundary: no span
	o.On(stats.Event{Kind: stats.MissIssued, Node: 1, Block: 2, Flag: true, At: 7 * sim.Microsecond}) // measured miss, same key
	o.On(stats.Event{Kind: stats.MissCompleted, Node: 1, Block: 2, Aux: 2 * sim.Microsecond})         // measured span
	if tr.Spans() != 1 {
		t.Fatalf("Spans = %d, want 1 (only the post-boundary miss)", tr.Spans())
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, buf.Bytes())
	var spans, marks int
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "X":
			spans++
			if string(ev.Ts) != "7.000000" {
				t.Errorf("measured span ts = %s, want 7.000000", ev.Ts)
			}
		case ev.Name == "measurement start":
			marks++
			if ev.S != "g" {
				t.Errorf("measurement mark scope = %q, want g", ev.S)
			}
		case ev.Ph == "i" || ev.Ph == "B":
			t.Errorf("pre-boundary event leaked into the export: %+v", ev)
		}
	}
	if spans != 1 || marks != 1 {
		t.Errorf("spans/marks = %d/%d, want 1/1", spans, marks)
	}
}

// TestTracerOpenSpan checks a transaction still in flight exports as an
// unclosed "B" slice (a failed run's starving miss stays visible).
func TestTracerOpenSpan(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	o := tr.Observer()
	o.On(stats.Event{Kind: stats.MissIssued, Node: 2, Block: 7, At: sim.Microsecond})
	if tr.Spans() != 0 {
		t.Fatalf("Spans = %d, want 0 while open", tr.Spans())
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, buf.Bytes())
	open := 0
	for _, ev := range out.TraceEvents {
		if ev.Ph == "B" {
			open++
			if ev.Name != "GetS 0x7" {
				t.Errorf("open span name = %q", ev.Name)
			}
		}
	}
	if open != 1 {
		t.Errorf("exported %d open spans, want 1", open)
	}
}

// TestTracerArbiterAndHops checks persistent events land on the arbiter
// process row and hops (opt-in) on the network row.
func TestTracerArbiterAndHops(t *testing.T) {
	tr := NewTracer(TracerConfig{Hops: true})
	o := tr.Observer()
	if !o.Kinds.Has(stats.NetworkHop) {
		t.Fatal("Hops tracer does not subscribe to NetworkHop")
	}
	o.On(stats.Event{Kind: stats.PersistentActivated, Node: 4, Block: 9, At: sim.Microsecond})
	o.On(stats.Event{Kind: stats.PersistentDeactivated, Node: 4, Block: 9, At: 2 * sim.Microsecond})
	o.On(stats.Event{Kind: stats.NetworkHop, Node: 12, Cat: msg.CatReissue, N: 8, At: 3 * sim.Microsecond})
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeTrace(t, buf.Bytes())
	var sawAct, sawDeact, sawHop bool
	for _, ev := range out.TraceEvents {
		switch ev.Name {
		case "persistent activate 0x9":
			sawAct = ev.Pid == pidArbs && ev.Tid == 4
		case "persistent deactivate 0x9":
			sawDeact = ev.Pid == pidArbs && ev.Tid == 4
		case msg.CatReissue.Slug():
			if ev.Cat == "hop" {
				sawHop = ev.Pid == pidNet && ev.Tid == 12 && ev.Args["bytes"] == float64(8)
			}
		}
	}
	if !sawAct || !sawDeact || !sawHop {
		t.Errorf("activate/deactivate/hop placement = %v/%v/%v", sawAct, sawDeact, sawHop)
	}
	if o2 := NewTracer(TracerConfig{}).Observer(); o2.Kinds.Has(stats.NetworkHop) {
		t.Error("default tracer subscribes to NetworkHop")
	}
}

// TestTracerExportDeterministic checks identical event histories export
// byte-identical JSON — the property the engine-level parallelism test
// relies on per job.
func TestTracerExportDeterministic(t *testing.T) {
	render := func() []byte {
		tr := NewTracer(TracerConfig{})
		o := tr.Observer()
		for i := 0; i < 50; i++ {
			blk := msg.Block(i % 16)
			o.On(stats.Event{Kind: stats.MissIssued, Node: int32(i % 8), Block: blk, Flag: i%3 == 0, At: sim.Time(i) * sim.Microsecond})
			if i%5 == 0 {
				o.On(stats.Event{Kind: stats.Reissued, Node: int32(i % 8), Block: blk, N: 1, At: sim.Time(i)*sim.Microsecond + sim.Nanosecond})
			}
			o.On(stats.Event{Kind: stats.MissCompleted, Node: int32(i % 8), Block: blk, N: int32(i % 5), Flag: i%7 == 0, Aux: 3 * sim.Microsecond})
		}
		var buf bytes.Buffer
		if err := tr.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("identical histories exported different bytes")
	}
}
