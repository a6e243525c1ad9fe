package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestSnapshotRoundTrip covers the values JSON numbers cannot carry: a
// transaction-less run's +Inf, NaN, negative zero, and floats needing
// all 17 digits must all come back bit-identical, with the schema (and
// its CSV format verbs) intact.
func TestSnapshotRoundTrip(t *testing.T) {
	ms := NewMetricSet()
	constant := func(name, help, format string, v float64) {
		ms.Derived(Desc{Name: name, Unit: "x", Help: help, Fmt: format}, func() float64 { return v })
	}
	constant("plain", "plain value", "%.2f", 1.0/3.0)
	constant("inf", "positive infinity", "", math.Inf(1))
	constant("nan", "not a number", "", math.NaN())
	constant("negzero", "negative zero", "", math.Copysign(0, -1))
	ms.Counter(Desc{Name: "big", Unit: "n", Help: "large count"}).Add(1<<53 + 1)

	snap := ms.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Descs(), got.Descs()) {
		t.Errorf("schema did not round-trip:\n  in  %+v\n  out %+v", snap.Descs(), got.Descs())
	}
	for _, name := range snap.Names() {
		want, _ := snap.Value(name)
		have, ok := got.Value(name)
		if !ok {
			t.Errorf("metric %q lost in round-trip", name)
			continue
		}
		if math.Float64bits(want) != math.Float64bits(have) {
			t.Errorf("metric %q: %v (bits %x) round-tripped to %v (bits %x)",
				name, want, math.Float64bits(want), have, math.Float64bits(have))
		}
		ws, _ := snap.Formatted(name)
		hs, _ := got.Formatted(name)
		if ws != hs {
			t.Errorf("metric %q: formatted %q round-tripped to %q", name, ws, hs)
		}
	}
}

// TestSnapshotDecodeRejectsMismatch guards the decoder against torn or
// hand-edited store entries.
func TestSnapshotDecodeRejectsMismatch(t *testing.T) {
	var s Snapshot
	if err := json.Unmarshal([]byte(`{"descs":[{"Name":"a"}],"values":[]}`), &s); err == nil {
		t.Error("want error for desc/value length mismatch")
	}
	if err := json.Unmarshal([]byte(`{"descs":[{"Name":"a"}],"values":["zzz"]}`), &s); err == nil {
		t.Error("want error for unparseable value")
	}
}
