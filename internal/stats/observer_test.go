package stats

import "testing"

// TestMaskOf pins the Kind set arithmetic fire sites and the journal
// filter on: each Kind owns one bit and ProtocolKinds is everything but
// NetworkHop.
func TestMaskOf(t *testing.T) {
	m := MaskOf(MissCompleted, NetworkHop)
	for k := Kind(0); k < numKinds; k++ {
		if got, want := m.Has(k), k == MissCompleted || k == NetworkHop; got != want {
			t.Errorf("MaskOf(MissCompleted, NetworkHop).Has(%v) = %v", k, got)
		}
		if !AllKinds.Has(k) {
			t.Errorf("AllKinds lacks %v", k)
		}
		if ProtocolKinds.Has(k) == (k == NetworkHop) {
			t.Errorf("ProtocolKinds.Has(%v) = %v", k, ProtocolKinds.Has(k))
		}
	}
	if MissIssued.String() != "MissIssued" || MeasurementStarted.String() != "MeasurementStarted" || numKinds.String() != "Kind(8)" {
		t.Errorf("Kind names: %v %v %v", MissIssued, MeasurementStarted, numKinds)
	}
}

// TestObserverNilSafety checks the zero Observer, the "no observer" of
// probes and disabled recorders, subscribes to nothing, so fire sites
// never call its nil On.
func TestObserverNilSafety(t *testing.T) {
	var o Observer
	for k := Kind(0); k < numKinds; k++ {
		if o.Kinds.Has(k) {
			t.Errorf("zero Observer subscribes to %v", k)
		}
	}
	if MaskOf() != 0 {
		t.Errorf("MaskOf() = %#x, want the empty set", MaskOf())
	}
}
