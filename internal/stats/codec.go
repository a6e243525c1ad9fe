package stats

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// This file makes a run's result durable: a Snapshot round-trips
// through JSON exactly. The result store (internal/resultstore)
// persists completed points in this encoding and the engine replays
// decoded snapshots through the normal sink path, so a recalled point
// must reproduce every CSV cell and JSONL field byte for byte. float64
// metric values are encoded as strings via strconv's shortest
// round-trip form because JSON numbers cannot carry the Inf/NaN a
// transaction-less run legitimately reports.

// snapshotJSON is Snapshot's wire form: the schema in registration order
// plus one value per metric, in the shortest string that parses back to
// the identical float64, non-finite values included.
type snapshotJSON struct {
	Descs  []Desc   `json:"descs"`
	Values []string `json:"values"`
}

// MarshalJSON implements json.Marshaler.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	w := snapshotJSON{Descs: s.descs, Values: make([]string, len(s.values))}
	for i, v := range s.values {
		w.Values[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var w snapshotJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Descs) != len(w.Values) {
		return fmt.Errorf("stats: snapshot with %d descs but %d values", len(w.Descs), len(w.Values))
	}
	*s = Snapshot{
		descs:  w.Descs,
		values: make([]float64, len(w.Values)),
		index:  make(map[string]int, len(w.Descs)),
	}
	for i, raw := range w.Values {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return fmt.Errorf("stats: snapshot value %d (%s): %w", i, w.Descs[i].Name, err)
		}
		s.values[i] = v
		s.index[w.Descs[i].Name] = i
	}
	return nil
}
