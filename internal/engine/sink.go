package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"tokencoherence/internal/stats"
)

// Sink consumes a plan's successful results in deterministic plan
// order. Begin is called once with the total job count before any Emit.
type Sink interface {
	Begin(total int) error
	Emit(r Result) error
}

// --- CSV ---------------------------------------------------------------

// Column describes one CSV column: a header name and a formatter.
type Column struct {
	Name  string
	Value func(r Result) string
}

// TagColumn reads a mutation tag (see Mutation.Tags), so sweep axes like
// "bandwidth_gbps" appear as their own column.
func TagColumn(name string) Column {
	return Column{Name: name, Value: func(r Result) string { return r.Tags[name] }}
}

// MetricColumn selects a metric by name from each result's snapshot,
// rendered with the metric's declared format verb, so any measurement a
// component or probe publishes — not just the hand-picked defaults — can
// appear as a CSV column. A result whose schema lacks the metric (a
// protocol that does not publish it) yields an empty cell.
func MetricColumn(name string) Column {
	return Column{Name: name, Value: func(r Result) string {
		if r.Metrics == nil {
			return ""
		}
		s, _ := r.Metrics.Formatted(name)
		return s
	}}
}

// Point-identity columns, selectable by name alongside metrics.
var (
	colVariant   = Column{"variant", func(r Result) string { return r.Variant }}
	colTopo      = Column{"topo", func(r Result) string { return r.Point.Topo }}
	colWorkload  = Column{"workload", func(r Result) string { return r.Point.Workload }}
	colMutation  = Column{"mutation", func(r Result) string { return r.Mutation }}
	colSeed      = Column{"seed", func(r Result) string { return strconv.FormatUint(r.Point.Seed, 10) }}
	colUnlimited = Column{"unlimited", func(r Result) string { return strconv.FormatBool(r.Point.Unlimited) }}
)

// identityColumns lists them in DefaultColumns order.
var identityColumns = []Column{
	colVariant, ColProtocol, colTopo, colWorkload,
	colMutation, colSeed, colUnlimited, ColProcs,
}

// ColumnByName resolves one column name: first the point-identity
// columns (variant, protocol, topo, workload, mutation, seed, unlimited,
// procs), then the result's metric schema, then its mutation tags. The
// returned column never fails at selection time — an unknown name simply
// renders empty cells — because the metric schema can vary per result in
// a mixed-protocol plan.
func ColumnByName(name string) Column {
	for _, c := range identityColumns {
		if c.Name == name {
			return c
		}
	}
	return Column{Name: name, Value: func(r Result) string {
		if r.Metrics != nil {
			if s, ok := r.Metrics.Formatted(name); ok {
				return s
			}
		}
		return r.Tags[name]
	}}
}

// ColumnsByName resolves a list of column names (see ColumnByName), the
// engine-side implementation of the commands' -columns flag.
func ColumnsByName(names []string) []Column {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = ColumnByName(n)
	}
	return cols
}

// SplitColumnSpec parses a comma-separated column-name list (the
// commands' -columns flag syntax): blanks are trimmed, empty entries
// dropped.
func SplitColumnSpec(spec string) []string {
	var names []string
	for _, n := range strings.Split(spec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// UnknownColumns returns the entries of names that match no identity
// column, no metric in descs, and no tag key in tags — so commands can
// reject a typoed -columns selection up front with the valid names,
// instead of silently rendering empty cells. (Per-result resolution
// still tolerates schema-less names: a mixed-protocol plan legitimately
// lacks some metrics on some results.)
func UnknownColumns(names []string, descs []stats.Desc, tags []string) []string {
	known := make(map[string]bool, len(identityColumns)+len(descs)+len(tags))
	for _, c := range identityColumns {
		known[c.Name] = true
	}
	for _, d := range descs {
		known[d.Name] = true
	}
	for _, t := range tags {
		known[t] = true
	}
	var unknown []string
	for _, n := range names {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	return unknown
}

// WriteMetricSchema renders a metric schema as the commands'
// -list-metrics table: name, unit, help, one metric per line.
func WriteMetricSchema(w io.Writer, descs []stats.Desc) error {
	for _, d := range descs {
		if _, err := fmt.Fprintf(w, "%-24s %-12s %s\n", d.Name, d.Unit, d.Help); err != nil {
			return err
		}
	}
	return nil
}

// Shared point-identity and metric columns; custom sweeps compose these
// with TagColumn so their output formats stay in sync with
// DefaultColumns. The metric columns read the run's snapshot by name;
// their formats come from the metric schema (see machine.System).
var (
	ColProtocol      = Column{"protocol", func(r Result) string { return r.Point.Protocol }}
	ColProcs         = Column{"procs", func(r Result) string { return strconv.Itoa(r.Point.Procs) }}
	ColCyclesPerTxn  = MetricColumn("cycles_per_txn")
	ColAvgMissNS     = MetricColumn("avg_miss_ns")
	ColBytesPerMiss  = MetricColumn("bytes_per_miss")
	ColReissuedPct   = MetricColumn("reissued_pct")
	ColPersistentPct = MetricColumn("persistent_pct")
)

// DefaultColumns identify the point and report the headline metrics.
func DefaultColumns() []Column {
	cols := make([]Column, 0, len(identityColumns)+5)
	cols = append(cols, identityColumns...)
	return append(cols,
		ColCyclesPerTxn,
		ColAvgMissNS,
		ColBytesPerMiss,
		ColReissuedPct,
		ColPersistentPct,
	)
}

// CSVSink writes a header then one row per successful result.
type CSVSink struct {
	W io.Writer
	// Columns defaults to DefaultColumns when nil.
	Columns []Column
}

// Begin writes the header row.
func (s *CSVSink) Begin(total int) error {
	if s.Columns == nil {
		s.Columns = DefaultColumns()
	}
	return s.writeRow(func(c Column) string { return c.Name })
}

// Emit writes one row.
func (s *CSVSink) Emit(r Result) error {
	return s.writeRow(func(c Column) string { return c.Value(r) })
}

// End flushes the underlying writer when it buffers (implements
// Flush() error), so interrupted sweeps leave complete rows on disk.
func (s *CSVSink) End() error { return flushWriter(s.W) }

// flushWriter forwards to w's Flush method when it has one (bufio.Writer
// and friends); unbuffered writers need nothing.
func flushWriter(w io.Writer) error {
	if f, ok := w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

func (s *CSVSink) writeRow(field func(Column) string) error {
	for i, c := range s.Columns {
		if i > 0 {
			if _, err := io.WriteString(s.W, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(s.W, field(c)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(s.W, "\n")
	return err
}

// --- JSON lines --------------------------------------------------------

// JSONLSink writes one JSON object per successful result: the point's
// identity, the headline metrics as top-level fields (null when
// non-finite), and the full metric map (every named metric whose value
// is finite — JSON cannot encode the Inf a transaction-less run
// reports — with keys sorted by the JSON encoder, hence deterministic).
type JSONLSink struct {
	W io.Writer
}

// jsonFloat marshals like a plain float64 except that the non-finite
// values JSON cannot encode (the +Inf a transaction-less run reports)
// become null instead of failing the whole sweep at its last step.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

type jsonlRecord struct {
	Variant       string             `json:"variant"`
	Protocol      string             `json:"protocol"`
	Topo          string             `json:"topo"`
	Workload      string             `json:"workload,omitempty"`
	Mutation      string             `json:"mutation,omitempty"`
	Tags          map[string]string  `json:"tags,omitempty"`
	Seed          uint64             `json:"seed"`
	Unlimited     bool               `json:"unlimited,omitempty"`
	Procs         int                `json:"procs,omitempty"`
	CyclesPerTxn  jsonFloat          `json:"cycles_per_txn"`
	AvgMissNS     jsonFloat          `json:"avg_miss_ns"`
	BytesPerMiss  jsonFloat          `json:"bytes_per_miss"`
	ReissuedPct   jsonFloat          `json:"reissued_pct"`
	PersistentPct jsonFloat          `json:"persistent_pct"`
	Metrics       map[string]float64 `json:"metrics,omitempty"`
}

// Begin implements Sink.
func (s *JSONLSink) Begin(total int) error { return nil }

// End flushes the underlying writer when it buffers (see CSVSink.End).
func (s *JSONLSink) End() error { return flushWriter(s.W) }

// Emit writes one line.
func (s *JSONLSink) Emit(r Result) error {
	value := func(name string) jsonFloat {
		v, _ := r.Metrics.Value(name)
		return jsonFloat(v)
	}
	rec := jsonlRecord{
		Variant:       r.Variant,
		Protocol:      r.Point.Protocol,
		Topo:          r.Point.Topo,
		Workload:      r.Point.Workload,
		Mutation:      r.Mutation,
		Tags:          r.Tags,
		Seed:          r.Point.Seed,
		Unlimited:     r.Point.Unlimited,
		Procs:         r.Point.Procs,
		CyclesPerTxn:  value("cycles_per_txn"),
		AvgMissNS:     value("avg_miss_ns"),
		BytesPerMiss:  value("bytes_per_miss"),
		ReissuedPct:   value("reissued_pct"),
		PersistentPct: value("persistent_pct"),
	}
	rec.Metrics = r.Metrics.FiniteMap()
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = s.W.Write(b)
	return err
}

// --- In-memory aggregation ---------------------------------------------

// Aggregate accumulates the per-seed results of one grid cell — one
// (variant, workload, mutation, unlimited) combination.
type Aggregate struct {
	Variant   string
	Workload  string
	Mutation  string
	Unlimited bool
	// Snapshots holds the cell's per-seed metric snapshots in seed-axis
	// order.
	Snapshots []*stats.Snapshot
}

// Mean averages the named metric over the cell's seeds (0 for none).
func (a *Aggregate) Mean(metric string) float64 {
	if len(a.Snapshots) == 0 {
		return 0
	}
	var sum float64
	for _, snap := range a.Snapshots {
		v, _ := snap.Value(metric)
		sum += v
	}
	return sum / float64(len(a.Snapshots))
}

// SumMisses sums the miss classification over the cell's seeds.
func (a *Aggregate) SumMisses() stats.Misses { return Misses(a.Snapshots...) }

// Misses sums the Table 2 miss classes of snaps, rebuilt from each
// snapshot's four integer counters. The not-reissued class is derived
// from them in integer arithmetic (stats.Misses.NotReissued), never read
// back from its float metric, so every printed percentage matches the
// counters'.
func Misses(snaps ...*stats.Snapshot) stats.Misses {
	var m stats.Misses
	for _, snap := range snaps {
		count := func(name string) uint64 {
			v, _ := snap.Value(name)
			return uint64(v)
		}
		m.Issued += count("misses")
		m.ReissuedOnce += count("misses_reissued_once")
		m.ReissuedMore += count("misses_reissued_more")
		m.Persistent += count("misses_persistent")
	}
	return m
}

type cellKey struct {
	variant, workload, mutation string
	unlimited                   bool
}

// AggregateSink collapses the seed axis: results sharing a grid cell
// accumulate into one Aggregate, in first-seen (plan) order.
type AggregateSink struct {
	cells []*Aggregate
	index map[cellKey]*Aggregate
}

// Begin implements Sink.
func (s *AggregateSink) Begin(total int) error { return nil }

// Emit implements Sink.
func (s *AggregateSink) Emit(r Result) error {
	key := cellKey{r.Variant, r.Point.Workload, r.Mutation, r.Point.Unlimited}
	if s.index == nil {
		s.index = map[cellKey]*Aggregate{}
	}
	cell := s.index[key]
	if cell == nil {
		cell = &Aggregate{
			Variant:   r.Variant,
			Workload:  r.Point.Workload,
			Mutation:  r.Mutation,
			Unlimited: r.Point.Unlimited,
		}
		s.index[key] = cell
		s.cells = append(s.cells, cell)
	}
	cell.Snapshots = append(cell.Snapshots, r.Metrics)
	return nil
}

// Cells returns the aggregates in plan order.
func (s *AggregateSink) Cells() []*Aggregate { return s.cells }

// Find returns the named cell, or nil.
func (s *AggregateSink) Find(variant, workload, mutation string, unlimited bool) *Aggregate {
	return s.index[cellKey{variant, workload, mutation, unlimited}]
}
