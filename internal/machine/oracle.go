package machine

import (
	"fmt"
	"sync"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// Oracle is the safety checker. It verifies the property every protocol
// in this repository must provide — cache coherence, i.e. per-block
// sequential consistency:
//
//  1. Writes to a block are totally ordered (versions 1, 2, 3, ...).
//  2. A read returns a version that actually exists (no phantom data).
//  3. Each processor's accesses to a block observe non-decreasing
//     versions: once a processor has seen (read or written) version v,
//     it must never read an older version.
//  4. Write propagation: a read may not return a version that was
//     overwritten more than StaleLimit of simulated time before the
//     read committed (catches missed invalidations that rule 3 cannot
//     see for read-only sharers).
//
// Rules 1–3 are exact; rule 4 is a bounded-staleness net whose limit is
// far larger than any legitimate miss latency. Split-transaction
// protocols legally commit a read slightly after a racing write's
// wall-clock commit (the read is ordered earlier in coherence order), so
// a pure "latest version at commit time" check would raise false alarms;
// this oracle accepts those schedules while still failing on stale data.
type Oracle struct {
	// mu serializes commits and checks arriving from different islands of
	// a parallel run. The verdicts cannot depend on island interleaving:
	// a token (and with it write permission) crosses islands only through
	// the interconnect, at least one link latency after the previous
	// holder released it, so racing CommitWrite calls for one block are
	// impossible, and the StaleLimit slack (1 ms) dwarfs the lookahead
	// window (~15 ns) within which reads may reorder against writes.
	mu       sync.Mutex
	versions msg.Table[versions]
	seen     map[procBlock]uint64
	reads    uint64
	writes   uint64
	errs     []error

	// StaleLimit bounds rule 4 (default 1 ms).
	StaleLimit sim.Time
}

// maxViolations bounds the violations an oracle records.
const maxViolations = 16

type procBlock struct {
	proc  int
	block msg.Block
}

// versions is one block's write history: its latest committed version
// and the commit times of the versions still inside the pruning window.
type versions struct {
	latest uint64
	// first is the newest pruned version: commits[i] is when version
	// first+i+1 committed.
	first   uint64
	commits []sim.Time
}

// NewOracle returns an empty oracle; all blocks start at version 0.
func NewOracle() *Oracle {
	return &Oracle{
		seen:       make(map[procBlock]uint64),
		StaleLimit: sim.Millisecond,
	}
}

func (o *Oracle) fail(format string, args ...any) {
	if len(o.errs) < maxViolations {
		o.errs = append(o.errs, fmt.Errorf(format, args...))
	}
}

// CommitWrite records that proc committed a store to b at time now and
// returns the new version the writer must place in its copy.
func (o *Oracle) CommitWrite(proc int, b msg.Block, now sim.Time) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.writes++
	h := o.versions.At(b)
	h.latest++
	h.commits = append(h.commits, now)
	h.prune(now, o.StaleLimit)
	o.seen[procBlock{proc, b}] = h.latest
	return h.latest
}

// prune drops commit-time history far older than the staleness window.
func (h *versions) prune(now, staleLimit sim.Time) {
	if len(h.commits) < 4096 {
		return
	}
	horizon := now - 4*staleLimit
	drop := 0
	for drop < len(h.commits)-1 && h.commits[drop] < horizon {
		drop++
	}
	if drop > 0 {
		h.commits = append([]sim.Time(nil), h.commits[drop:]...)
		h.first += uint64(drop)
	}
}

// versionCommit returns when version v committed (ok=false when the history
// was pruned or v is 0/unknown).
func (h *versions) versionCommit(v uint64) (sim.Time, bool) {
	if v == 0 {
		return 0, true
	}
	if v <= h.first || v > h.first+uint64(len(h.commits)) {
		return 0, false
	}
	return h.commits[v-h.first-1], true
}

// CheckRead verifies that proc's completed load of b observed version v
// at time now.
func (o *Oracle) CheckRead(proc int, b msg.Block, v uint64, now sim.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.reads++
	h := o.versions.Get(b)
	latest := h.latest
	if v > latest {
		o.fail("phantom read of block %d: got v%d, latest committed is v%d", b, v, latest)
		return
	}
	key := procBlock{proc, b}
	if prev := o.seen[key]; v < prev {
		o.fail("proc %d read block %d going backwards: got v%d after seeing v%d", proc, b, v, prev)
		return
	}
	o.seen[key] = v
	if v < latest {
		// The value was overwritten; allow it only within the staleness
		// window (split-transaction completion skew).
		next, ok := h.versionCommit(v + 1)
		if !ok {
			o.fail("proc %d read block %d version v%d so old its history was pruned", proc, b, v)
			return
		}
		if now-next > o.StaleLimit {
			o.fail("proc %d stale read of block %d: v%d overwritten at %v, read at %v", proc, b, v, next, now)
		}
	}
}

// Latest reports the current committed version of b.
func (o *Oracle) Latest(b msg.Block) uint64 { return o.versions.Get(b).latest }

// Image returns a copy of the final memory image: the last committed
// version of every block ever written. Two runs that executed the same
// operation stream — regardless of protocol, topology, or timing — must
// produce identical images; the cross-protocol differential test relies
// on this.
func (o *Oracle) Image() map[msg.Block]uint64 {
	img := make(map[msg.Block]uint64)
	for b, h := range o.versions.Unordered() {
		img[b] = h.latest
	}
	return img
}

// Reads and Writes report how many operations were checked.
func (o *Oracle) Reads() uint64  { return o.reads }
func (o *Oracle) Writes() uint64 { return o.writes }

// Err returns nil if no violation was observed, else a summary error.
func (o *Oracle) Err() error {
	if len(o.errs) == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %d coherence violations, first: %w", len(o.errs), o.errs[0])
}

// Violations returns all recorded violations.
func (o *Oracle) Violations() []error { return o.errs }
