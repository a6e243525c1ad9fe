package machine

import (
	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
)

// MSHR tracks one outstanding coherence miss. A record belongs to its
// controller's MSHR file and is recycled when the miss retires: a *MSHR
// names its miss only until CompleteMiss, after which the same record
// may carry the controller's next miss. Code that must recognise a miss
// after an asynchronous round trip keeps its Serial, never the pointer.
type MSHR struct {
	Block  msg.Block
	Issued sim.Time
	// Serial numbers the controller's misses from 1; a recycled record
	// takes a fresh one.
	Serial uint64
	// OnTimer is a protocol's timer callback for this record. It survives
	// recycling, so a protocol binds it once, on the record's first miss,
	// and arms every later timer with it.
	OnTimer func()
	// Timer is the pending reissue/starvation timer, if any.
	Timer *sim.Event
	// waiters are the accesses merged into this miss, newest first;
	// CompleteMiss replays them oldest first.
	waiters *waiter

	// Reissues counts transient-request reissues (Token Coherence).
	Reissues int

	// Generic transaction scratch space used by the directory and hammer
	// protocols.
	AcksNeeded int
	AcksGot    int
	// Fill holds the data response until the transaction can commit
	// (e.g., while invalidation acknowledgments are still outstanding).
	Fill Fill

	Write bool
	// Persistent marks escalation to a persistent request.
	Persistent bool
	// Ordered marks that the request has reached its serialization point
	// (its place in the snooping total order, or acceptance at the
	// directory/home).
	Ordered bool
	GotData bool
	// Grant marks a dataless exclusivity grant (the requester upgrades
	// its own resident copy instead of filling from Fill).
	Grant bool
}

// Request returns the request kind that resolves the miss: GetM for a
// store, GetS for a load.
func (m *MSHR) Request() msg.Kind {
	if m.Write {
		return msg.KindGetM
	}
	return msg.KindGetS
}

// Fill is what an MSHR keeps of a data response: the fields the
// directory and hammer protocols commit from.
type Fill struct {
	Data, Seq    uint64
	Src          msg.Port
	Owner, Dirty bool
	// Valid marks that a response has been recorded.
	Valid bool
}

// FillOf returns the fill that response m carries.
func FillOf(m *msg.Message) Fill {
	return Fill{Data: m.Data, Seq: m.Seq, Src: m.Src, Owner: m.Owner, Dirty: m.Dirty, Valid: true}
}

// mshrFile is one controller's MSHR records: the live misses first, then
// retired records kept for reuse. A processor holds at most Config.MSHRs
// operations in flight, so a controller never has more misses than that
// outstanding; records are made on demand up to the peak it reaches, the
// first on the first miss, and a lookup scans the live ones.
type mshrFile struct {
	recs   []*MSHR // recs[:live] outstanding, recs[live:] free
	live   int
	serial uint64
}

// find returns blk's outstanding miss, or nil.
func (f *mshrFile) find(blk msg.Block) *MSHR {
	for _, m := range f.recs[:f.live] {
		if m.Block == blk {
			return m
		}
	}
	return nil
}

// take returns a cleared record, carrying a fresh serial, for a new miss.
func (f *mshrFile) take() *MSHR {
	if f.live == len(f.recs) {
		f.recs = append(f.recs, new(MSHR))
	}
	m := f.recs[f.live]
	f.live++
	f.serial++
	*m = MSHR{Serial: f.serial, OnTimer: m.OnTimer}
	return m
}

// retire moves m to the free records, reporting whether it was live.
// Its fields stay readable until the next take.
func (f *mshrFile) retire(m *MSHR) bool {
	for i, r := range f.recs[:f.live] {
		if r == m {
			f.live--
			f.recs[i], f.recs[f.live] = f.recs[f.live], m
			return true
		}
	}
	return false
}
