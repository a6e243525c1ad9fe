package machine

import (
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// Observation journaling. Protocol events fire on island goroutines,
// but observers (probes, the tracer, the flight recorder) are written
// for single-threaded, globally-ordered delivery. Each island therefore
// appends the events some observer subscribes to onto a private
// journal, tagging each with the executing event's (time, actor, seq)
// stamp; at each window barrier the coordinator merges the journals in
// stamp order and hands every event to the observers whose mask holds
// its Kind. Stamps are partition-invariant (see sim.Cluster), so the
// replayed stream — and everything derived from it: traces, recorder
// dumps, probe metrics — is byte-identical at any island count. A
// single-island run takes the same path.

// jrec is one journaled event. Records with equal stamps come from one
// executing event, hence one island, so their order within its journal
// is authoritative.
type jrec struct {
	at  sim.Time
	seq uint64
	by  int32
	ev  stats.Event
}

// journal buffers one island's events between barriers.
type journal struct {
	k    *sim.Kernel
	recs []jrec
}

func (j *journal) push(ev stats.Event) {
	at, by, seq := j.k.CurStamp()
	j.recs = append(j.recs, jrec{at: at, seq: seq, by: by, ev: ev})
}

// stampLess orders journal records by the stamp of the emitting event.
func stampLess(a, b *jrec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.by != b.by {
		return a.by < b.by
	}
	return a.seq < b.seq
}

// replayJournals merges the islands' journals in stamp order and
// dispatches them to the attached observers. Called at every barrier,
// on the coordinator, while no island runs.
func (s *System) replayJournals() {
	if s.jidx == nil {
		s.jidx = make([]int, len(s.Isles))
	}
	idx := s.jidx
	for i := range idx {
		idx[i] = 0
	}
	for {
		var r *jrec
		best := -1
		for i, isle := range s.Isles {
			recs := isle.jr.recs
			if idx[i] >= len(recs) {
				continue
			}
			c := &recs[idx[i]]
			if best < 0 || stampLess(c, r) {
				best, r = i, c
			}
		}
		if best < 0 {
			break
		}
		idx[best]++
		s.dispatch(r.ev)
	}
	for _, isle := range s.Isles {
		isle.jr.recs = isle.jr.recs[:0]
	}
}

// dispatch hands ev to every attached observer subscribing to its Kind,
// in attach order.
func (s *System) dispatch(ev stats.Event) {
	for i := range s.observers {
		if o := &s.observers[i]; o.Kinds.Has(ev.Kind) {
			o.On(ev)
		}
	}
}
