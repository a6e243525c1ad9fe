package machine

import (
	"tokencoherence/internal/cache"
	"tokencoherence/internal/msg"
)

// Writeback is an evicted owner line held in a cache's writeback buffer
// until the home resolves it, with the evicted line's fields. While
// Owner is set the entry is the block's owner copy and answers requests
// for it; a transaction that takes ownership away clears Owner, and the
// writeback is then stale.
type Writeback struct {
	Data                  uint64
	Dirty, Written, Owner bool
}

// Writebacks is a cache controller's writeback buffer. A block can have
// several pending entries when ownership is lost and re-acquired while
// writebacks are in flight; they resolve oldest first, and at most one,
// the newest, still owns the block. The zero value is an empty buffer.
type Writebacks struct {
	t msg.Table[[]Writeback]
}

// Push parks evicted owner line l. It panics while an older entry still
// owns the block: a cache cannot evict ownership it does not hold.
func (w *Writebacks) Push(l cache.Line) {
	if w.Owner(l.Block) != nil {
		panic("machine: evicting while an older writeback still owns the block")
	}
	q := w.t.At(l.Block)
	*q = append(*q, Writeback{Data: l.Data, Dirty: l.Dirty, Written: l.Written, Owner: true})
}

// Owner returns the entry that still owns b, or nil. The pointer is
// valid until the next Push or Pop for b.
func (w *Writebacks) Owner(b msg.Block) *Writeback {
	q := w.t.Get(b)
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].Owner {
			return &q[i]
		}
	}
	return nil
}

// Pending reports how many writebacks of b await resolution.
func (w *Writebacks) Pending(b msg.Block) int { return len(w.t.Get(b)) }

// Pop removes and returns b's oldest pending writeback (homes resolve a
// block's writebacks in the order they were sent). It panics when none
// is pending.
func (w *Writebacks) Pop(b msg.Block) Writeback {
	q := w.t.Get(b)
	if len(q) == 0 {
		panic("machine: writeback resolved with none pending")
	}
	if len(q) == 1 {
		w.t.Delete(b)
	} else {
		*w.t.At(b) = q[1:]
	}
	return q[0]
}
