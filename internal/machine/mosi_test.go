package machine

import (
	"fmt"
	"testing"

	"tokencoherence/internal/cache"
)

// TestAnswerMOSI: every stable state (StateI = no line) against a shared
// and an exclusive request, with the migratory-sharing optimization off
// and on and the line written or not. Lines hold data v7, dirty. Each
// row gives the answer and the line's state after it (StateI = gone).
func TestAnswerMOSI(t *testing.T) {
	var (
		none   = Answer{}
		shared = Answer{Data: 7, HasData: true}
		owned  = Answer{Data: 7, HasData: true, Owner: true, Dirty: true}
	)
	rows := []struct {
		state              int
		exclusive          bool
		migratory, written bool
		want               Answer
		after              int
	}{
		{StateI, false, false, false, none, StateI},
		{StateI, false, false, true, none, StateI},
		{StateI, false, true, false, none, StateI},
		{StateI, false, true, true, none, StateI},
		{StateI, true, false, false, none, StateI},
		{StateI, true, false, true, none, StateI},
		{StateI, true, true, false, none, StateI},
		{StateI, true, true, true, none, StateI},

		{StateS, false, false, false, none, StateS},
		{StateS, false, false, true, none, StateS},
		{StateS, false, true, false, none, StateS},
		{StateS, false, true, true, none, StateS},
		{StateS, true, false, false, none, StateI},
		{StateS, true, false, true, none, StateI},
		{StateS, true, true, false, none, StateI},
		{StateS, true, true, true, none, StateI},

		{StateO, false, false, false, shared, StateO},
		{StateO, false, false, true, shared, StateO},
		{StateO, false, true, false, shared, StateO},
		{StateO, false, true, true, shared, StateO},
		{StateO, true, false, false, owned, StateI},
		{StateO, true, false, true, owned, StateI},
		{StateO, true, true, false, owned, StateI},
		{StateO, true, true, true, owned, StateI},

		{StateM, false, false, false, shared, StateO},
		{StateM, false, false, true, shared, StateO},
		{StateM, false, true, false, shared, StateO},
		{StateM, false, true, true, owned, StateI},
		{StateM, true, false, false, owned, StateI},
		{StateM, true, false, true, owned, StateI},
		{StateM, true, true, false, owned, StateI},
		{StateM, true, true, true, owned, StateI},
	}
	const blk = 5
	for _, row := range rows {
		name := fmt.Sprintf("%c, exclusive %v, migratory %v, written %v", "ISOM"[row.state], row.exclusive, row.migratory, row.written)
		_, b, _ := newTestBase(t)
		b.Cfg.Migratory = row.migratory
		if row.state != StateI {
			l := b.EnsureL2(blk)
			l.State, l.Valid, l.Data, l.Dirty, l.Written = row.state, true, 7, true, row.written
		}
		var wb Writebacks
		if got := b.AnswerMOSI(&wb, blk, row.exclusive); got != row.want {
			t.Errorf("%s: answer %+v, want %+v", name, got, row.want)
		}
		after := StateI
		if l := b.L2.Lookup(blk); l != nil {
			after = l.State
		}
		if after != row.after {
			t.Errorf("%s: line in %c after, want %c", name, "ISOM"[after], "ISOM"[row.after])
		}
	}
}

// TestAnswerMOSIWriteback: an owning writeback entry answers before the
// line would, sends its data on a shared request and keeps the block
// (even when written, with the migratory-sharing optimization on), and
// gives ownership away to an exclusive request.
func TestAnswerMOSIWriteback(t *testing.T) {
	const blk = 5
	for _, exclusive := range []bool{false, true} {
		_, b, _ := newTestBase(t)
		var wb Writebacks
		wb.Push(cache.Line{Block: blk, Data: 7, Dirty: true, Written: true, State: StateM})
		want, owner := Answer{Data: 7, HasData: true}, true
		if exclusive {
			want, owner = Answer{Data: 7, HasData: true, Owner: true, Dirty: true}, false
		}
		if got := b.AnswerMOSI(&wb, blk, exclusive); got != want {
			t.Errorf("exclusive %v: answer %+v, want %+v", exclusive, got, want)
		}
		if got := wb.Owner(blk) != nil; got != owner {
			t.Errorf("exclusive %v: entry still owns the block = %v, want %v", exclusive, got, owner)
		}
	}
}
