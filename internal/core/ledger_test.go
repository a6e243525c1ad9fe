package core

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tokencoherence/internal/machine"
	"tokencoherence/internal/msg"
)

func TestLedgerCleanFlow(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.Sent(1, 4, true, true)
	l.Received(1, 4, true)
	l.CheckConservation(1, 4, 1)
	if err := l.Err(); err != nil {
		t.Fatalf("clean flow reported %v", err)
	}
}

func TestLedgerDetectsDoubleInit(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.InitBlock(1)
	if l.Err() == nil {
		t.Error("double init not detected")
	}
}

func TestLedgerDetectsOwnerWithoutData(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.Sent(1, 1, true, false)
	if err := l.Err(); err == nil || !strings.Contains(err.Error(), "invariant #4'") {
		t.Errorf("owner-without-data not detected: %v", err)
	}
}

func TestLedgerDetectsOverReceive(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.Sent(1, 1, false, false)
	l.Received(1, 2, false)
	if l.Err() == nil {
		t.Error("token creation (over-receive) not detected")
	}
}

func TestLedgerDetectsTwoOwnersInFlight(t *testing.T) {
	l := NewLedger(8)
	l.InitBlock(1)
	l.Sent(1, 1, true, true)
	l.Sent(1, 1, true, true)
	if l.Err() == nil {
		t.Error("duplicate owner token not detected")
	}
}

func TestLedgerDetectsOwnerReceivedNotInFlight(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.Sent(1, 2, false, true)
	l.Received(1, 2, true)
	if err := l.Err(); err == nil || !strings.Contains(err.Error(), "owner token received but not in flight") {
		t.Errorf("owner token received without one in flight not detected: %v", err)
	}
}

func TestLedgerDetectsConservationViolation(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.CheckConservation(1, 3, 1) // one token missing
	if l.Err() == nil {
		t.Error("lost token not detected")
	}
}

func TestLedgerDetectsUninitializedTokens(t *testing.T) {
	l := NewLedger(4)
	l.Sent(7, 1, false, false)
	if l.Err() == nil {
		t.Error("tokens before initialization not detected")
	}
}

func TestLedgerDetectsSendingMoreThanT(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.Sent(1, 5, false, false)
	if l.Err() == nil {
		t.Error("sending more than T tokens not detected")
	}
}

func TestLedgerDetectsNonPositiveSends(t *testing.T) {
	l := NewLedger(4)
	l.InitBlock(1)
	l.Sent(1, 0, false, false)
	l.Received(1, -1, false)
	if len(l.Violations()) != 2 {
		t.Errorf("expected 2 violations, got %d", len(l.Violations()))
	}
}

func TestLedgerUntouchedBlockConservation(t *testing.T) {
	l := NewLedger(4)
	l.CheckConservation(9, 0, 0)
	if l.Err() != nil {
		t.Error("untouched block with no tokens should be fine")
	}
	l.CheckConservation(9, 2, 0)
	if l.Err() == nil {
		t.Error("tokens held for uninitialized block not detected")
	}
}

func TestLedgerInFlightAccounting(t *testing.T) {
	l := NewLedger(8)
	l.InitBlock(2)
	l.Sent(2, 3, false, false)
	l.Sent(2, 2, false, false)
	if l.InFlight(2) != 5 {
		t.Errorf("InFlight = %d, want 5", l.InFlight(2))
	}
	l.Received(2, 3, false)
	if l.InFlight(2) != 2 {
		t.Errorf("InFlight = %d, want 2", l.InFlight(2))
	}
}

func TestLedgerBlocks(t *testing.T) {
	l := NewLedger(4)
	for _, b := range []msg.Block{907, 5, 1 << 40, 1, 64} {
		l.InitBlock(b)
	}
	l.Received(33, 1, false) // an entry, but never initialized
	got := l.Blocks()
	if want := []msg.Block{1, 5, 64, 907, 1 << 40}; !slices.Equal(got, want) {
		t.Fatalf("Blocks() = %v, want the initialized blocks in order %v", got, want)
	}
}

func TestNewLedgerPanicsOnNonPositiveT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLedger(0) did not panic")
		}
	}()
	NewLedger(0)
}

// TestAuditErrorDeterministic audits a ledger whose blocks all fail
// conservation (initialized, then every token lost) and requires the
// same error text every time, naming the lowest block first.
func TestAuditErrorDeterministic(t *testing.T) {
	blocks := []msg.Block{907, 12, 4096, 3, 77, 1 << 40, 250, 64}
	var first string
	for i := 0; i < 50; i++ {
		ts := &TokenSystem{Ledger: NewLedger(4)}
		for _, b := range blocks {
			ts.Ledger.InitBlock(b)
		}
		err := ts.Audit()
		if err == nil {
			t.Fatal("audit of a ledger whose tokens all vanished passed")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, "first: block 3:") {
				t.Fatalf("audit error %q does not name the lowest block (3) first", first)
			}
			continue
		}
		if err.Error() != first {
			t.Fatalf("audit %d reported %q, audit 0 reported %q", i, err, first)
		}
	}
}

// TestAuditReportsTokensOfUninitializedBlock: a cache holds a token of
// a block the ledger never initialized. The audit keeps no sum for it
// and still fails, on the violation the ledger recorded at the send.
func TestAuditReportsTokensOfUninitializedBlock(t *testing.T) {
	_, ts := newTokenSystem(t, 4, 1, nil)
	c := ts.Caches[0]
	const b = msg.Block(5)
	c.Access(machine.Op{Addr: b.Base()}, func() {})
	ts.Ledger.Sent(b, 1, false, true)
	c.Handle(&msg.Message{
		Kind: msg.KindData, Cat: msg.CatData,
		Src: c.HomePort(b), Dst: c.CachePort(), Addr: b.Base(),
		Tokens: 1, HasData: true,
	})
	if l := c.L2.Lookup(b); l == nil || l.Tokens != 1 {
		t.Fatalf("line = %+v, want the one token", l)
	}
	if err := ts.Audit(); err == nil || !strings.Contains(err.Error(), "tokens sent before initialization") {
		t.Errorf("audit = %v, want the uninitialized send reported", err)
	}
}

// TestMemLineSize holds the home memory's per-block token record to 32
// bytes: the persistent-request pledge lives in the same record.
func TestMemLineSize(t *testing.T) {
	if size := unsafe.Sizeof(memLine{}); size > 32 {
		t.Errorf("memLine is %d bytes, want at most 32", size)
	}
}
