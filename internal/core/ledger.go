package core

import (
	"fmt"
	"sync"

	"tokencoherence/internal/msg"
)

// Ledger audits the token-counting invariants at runtime. Every
// component reports token sends and receives; the ledger tracks in-flight
// counts per block and records violations instead of panicking so tests
// can report them cleanly.
type Ledger struct {
	// T is the fixed token count per block (invariant #1').
	T int

	// mu serializes reports from different islands of a parallel run.
	// Token messages cross islands with at least one link latency of
	// delay — beyond the lookahead window — so a Sent always lands in an
	// earlier window than its Received and the audited counts cannot
	// depend on island interleaving.
	mu sync.Mutex

	lines msg.Table[ledgerLine]
	errs  []error
}

// ledgerLine is one block's audit state. A block can have tokens in
// flight before it is initialized (a send before InitBlock is itself a
// violation), so init is kept apart from having an entry.
type ledgerLine struct {
	init bool
	// inflight counts tokens in transit, owners the owner tokens among
	// them.
	inflight, owners int
}

// NewLedger builds a ledger for T tokens per block.
func NewLedger(t int) *Ledger {
	if t <= 0 {
		panic("core: token count must be positive")
	}
	return &Ledger{T: t}
}

func (l *Ledger) fail(format string, args ...any) {
	if len(l.errs) < 32 {
		l.errs = append(l.errs, fmt.Errorf(format, args...))
	}
}

// InitBlock records the lazy creation of a block's T tokens at its home
// memory. Initializing twice is a violation.
func (l *Ledger) InitBlock(b msg.Block) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ll := l.lines.At(b)
	if ll.init {
		l.fail("block %d initialized twice", b)
		return
	}
	ll.init = true
}

// Initialized reports whether the block's tokens exist yet.
func (l *Ledger) Initialized(b msg.Block) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines.Get(b).init
}

// Sent records tokens leaving a component in a message. It checks
// invariant #4' (owner token implies data).
func (l *Ledger) Sent(b msg.Block, tokens int, owner, hasData bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tokens <= 0 {
		l.fail("block %d: sent message with %d tokens", b, tokens)
		return
	}
	ll := l.lines.At(b)
	switch {
	case owner && !hasData:
		l.fail("block %d: owner token sent without data (invariant #4')", b)
	case !ll.init:
		l.fail("block %d: tokens sent before initialization", b)
	case tokens > l.T:
		l.fail("block %d: sent %d tokens, more than T=%d", b, tokens, l.T)
	}
	ll.inflight += tokens
	if owner {
		ll.owners++
		if ll.owners > 1 {
			l.fail("block %d: two owner tokens in flight", b)
		}
	}
}

// Received records tokens arriving at a component.
func (l *Ledger) Received(b msg.Block, tokens int, owner bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tokens <= 0 {
		l.fail("block %d: received message with %d tokens", b, tokens)
		return
	}
	ll := l.lines.At(b)
	ll.inflight -= tokens
	if ll.inflight < 0 {
		l.fail("block %d: more tokens received than sent (in-flight %d)", b, ll.inflight)
	}
	if owner {
		ll.owners--
		if ll.owners < 0 {
			l.fail("block %d: owner token received but not in flight", b)
		}
	}
}

// InFlight reports tokens currently in transit for b.
func (l *Ledger) InFlight(b msg.Block) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines.Get(b).inflight
}

// Blocks returns every initialized block in ascending order.
func (l *Ledger) Blocks() []msg.Block {
	var out []msg.Block
	for b, ll := range l.lines.All() {
		if ll.init {
			out = append(out, b)
		}
	}
	return out
}

// CheckConservation verifies invariant #1' for block b given the total
// tokens and owner count held by all components.
func (l *Ledger) CheckConservation(b msg.Block, held, owners int) {
	ll := l.lines.Get(b)
	if !ll.init {
		if held != 0 || ll.inflight != 0 {
			l.fail("block %d: tokens exist without initialization", b)
		}
		return
	}
	if total := held + ll.inflight; total != l.T {
		l.fail("block %d: %d tokens held + %d in flight = %d, want T=%d",
			b, held, ll.inflight, total, l.T)
	}
	if total := owners + ll.owners; total != 1 {
		l.fail("block %d: %d owner tokens (held+flight), want exactly 1", b, total)
	}
}

// Err summarizes recorded violations (nil when clean).
func (l *Ledger) Err() error {
	if len(l.errs) == 0 {
		return nil
	}
	return fmt.Errorf("ledger: %d invariant violations, first: %w", len(l.errs), l.errs[0])
}

// Violations exposes all recorded violations.
func (l *Ledger) Violations() []error { return l.errs }
