package machine

import (
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
)

// Processor is the timing processor model: it issues the workload's
// memory operations with their think times, sustains up to Config.MSHRs
// outstanding coherence misses (approximating the memory-level
// parallelism of the paper's dynamically scheduled cores), and counts
// completed transactions.
type Processor struct {
	k    *sim.Kernel
	id   int
	gen  Generator
	ctrl Controller
	cfg  Config
	rng  *sim.Source
	txns *stats.Counter

	limit        int
	issued       int
	completed    int
	outstanding  int
	loads        int
	held         Op // the next operation, when holding
	holding      bool
	stalled      bool
	issuePending bool
	done         bool
	onDone       func()

	// warmupOps, when positive, marks the cache-warming prefix; onWarm
	// fires once when this processor completes it.
	warmupOps int
	warmed    bool
	onWarm    func()

	// issueFire is the issue callback, bound once so the issue loop
	// schedules without allocating a closure per event.
	issueFire  func()
	freeTokens *opToken
}

// opToken is a pooled completion callback for one in-flight operation.
// Its fire closure is bound once when the token is first allocated.
type opToken struct {
	p    *Processor
	op   Op
	fire func()
	next *opToken
}

// run recycles the token before completing, so the issue the completion
// unblocks can reuse it.
func (t *opToken) run() {
	p, op := t.p, t.op
	t.next = p.freeTokens
	p.freeTokens = t
	p.opDone(op)
}

// NewProcessor builds a processor that will issue limit operations,
// counting completed transactions in txns (which may be nil).
func NewProcessor(k *sim.Kernel, id int, gen Generator, ctrl Controller, cfg Config, rng *sim.Source, txns *stats.Counter, limit int, onDone func()) *Processor {
	p := &Processor{
		k: k, id: id, gen: gen, ctrl: ctrl, cfg: cfg, rng: rng, txns: txns,
		limit: limit, onDone: onDone,
	}
	p.issueFire = p.issueTick
	return p
}

func (p *Processor) issueTick() {
	p.issuePending = false
	p.issueNext()
}

// Start schedules the first issue with a small random stagger so the
// processors do not march in lockstep.
func (p *Processor) Start() {
	p.scheduleIssue(p.rng.Duration(10 * sim.Nanosecond))
}

// Done reports whether all operations have completed.
func (p *Processor) Done() bool { return p.done }

// Issued reports operations issued so far.
func (p *Processor) Issued() int { return p.issued }

// Completed reports operations completed so far.
func (p *Processor) Completed() int { return p.completed }

func (p *Processor) scheduleIssue(d sim.Time) {
	if p.issuePending {
		return
	}
	p.issuePending = true
	p.k.After(d, p.issueFire)
}

func (p *Processor) issueNext() {
	if p.issued >= p.limit {
		return
	}
	var op Op
	if p.holding {
		op = p.held
	} else {
		op = p.gen.Next(p.id, p.rng)
	}
	if p.outstanding >= p.cfg.MSHRs || (!op.Write && p.loads >= p.cfg.MaxLoads) {
		// Hold the operation until an outstanding one (or load) retires.
		p.held, p.holding = op, true
		p.stalled = true
		return
	}
	p.holding = false
	p.issued++
	p.outstanding++
	if !op.Write {
		p.loads++
	}
	t := p.freeTokens
	if t == nil {
		t = &opToken{p: p}
		t.fire = t.run
	} else {
		p.freeTokens = t.next
	}
	t.op = op
	p.ctrl.Access(op, t.fire)
	if p.issued < p.limit {
		p.scheduleIssue(op.Think)
	}
}

func (p *Processor) opDone(op Op) {
	p.outstanding--
	if !op.Write {
		p.loads--
	}
	p.completed++
	if op.EndTxn {
		p.txns.Inc()
	}
	if p.warmupOps > 0 && !p.warmed && p.completed >= p.warmupOps {
		p.warmed = true
		if p.onWarm != nil {
			p.onWarm()
		}
	}
	if p.stalled && p.issued < p.limit {
		p.stalled = false
		p.scheduleIssue(0)
	}
	if p.completed == p.limit && !p.done {
		p.done = true
		if p.onDone != nil {
			p.onDone()
		}
	}
}
