package sim

import (
	"fmt"
	"math/bits"
)

// Event is a scheduled action. Events are created by Kernel.Schedule and
// may be cancelled before they fire.
//
// Event objects are owned by the kernel and recycled through a free list
// once they fire or a cancellation is drained, so callers must drop
// their reference to an event no later than when its action runs (the
// usual pattern is for the action itself to clear the field holding the
// event). Cancel is safe only on events that have not fired yet.
type Event struct {
	at     Time
	seq    uint64
	by     int32 // actor whose event scheduled this one (stamp)
	on     int32 // actor this event executes as
	action func()
	next   *Event // wheel-slot chain / free-list link
}

// Cancelled reports whether the event has been cancelled or already fired.
func (e *Event) Cancelled() bool { return e.action == nil }

// The event queue is a hierarchical timing wheel: wheelLevels levels of
// wheelSlots buckets each, with a bucket granularity of 1<<granShift
// picoseconds at level 0 and wheelSlots times coarser per level. A
// bucket holds an unsorted chain of events; exact (time, sequence)
// ordering is recovered by a small binary heap ("cur") that holds only
// the events of the bucket the cursor is standing on. Events beyond the
// top level's horizon (about 268 us) wait in an overflow heap and are
// migrated into the wheel when the cursor reaches their region.
//
// Scheduling and cancelling are O(1); firing pays O(log b) for a bucket
// of b events, which stays tiny because buckets subdivide time finely.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 buckets per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	granShift   = 10 // level-0 bucket spans 1024 ps ~ 1 ns
)

// levelShift returns the right-shift that maps a time to its bucket
// quotient at level l.
func levelShift(l int) uint { return uint(granShift + l*wheelBits) }

// slotList is a FIFO chain of events within one wheel bucket.
type slotList struct {
	head, tail *Event
}

func (s *slotList) push(e *Event) {
	e.next = nil
	if s.tail == nil {
		s.head = e
	} else {
		s.tail.next = e
	}
	s.tail = e
}

// take empties the list and returns its head.
func (s *slotList) take() *Event {
	h := s.head
	s.head, s.tail = nil, nil
	return h
}

// Kernel is a deterministic discrete-event scheduler. The zero value is
// ready to use at time 0.
type Kernel struct {
	now       Time
	seq       uint64
	scheduled uint64
	executed  uint64
	stopped   bool
	live      int // scheduled events not yet fired or cancelled

	// Actor stamping. Every event carries a (time, actor, sequence)
	// stamp where actor is the actor whose event issued the schedule
	// and sequence is that actor's private out-counter. The stamp is a
	// total order that does not depend on how actors are partitioned
	// into islands, which is what makes island runs byte-identical to
	// serial runs (see cluster.go). A standalone kernel (aseq == nil)
	// stamps everything with actor 0 and the global seq counter,
	// reproducing the classic single-queue insertion order exactly.
	curBy  int32  // stamp actor of the event currently executing
	curOn  int32  // exec actor of the event currently executing
	curSeq uint64 // stamp sequence of the event currently executing
	aseq   []uint64
	cl     *Cluster
	island int32

	// curStart is the start time of the bucket the cursor stands on;
	// cur holds that bucket's events as a min-heap by (time, sequence).
	curStart Time
	cur      []*Event

	levels [wheelLevels][wheelSlots]slotList
	occ    [wheelLevels]uint64 // per-level bucket-occupancy bitmaps

	overflow []*Event // min-heap by (time, sequence), beyond the wheel horizon

	free *Event // recycled Event objects
}

// NewKernel returns a kernel positioned at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have fired so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Scheduled reports how many events have ever been scheduled (fired,
// cancelled, still pending, or handed to another island). Together with
// Executed it is the kernel's contribution to the run's metric schema.
func (k *Kernel) Scheduled() uint64 { return k.scheduled }

// Pending reports how many events are waiting in the queue.
func (k *Kernel) Pending() int { return k.live }

// SetExecActor sets the actor context used to stamp schedules made
// outside any event (model construction, processor start staggering).
func (k *Kernel) SetExecActor(a int32) { k.curOn = a }

// CurStamp reports the (time, actor, sequence) stamp of the event
// currently executing. The stamp is unique per event and totally
// ordered across all islands of a cluster, so it is the key used to
// merge per-island observation journals deterministically.
func (k *Kernel) CurStamp() (Time, int32, uint64) { return k.now, k.curBy, k.curSeq }

// stamp issues the next (actor, sequence) stamp for a schedule made
// from the current execution context.
func (k *Kernel) stamp() (int32, uint64) {
	k.scheduled++
	if k.aseq == nil {
		s := k.seq
		k.seq++
		return 0, s
	}
	by := k.curOn
	s := k.aseq[by]
	k.aseq[by] = s + 1
	return by, s
}

// alloc takes an event from the free list or the heap.
func (k *Kernel) alloc(at Time, by int32, seq uint64, on int32, action func()) *Event {
	e := k.free
	if e == nil {
		e = &Event{}
	} else {
		k.free = e.next
	}
	e.at = at
	e.seq = seq
	e.by = by
	e.on = on
	e.action = action
	e.next = nil
	return e
}

// release recycles a fired or cancellation-drained event.
func (k *Kernel) release(e *Event) {
	e.action = nil
	e.next = k.free
	k.free = e
}

// Schedule arranges for action to run at absolute time at, executing as
// the current actor. Scheduling in the past panics: it always indicates
// a model bug, and silently clamping would hide it.
func (k *Kernel) Schedule(at Time, action func()) *Event {
	return k.ScheduleExec(k.curOn, at, action)
}

// ScheduleExec arranges for action to run at absolute time at, executing
// as actor on. When the kernel belongs to a cluster and on lives on a
// different island, the event is queued for barrier hand-off and nil is
// returned (cross-island events cannot be cancelled; the model only
// cancels self-scheduled timers). Cross-island schedules must satisfy
// at >= now + lookahead; the cluster checks this when applying them.
func (k *Kernel) ScheduleExec(on int32, at Time, action func()) *Event {
	if action == nil {
		panic("sim: Schedule with nil action")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	by, seq := k.stamp()
	if c := k.cl; c != nil {
		if isle := c.actorIsland[on]; isle != k.island {
			c.push(k.island, isle, crossEvent{at: at, by: by, seq: seq, on: on, fn: action})
			return nil
		}
	}
	e := k.alloc(at, by, seq, on, action)
	k.live++
	k.place(e)
	return e
}

// inject files a cross-island event carrying an already-issued stamp.
// Only the cluster calls this, between windows, when no island runs.
func (k *Kernel) inject(ev crossEvent) {
	e := k.alloc(ev.at, ev.by, ev.seq, ev.on, ev.fn)
	k.live++
	k.place(e)
}

// place files an event into the cur heap, a wheel bucket, or the
// overflow heap. An event lands at the finest level whose bucket
// quotient still matches the cursor's at the next level up, which keeps
// every occupied bucket strictly ahead of the cursor index at its level
// (no wrap-around aliasing).
func (k *Kernel) place(e *Event) {
	q := e.at >> granShift
	cq := k.curStart >> granShift
	if q <= cq {
		// Current bucket, or behind a cursor that overshot during an
		// idle advance: only the heap can order it.
		k.heapPush(&k.cur, e)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		if (q >> uint((l+1)*wheelBits)) == (cq >> uint((l+1)*wheelBits)) {
			slot := int((q >> uint(l*wheelBits)) & wheelMask)
			k.levels[l][slot].push(e)
			k.occ[l] |= 1 << uint(slot)
			return
		}
	}
	k.heapPush(&k.overflow, e)
}

// After schedules action to run delay after the current time.
func (k *Kernel) After(delay Time, action func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.Schedule(k.now+delay, action)
}

// Cancel removes a previously scheduled event. Cancelling an event that
// has already fired or been cancelled is a no-op. The cancellation is
// lazy: the event stays in its bucket until the cursor drains it.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.action == nil {
		return
	}
	e.action = nil
	k.live--
}

// Stop makes the currently running Run/RunUntil call return after the
// current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// advance moves the cursor to the next occupied bucket, cascading
// coarser levels and the overflow heap into finer ones as boundaries
// are crossed. It reports false when no events remain anywhere.
func (k *Kernel) advance() bool {
	for {
		if len(k.cur) > 0 {
			return true
		}
		// Next occupied bucket at the finest level that has one. The
		// cursor index at each level only ever moves forward within
		// its parent bucket, so the scan never wraps.
		cascaded := false
		for l := 0; l < wheelLevels; l++ {
			sh := levelShift(l)
			idx := int((k.curStart >> sh) & wheelMask)
			above := k.occ[l] >> uint(idx+1) << uint(idx+1)
			if above == 0 {
				continue
			}
			slot := bits.TrailingZeros64(above)
			q := (k.curStart>>sh)&^Time(wheelMask) | Time(slot)
			k.curStart = q << sh
			k.occ[l] &^= 1 << uint(slot)
			for e := k.levels[l][slot].take(); e != nil; {
				next := e.next
				if e.action == nil {
					k.release(e)
				} else if l == 0 {
					k.heapPush(&k.cur, e)
				} else {
					k.place(e)
				}
				e = next
			}
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		if len(k.overflow) == 0 {
			return false
		}
		// Jump the cursor to the overflow's earliest region and pull
		// in everything that now fits under the wheel horizon.
		k.curStart = (k.overflow[0].at >> granShift) << granShift
		top := levelShift(wheelLevels)
		era := k.curStart >> top
		for len(k.overflow) > 0 && k.overflow[0].at>>top == era {
			e := k.heapPop(&k.overflow)
			if e.action == nil {
				k.release(e)
			} else {
				k.place(e)
			}
		}
	}
}

// step fires the earliest event. It reports false when no event at or
// before limit remains.
func (k *Kernel) step(limit Time) bool {
	for {
		for len(k.cur) > 0 {
			e := k.cur[0]
			if e.action == nil {
				k.heapPop(&k.cur)
				k.release(e)
				continue
			}
			if e.at > limit {
				return false
			}
			k.heapPop(&k.cur)
			k.now = e.at
			k.curBy, k.curOn, k.curSeq = e.by, e.on, e.seq
			action := e.action
			e.action = nil
			k.live--
			k.release(e)
			action()
			k.executed++
			return true
		}
		if !k.advance() {
			return false
		}
	}
}

// Run executes events until the queue drains or Stop is called. It
// reports the final simulated time.
func (k *Kernel) Run() Time {
	k.stopped = false
	for !k.stopped && k.step(Forever) {
	}
	return k.now
}

// RunUntil executes events with firing times at or before limit. Events
// scheduled after limit remain queued. The clock is advanced to limit if
// the queue drained earlier.
func (k *Kernel) RunUntil(limit Time) Time {
	k.stopped = false
	for !k.stopped && k.step(limit) {
	}
	if !k.stopped && k.now < limit {
		k.now = limit
	}
	return k.now
}

// NextTime peeks the firing time of the earliest live event, advancing
// the cursor past cancelled entries and cascading buckets as needed. It
// reports false when the queue is empty.
func (k *Kernel) NextTime() (Time, bool) {
	for {
		for len(k.cur) > 0 {
			e := k.cur[0]
			if e.action == nil {
				k.heapPop(&k.cur)
				k.release(e)
				continue
			}
			return e.at, true
		}
		if !k.advance() {
			return 0, false
		}
	}
}

// heapPush inserts e into an (at, actor, seq)-ordered min-heap.
func (k *Kernel) heapPush(h *[]*Event, e *Event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// heapPop removes and returns the minimum of the heap.
func (k *Kernel) heapPop(h *[]*Event) *Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && eventLess(q[c+1], q[c]) {
			c++
		}
		if !eventLess(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// eventLess orders events by (time, stamp actor, stamp sequence). Each
// actor's out-counter is private to the island executing it, so the
// triple is unique and identical no matter how actors are partitioned:
// island and serial runs fire events in exactly the same order.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.by != b.by {
		return a.by < b.by
	}
	return a.seq < b.seq
}
