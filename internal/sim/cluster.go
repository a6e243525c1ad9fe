package sim

import "fmt"

// crossEvent is an event scheduled by one island for execution on
// another. It carries the stamp issued by the scheduling island so the
// merged event order is identical to a serial run.
type crossEvent struct {
	at  Time
	by  int32
	seq uint64
	on  int32
	fn  func()
}

// Cluster partitions one simulation's actors across a set of island
// kernels and runs them under a conservative (Chandy-Misra-style)
// lookahead protocol: all islands execute a window [T, T+lookahead) of
// events concurrently, then synchronize at a barrier where cross-island
// events are exchanged. The model must guarantee that every schedule
// targeting an actor on another island fires at least lookahead after
// the scheduling event (in this codebase the interconnect's link
// latency provides that bound); Run panics if the contract is violated.
//
// Determinism: events are ordered by the (time, actor, seq) stamp (see
// eventLess), which is issued from per-actor counters owned by the
// scheduling island. Because every cross-actor schedule is at least
// lookahead ahead, each actor's event sequence — and therefore every
// stamp — is independent of the partition, so any island count fires
// the same events at the same times in the same per-actor order.
type Cluster struct {
	kernels     []*Kernel
	actorIsland []int32
	aseq        []uint64
	lookahead   Time
	cross       [][][]crossEvent // [source island][target island]
	now         Time             // end of the last completed window
}

// NewCluster builds islands kernels over the given actor-to-island
// assignment. Every actor index an event executes as must be a valid
// index into actorIsland, and every assignment must name a valid
// island. lookahead is the minimum cross-island scheduling delay.
func NewCluster(islands int, actorIsland []int32, lookahead Time) *Cluster {
	if islands < 1 {
		panic("sim: cluster needs at least one island")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	for a, isle := range actorIsland {
		if isle < 0 || int(isle) >= islands {
			panic(fmt.Sprintf("sim: actor %d assigned to island %d of %d", a, isle, islands))
		}
	}
	c := &Cluster{
		actorIsland: actorIsland,
		aseq:        make([]uint64, len(actorIsland)),
		lookahead:   lookahead,
	}
	c.kernels = make([]*Kernel, islands)
	c.cross = make([][][]crossEvent, islands)
	for i := range c.kernels {
		c.kernels[i] = &Kernel{aseq: c.aseq, cl: c, island: int32(i)}
		c.cross[i] = make([][]crossEvent, islands)
	}
	return c
}

// Islands reports the number of islands.
func (c *Cluster) Islands() int { return len(c.kernels) }

// Kernel returns island i's kernel.
func (c *Cluster) Kernel(i int) *Kernel { return c.kernels[i] }

// IslandOf reports which island owns actor a.
func (c *Cluster) IslandOf(a int) int32 { return c.actorIsland[a] }

// Now reports the end time of the last completed window.
func (c *Cluster) Now() Time { return c.now }

// push queues a cross-island event. Called only from island src's
// goroutine while a window runs; drained at the next barrier.
func (c *Cluster) push(src, dst int32, ev crossEvent) {
	c.cross[src][dst] = append(c.cross[src][dst], ev)
}

// applyCross injects all queued cross-island events into their target
// kernels. Called between windows, when no island is running.
func (c *Cluster) applyCross() {
	for src := range c.cross {
		for dst, q := range c.cross[src] {
			for i := range q {
				if q[i].at < c.now {
					panic(fmt.Sprintf("sim: cross-island event at %v violates lookahead window ending %v", q[i].at, c.now))
				}
				c.kernels[dst].inject(q[i])
				q[i].fn = nil
			}
			c.cross[src][dst] = q[:0]
		}
	}
}

// nextTime reports the earliest pending event time across all islands.
func (c *Cluster) nextTime() (Time, bool) {
	var min Time
	ok := false
	for _, k := range c.kernels {
		if t, live := k.NextTime(); live && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// Run drives synchronized windows until the event queues drain or the
// barrier callback reports stop. After every window the callback runs
// on the coordinating goroutine with the window's end time; no island
// executes during the callback, so it may inspect and mutate any
// island's state (merge observation journals, reset statistics at the
// warmup boundary, decide completion). Run returns the end time of the
// last window, or the time reached when the queues drained.
func (c *Cluster) Run(barrier func(end Time) bool) Time {
	g := len(c.kernels)
	var starts []chan Time
	var done chan struct{}
	if g > 1 {
		starts = make([]chan Time, g)
		done = make(chan struct{}, g)
		for i := range starts {
			starts[i] = make(chan Time)
			go func(k *Kernel, start <-chan Time) {
				for end := range start {
					k.RunUntil(end - 1)
					done <- struct{}{}
				}
			}(c.kernels[i], starts[i])
		}
		defer func() {
			for _, ch := range starts {
				close(ch)
			}
		}()
	}
	for {
		c.applyCross()
		t, ok := c.nextTime()
		if !ok {
			return c.now
		}
		end := t + c.lookahead
		if g == 1 {
			c.kernels[0].RunUntil(end - 1)
		} else {
			for _, ch := range starts {
				ch <- end
			}
			for i := 0; i < g; i++ {
				<-done
			}
		}
		c.now = end
		if barrier(end) {
			return end
		}
	}
}
