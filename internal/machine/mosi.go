package machine

import (
	"tokencoherence/internal/cache"
	"tokencoherence/internal/msg"
)

// MOSI stable states, kept in cache.Line.State by the MOSI baselines
// (snooping, directory, hammer). The order matters: S and up is
// readable, O and up owns the block.
const (
	StateI = iota
	StateS
	StateO
	StateM
)

// MOSI supplies CacheHooks.HasPermission to a protocol that keeps a
// MOSI state in cache.Line.State: a read needs S or better, a write M.
type MOSI struct{}

// HasPermission implements CacheHooks.
func (MOSI) HasPermission(l *cache.Line, write bool) bool {
	if write {
		return l.State == StateM && l.Valid
	}
	return l.State >= StateS && l.Valid
}

// Answer is what a MOSI cache sends in reply to another node's request:
// nothing when HasData is clear, else the block's data, with ownership
// (and the dirty bit) when Owner is set.
type Answer struct {
	Data                  uint64
	HasData, Owner, Dirty bool
}

// AnswerMOSI answers another node's request for blk by the textbook MOSI
// rule (Sorin, Hill & Wood, A Primer on Memory Consistency and Cache
// Coherence, 2011); exclusive marks a request for write permission. An
// owning entry in wb answers first, then the L2 line. An owner copy
// sends its data. An exclusive request, or a shared one that the
// migratory-sharing optimization hands over whole (an M line this node
// wrote), takes ownership and drops the copy; any other shared request
// moves M to O. An exclusive request drops a shared copy without data.
func (b *CacheBase) AnswerMOSI(wb *Writebacks, blk msg.Block, exclusive bool) Answer {
	if e := wb.Owner(blk); e != nil {
		if !exclusive {
			return Answer{Data: e.Data, HasData: true}
		}
		e.Owner = false // the writeback is now stale
		return Answer{Data: e.Data, HasData: true, Owner: true, Dirty: e.Dirty}
	}
	l := b.L2.Lookup(blk)
	switch {
	case l == nil || l.State == StateI:
		return Answer{}
	case l.State == StateS:
		if exclusive {
			b.DropLine(blk)
		}
		return Answer{}
	}
	a := Answer{Data: l.Data, HasData: true}
	switch {
	case exclusive || b.Cfg.Migratory && l.State == StateM && l.Written:
		a.Owner, a.Dirty = true, l.Dirty
		b.DropLine(blk)
	case l.State == StateM:
		l.State = StateO
	}
	return a
}

// Controllers adapts a protocol's cache controllers for System.Execute.
func Controllers[C Controller](caches []C) []Controller {
	out := make([]Controller, len(caches))
	for i, c := range caches {
		out[i] = c
	}
	return out
}
