// Package cache implements the set-associative cache structures used by
// every coherence controller: LRU replacement, per-line coherence
// metadata (protocol-defined state plus token-coherence token counts),
// and the two-level (L1 filter over L2) latency hierarchy of Table 1.
package cache

import (
	"fmt"

	"tokencoherence/internal/msg"
)

// Line is one cache line. The coherence protocol owns the interpretation
// of State; Token Coherence additionally uses Tokens/Owner/Valid.
type Line struct {
	// Block is the block the line holds. Only the cache writes it.
	Block msg.Block
	// State is a protocol-defined stable-state tag (MOSI etc.).
	State int
	// Tokens is the token count held for the block, including the owner
	// token when Owner is set (Token Coherence only).
	Tokens int
	// Owner marks possession of the owner token.
	Owner bool
	// Valid marks that Data holds a valid copy (distinct from tag
	// validity; a line may hold tokens without data under the optimized
	// invariants).
	Valid bool
	// Dirty marks data modified relative to memory (drives writeback
	// decisions); it travels with the owner token.
	Dirty bool
	// Written marks that this node itself wrote the block while holding
	// it. The migratory-sharing optimization triggers only on blocks the
	// responder wrote, so Written never travels in messages.
	Written bool
	// Epoch is a protocol-defined ordering tag (the directory protocol
	// stores the home transaction number of the fill so stale
	// invalidations can be recognized).
	Epoch uint64
	// Data is the block payload, modelled as a write version.
	Data uint64
}

// pageSets is the number of sets a page holds. Storage is allocated a
// page at a time, on the first allocation into one of its sets, so a
// run pays for the sets it touches rather than for configured capacity.
// Of 16, 32 and 64, 16 allocated the fewest bytes per 256-processor
// point, at CPU time indistinguishable from the others; larger pages
// trade bytes for fewer allocations.
const pageSets = 16

// page holds the ways of pageSets consecutive sets (fewer for the last
// page of a cache whose set count is not a multiple of pageSets), each
// array set-major. A probe reads only tags. Pages never move, so *Line
// pointers stay valid for the life of the cache.
type page struct {
	tags   []uint64 // block+1 per way; 0 marks an empty way
	stamps []uint64 // LRU stamp per way: the tick of its last touch
	lines  []Line
}

// Cache is a set-associative cache with LRU replacement. It tracks tags
// and metadata only; timing is the caller's concern.
type Cache struct {
	sets    int
	assoc   int
	pages   []*page // sets/pageSets, rounded up; nil until first allocated into
	tick    uint64
	entries int
}

// New builds a cache of the given total size in bytes and associativity,
// with msg.BlockSize lines. The size must be a whole number of blocks
// that divides evenly into sets; New panics otherwise.
func New(sizeBytes, assoc int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 {
		panic("cache: size and associativity must be positive")
	}
	if sizeBytes%msg.BlockSize != 0 {
		panic(fmt.Sprintf("cache: %d bytes is not a whole number of %d-byte blocks", sizeBytes, msg.BlockSize))
	}
	blocks := sizeBytes / msg.BlockSize
	if blocks%assoc != 0 {
		panic(fmt.Sprintf("cache: %d bytes / %d-way does not form whole sets", sizeBytes, assoc))
	}
	sets := blocks / assoc
	return &Cache{
		sets:  sets,
		assoc: assoc,
		pages: make([]*page, (sets+pageSets-1)/pageSets),
	}
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc reports the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Len reports the number of resident lines.
func (c *Cache) Len() int { return c.entries }

// slot returns the index of b's page and of the set's first way within
// that page.
func (c *Cache) slot(b msg.Block) (pg, base int) {
	s := int(uint64(b) % uint64(c.sets))
	return s / pageSets, (s % pageSets) * c.assoc
}

// find returns the index of b's way in the set starting at base, or -1.
func (p *page) find(base, assoc int, b msg.Block) int {
	tag := uint64(b) + 1
	for i, t := range p.tags[base : base+assoc] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// Lookup returns the line holding b, or nil. It does not update LRU
// state; call Touch on use.
func (c *Cache) Lookup(b msg.Block) *Line {
	pg, base := c.slot(b)
	p := c.pages[pg]
	if p == nil {
		return nil
	}
	if i := p.find(base, c.assoc, b); i >= 0 {
		return &p.lines[i]
	}
	return nil
}

// Touch marks the line most-recently-used.
func (c *Cache) Touch(l *Line) {
	c.tick++
	pg, base := c.slot(l.Block)
	p := c.pages[pg]
	if p == nil {
		return
	}
	for i := base; i < base+c.assoc; i++ {
		if &p.lines[i] == l {
			p.stamps[i] = c.tick
			return
		}
	}
}

// Allocate returns a line for b, evicting the LRU line of the set if the
// set is full. The returned victim holds the evicted line's contents (or
// ok=false if no eviction occurred). The new line is zeroed apart from
// its Block and is already touched. Allocating a block that is present
// panics — the caller must Lookup first.
func (c *Cache) Allocate(b msg.Block) (line *Line, victim Line, evicted bool) {
	return c.AllocateAvoiding(b, nil)
}

// AllocateAvoiding is Allocate with a victim-selection filter: lines for
// which avoid returns true are evicted only when every line of the set
// is marked avoid. Coherence controllers use it to keep lines with
// in-flight transactions resident when possible.
//
// The way filled is the set's first empty way; in a full set it is the
// least recently used way not marked avoid, else the least recently used
// way overall.
func (c *Cache) AllocateAvoiding(b msg.Block, avoid func(msg.Block) bool) (line *Line, victim Line, evicted bool) {
	pg, base := c.slot(b)
	p := c.pages[pg]
	if p == nil {
		p = c.newPage(pg)
	}
	tag := uint64(b) + 1
	way := -1
	for i, t := range p.tags[base : base+c.assoc] {
		if t == tag {
			panic(fmt.Sprintf("cache: Allocate of resident block %d", b))
		}
		if t == 0 && way < 0 {
			way = base + i
		}
	}
	if way < 0 {
		way = p.lruWay(base, c.assoc, avoid)
		victim = p.lines[way]
		evicted = true
	} else {
		c.entries++
	}
	p.tags[way] = tag
	p.lines[way] = Line{Block: b}
	c.tick++
	p.stamps[way] = c.tick
	return &p.lines[way], victim, evicted
}

// lruWay returns the way to evict from the full set starting at base:
// the lowest stamp among ways not marked avoid, else the lowest overall,
// the earliest way winning a tie.
func (p *page) lruWay(base, assoc int, avoid func(msg.Block) bool) int {
	preferred, any := -1, base
	for i := base; i < base+assoc; i++ {
		if p.stamps[i] < p.stamps[any] {
			any = i
		}
		if avoid == nil || !avoid(msg.Block(p.tags[i]-1)) {
			if preferred < 0 || p.stamps[i] < p.stamps[preferred] {
				preferred = i
			}
		}
	}
	if preferred < 0 {
		return any
	}
	return preferred
}

// newPage allocates page pg.
func (c *Cache) newPage(pg int) *page {
	ways := min(pageSets, c.sets-pg*pageSets) * c.assoc
	meta := make([]uint64, 2*ways)
	p := &page{tags: meta[:ways:ways], stamps: meta[ways:], lines: make([]Line, ways)}
	c.pages[pg] = p
	return p
}

// Remove evicts b without replacement (e.g., on invalidation). It is a
// no-op if b is absent.
func (c *Cache) Remove(b msg.Block) {
	pg, base := c.slot(b)
	p := c.pages[pg]
	if p == nil {
		return
	}
	if i := p.find(base, c.assoc, b); i >= 0 {
		p.tags[i] = 0
		p.lines[i] = Line{}
		c.entries--
	}
}

// ForEach visits every resident line in set-major, way order. The
// callback must not allocate or remove lines.
func (c *Cache) ForEach(f func(*Line)) {
	for _, p := range c.pages {
		if p == nil {
			continue
		}
		for i, t := range p.tags {
			if t != 0 {
				f(&p.lines[i])
			}
		}
	}
}
