// Package cache implements the set-associative cache structures used by
// every coherence controller. Tags is a tag store with LRU replacement
// and nothing else: the L1 of Table 1's two-level hierarchy, which only
// filters latency. Cache is the L2: a tag store plus per-line coherence
// metadata (protocol-defined state plus token-coherence token counts),
// kept in an arena of line records that holds a record only for each
// resident block. Both allocate tag storage a page of sets at a time, so
// a run pays for the sets and lines it touches, not for configured
// capacity.
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

// pageSets is the number of sets a tag page holds. Tag storage is
// allocated a page at a time, on the first insert into one of its sets;
// line records are allocated per resident block, not per page. Of 16, 32
// and 64, 16 allocated the fewest bytes per 256-processor point when
// pages still carried their lines, at CPU time indistinguishable from
// the others; larger pages trade bytes for fewer allocations.
const pageSets = 16

// chunkLines is the number of line records in one arena chunk.
const chunkLines = 64

// Tags is a set-associative tag store with LRU replacement: it records
// which blocks are resident and nothing about them. It serves as the L1
// presence filter, and as the tag half of a Cache.
//
// Each touched page of pageSets sets keeps one []uint64: the tags of its
// ways (block+1; 0 marks an empty way) followed by their LRU stamps (the
// tick of a way's last insert or touch), both set-major. A probe reads
// only the set's tag span.
//
// Tags has no Touch: a way's stamp is set when its block is inserted, so
// a store only ever inserted into replaces in insertion order. That is
// how the L1 behaves (see machine.CacheBase.Access).
type Tags struct {
	sets, assoc int
	// index maps a page number (set/pageSets) to 1 + the page's position
	// in pages; 0 marks a page no insert has touched. It is nil until the
	// first insert, so a store that is built and never filled allocates
	// nothing beyond itself.
	index []int32
	// pages holds the touched pages in the order they were touched; the
	// last page of a store whose set count is not a multiple of pageSets
	// has fewer ways.
	pages   [][]uint64
	tick    uint64
	entries int
}

// NewTags builds a tag store for a cache of the given total size in
// bytes and associativity, with msg.BlockSize lines. The size must be a
// whole number of blocks that divides evenly into sets; NewTags panics
// otherwise.
func NewTags(sizeBytes, assoc int) *Tags {
	t := new(Tags)
	t.init(sizeBytes, assoc)
	return t
}

func (t *Tags) init(sizeBytes, assoc int) {
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
	t.sets = blocks / assoc
	t.assoc = assoc
}

// Sets reports the number of sets.
func (t *Tags) Sets() int { return t.sets }

// Assoc reports the associativity.
func (t *Tags) Assoc() int { return t.assoc }

// Len reports the number of resident blocks.
func (t *Tags) Len() int { return t.entries }

// find returns the position of b's page in pages (-1 if untouched) and
// the index of b's way within that page (-1 if b is absent).
func (t *Tags) find(b msg.Block) (pos, way int) {
	s := int(uint64(b) % uint64(t.sets))
	if s/pageSets >= len(t.index) {
		return -1, -1 // nothing inserted yet
	}
	pos = int(t.index[s/pageSets]) - 1
	if pos < 0 {
		return -1, -1
	}
	base := (s % pageSets) * t.assoc
	tag := uint64(b) + 1
	for i, x := range t.pages[pos][base : base+t.assoc] {
		if x == tag {
			return pos, base + i
		}
	}
	return pos, -1
}

// Has reports whether b is resident. It does not update LRU state.
func (t *Tags) Has(b msg.Block) bool {
	_, way := t.find(b)
	return way >= 0
}

// Insert makes b resident, evicting the LRU block of its set if the set
// is full, and reports the evicted block. Inserting a resident block
// panics — the caller must check Has first.
func (t *Tags) Insert(b msg.Block) (victim msg.Block, evicted bool) {
	_, _, victim, evicted = t.place(b, nil)
	return victim, evicted
}

// place puts b's tag into its set and stamps it, returning the page
// position and way it filled and the block evicted from that way, if
// any. The way filled is the set's first empty way; in a full set it is
// the least recently used way whose block avoid does not mark, else the
// least recently used way overall.
func (t *Tags) place(b msg.Block, avoid func(msg.Block) bool) (pos, way int, victim msg.Block, evicted bool) {
	s := int(uint64(b) % uint64(t.sets))
	if t.index == nil {
		t.index = make([]int32, (t.sets+pageSets-1)/pageSets)
	}
	pos = int(t.index[s/pageSets]) - 1
	if pos < 0 {
		pos = t.newPage(s / pageSets)
	}
	p := t.pages[pos]
	base := (s % pageSets) * t.assoc
	tag := uint64(b) + 1
	way = -1
	for i, x := range p[base : base+t.assoc] {
		if x == tag {
			panic(fmt.Sprintf("cache: Allocate of resident block %d", b))
		}
		if x == 0 && way < 0 {
			way = base + i
		}
	}
	if way < 0 {
		way = lruWay(p, base, t.assoc, avoid)
		victim, evicted = msg.Block(p[way]-1), true
	} else {
		t.entries++
	}
	p[way] = tag
	t.tick++
	p[len(p)/2+way] = t.tick
	return pos, way, victim, evicted
}

// lruWay returns the way to evict from page p's full set starting at
// base: the lowest stamp among ways not marked avoid, else the lowest
// overall, the earliest way winning a tie.
func lruWay(p []uint64, base, assoc int, avoid func(msg.Block) bool) int {
	tags, stamps := p[:len(p)/2], p[len(p)/2:]
	preferred, any := -1, base
	for i := base; i < base+assoc; i++ {
		if stamps[i] < stamps[any] {
			any = i
		}
		if avoid == nil || !avoid(msg.Block(tags[i]-1)) {
			if preferred < 0 || stamps[i] < stamps[preferred] {
				preferred = i
			}
		}
	}
	if preferred < 0 {
		return any
	}
	return preferred
}

// newPage allocates page pg and returns its position in pages.
func (t *Tags) newPage(pg int) int {
	ways := min(pageSets, t.sets-pg*pageSets) * t.assoc
	t.pages = append(t.pages, make([]uint64, 2*ways))
	t.index[pg] = int32(len(t.pages))
	return len(t.pages) - 1
}

// Remove makes b absent. It is a no-op if b is absent.
func (t *Tags) Remove(b msg.Block) { t.remove(b) }

// remove makes b absent and returns the page position and way it
// vacated, way -1 if b was absent.
func (t *Tags) remove(b msg.Block) (pos, way int) {
	if pos, way = t.find(b); way >= 0 {
		t.pages[pos][way] = 0
		t.entries--
	}
	return pos, way
}

// Cache is a set-associative cache with LRU replacement. It tracks tags
// and metadata only; timing is the caller's concern.
//
// A resident block's Line is a record in an arena of fixed chunks that
// never move; each touched page maps its ways to their records. A *Line
// stays valid until its block is removed or evicted: Remove zeroes the
// record and frees it for the next allocation into any set, and an
// eviction refills the victim's record in place for the new block.
type Cache struct {
	// tags is not embedded: an Insert that bypassed the cache would
	// leave a tag without a record.
	tags Tags
	// recs maps each way of tags.pages[i] to its record's index.
	recs   [][]int32
	chunks []*[chunkLines]Line
	used   int32   // records handed out from chunks so far
	free   []int32 // removed records, reused before new ones
}

// New builds a cache of the given total size in bytes and associativity,
// with msg.BlockSize lines. The size must be a whole number of blocks
// that divides evenly into sets; New panics otherwise.
func New(sizeBytes, assoc int) *Cache {
	c := new(Cache)
	c.tags.init(sizeBytes, assoc)
	return c
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.tags.sets }

// Assoc reports the associativity.
func (c *Cache) Assoc() int { return c.tags.assoc }

// Len reports the number of resident lines.
func (c *Cache) Len() int { return c.tags.entries }

// line returns record r.
func (c *Cache) line(r int32) *Line {
	return &c.chunks[uint32(r)/chunkLines][uint32(r)%chunkLines]
}

// Lookup returns the line holding b, or nil. It does not update LRU
// state; call Touch on use.
func (c *Cache) Lookup(b msg.Block) *Line {
	pos, way := c.tags.find(b)
	if way < 0 {
		return nil
	}
	return c.line(c.recs[pos][way])
}

// Touch marks the line most-recently-used.
func (c *Cache) Touch(l *Line) {
	c.tags.tick++
	if pos, way := c.tags.find(l.Block); way >= 0 && c.line(c.recs[pos][way]) == l {
		p := c.tags.pages[pos]
		p[len(p)/2+way] = c.tags.tick
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
	pos, way, _, evicted := c.tags.place(b, avoid)
	if pos == len(c.recs) {
		c.recs = append(c.recs, make([]int32, len(c.tags.pages[pos])/2))
	}
	if evicted {
		line = c.line(c.recs[pos][way])
		victim = *line
	} else {
		r := c.newRecord()
		c.recs[pos][way] = r
		line = c.line(r)
	}
	*line = Line{Block: b}
	return line, victim, evicted
}

// newRecord returns a free record: the most recently removed one, else
// the next unused record of the arena, adding a chunk when all are used.
func (c *Cache) newRecord() int32 {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		return r
	}
	if int(c.used) == len(c.chunks)*chunkLines {
		c.chunks = append(c.chunks, new([chunkLines]Line))
	}
	c.used++
	return c.used - 1
}

// Remove evicts b without replacement (e.g., on invalidation). It is a
// no-op if b is absent.
func (c *Cache) Remove(b msg.Block) {
	if pos, way := c.tags.remove(b); way >= 0 {
		r := c.recs[pos][way]
		*c.line(r) = Line{}
		c.free = append(c.free, r)
	}
}

// ForEach visits every resident line in set-major, way order. The
// callback must not allocate or remove lines.
func (c *Cache) ForEach(f func(*Line)) {
	for _, ix := range c.tags.index {
		if ix == 0 {
			continue
		}
		p, recs := c.tags.pages[ix-1], c.recs[ix-1]
		for i, tag := range p[:len(p)/2] {
			if tag != 0 {
				f(c.line(recs[i]))
			}
		}
	}
}
