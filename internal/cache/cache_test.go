package cache

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"tokencoherence/internal/msg"
)

func TestNewGeometry(t *testing.T) {
	c := New(4<<20, 4) // the paper's L2: 4MB 4-way
	if c.Sets() != 16384 {
		t.Errorf("Sets() = %d, want 16384", c.Sets())
	}
	if c.Assoc() != 4 {
		t.Errorf("Assoc() = %d, want 4", c.Assoc())
	}
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := New(1024, 2)
	if c.Lookup(5) != nil {
		t.Error("Lookup on empty cache returned a line")
	}
}

func TestAllocateThenLookup(t *testing.T) {
	c := New(1024, 2)
	l, _, evicted := c.Allocate(5)
	if evicted {
		t.Error("unexpected eviction in empty cache")
	}
	l.State = 3
	l.Tokens = 7
	got := c.Lookup(5)
	if got == nil || got.State != 3 || got.Tokens != 7 {
		t.Fatalf("Lookup after Allocate = %+v", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

func TestAllocateResidentPanics(t *testing.T) {
	c := New(1024, 2)
	c.Allocate(5)
	defer func() {
		if recover() == nil {
			t.Error("Allocate of resident block did not panic")
		}
	}()
	c.Allocate(5)
}

func TestLRUEviction(t *testing.T) {
	c := New(2*msg.BlockSize, 2) // one set, two ways
	a, _, _ := c.Allocate(0)
	_ = a
	c.Allocate(1)
	// Touch block 0 so block 1 becomes LRU.
	c.Touch(c.Lookup(0))
	_, victim, evicted := c.Allocate(2)
	if !evicted {
		t.Fatal("expected an eviction from a full set")
	}
	if victim.Block != 1 {
		t.Errorf("evicted block %d, want 1 (LRU)", victim.Block)
	}
	if c.Lookup(1) != nil {
		t.Error("evicted block still resident")
	}
	if c.Lookup(0) == nil || c.Lookup(2) == nil {
		t.Error("resident blocks missing after eviction")
	}
}

func TestVictimContentsPreserved(t *testing.T) {
	c := New(msg.BlockSize, 1) // single line
	l, _, _ := c.Allocate(10)
	l.Dirty = true
	l.Data = 42
	l.Tokens = 3
	l.Owner = true
	_, victim, evicted := c.Allocate(11)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if !victim.Dirty || victim.Data != 42 || victim.Tokens != 3 || !victim.Owner {
		t.Errorf("victim lost contents: %+v", victim)
	}
}

func TestRemove(t *testing.T) {
	c := New(1024, 2)
	c.Allocate(9)
	c.Remove(9)
	if c.Lookup(9) != nil {
		t.Error("Remove left block resident")
	}
	if c.Len() != 0 {
		t.Errorf("Len() = %d, want 0", c.Len())
	}
	c.Remove(9) // no-op must not panic
}

func TestConflictOnlyWithinSet(t *testing.T) {
	c := New(4*msg.BlockSize, 1) // 4 sets, direct-mapped
	// Blocks 0..3 map to distinct sets; no evictions.
	for b := msg.Block(0); b < 4; b++ {
		if _, _, evicted := c.Allocate(b); evicted {
			t.Errorf("block %d evicted something in a distinct set", b)
		}
	}
	// Block 4 conflicts with block 0.
	_, victim, evicted := c.Allocate(4)
	if !evicted || victim.Block != 0 {
		t.Errorf("expected block 0 evicted, got %+v (evicted=%v)", victim, evicted)
	}
}

func TestForEach(t *testing.T) {
	c := New(1024, 4)
	want := map[msg.Block]bool{2: true, 7: true, 11: true}
	for b := range want {
		c.Allocate(b)
	}
	got := map[msg.Block]bool{}
	c.ForEach(func(l *Line) { got[l.Block] = true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d lines, want %d", len(got), len(want))
	}
	for b := range want {
		if !got[b] {
			t.Errorf("ForEach missed block %d", b)
		}
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4) },
		func() { New(1024, 0) },
		func() { New(msg.BlockSize*3, 2) }, // 3 blocks, 2-way: ragged
		func() { New(130, 2) },             // not a whole number of blocks
		func() { New(msg.BlockSize-1, 1) }, // less than one block
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: after any sequence of allocations the cache never exceeds
// capacity, Len matches residency, and every resident block is findable.
func TestPropertyCapacityAndResidency(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := New(16*msg.BlockSize, 2) // 8 sets x 2 ways = 16 lines
		resident := map[msg.Block]bool{}
		for _, raw := range blocks {
			b := msg.Block(raw % 64)
			if c.Lookup(b) != nil {
				c.Touch(c.Lookup(b))
				continue
			}
			_, victim, evicted := c.Allocate(b)
			if evicted {
				delete(resident, victim.Block)
			}
			resident[b] = true
		}
		if c.Len() != len(resident) {
			return false
		}
		count := 0
		c.ForEach(func(*Line) { count++ })
		if count != len(resident) || count > 16 {
			return false
		}
		for b := range resident {
			if c.Lookup(b) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LRU evicts the least-recently-used line in a fully touched set.
func TestPropertyLRUOrder(t *testing.T) {
	f := func(touches []uint8) bool {
		c := New(4*msg.BlockSize, 4) // one set of 4 ways
		for b := msg.Block(0); b < 4; b++ {
			c.Allocate(b)
		}
		last := map[msg.Block]int{0: 0, 1: 1, 2: 2, 3: 3}
		step := 4
		for _, raw := range touches {
			b := msg.Block(raw % 4)
			c.Touch(c.Lookup(b))
			last[b] = step
			step++
		}
		// Expected LRU: the block with smallest last-touch step.
		wantVictim := msg.Block(0)
		for b, s := range last {
			if s < last[wantVictim] {
				wantVictim = b
			}
		}
		_, victim, evicted := c.Allocate(99)
		return evicted && victim.Block == wantVictim
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refCache is the dense cache implementation the paged one replaced:
// every line preallocated, tag, LRU stamp and residency kept in the
// line. It is the reference model TestPagedMatchesReference holds the
// paged cache to, operation for operation.
type refCache struct {
	sets    int
	assoc   int
	lines   []refLine // sets*assoc, set-major
	tick    uint64
	entries int
}

type refLine struct {
	Line
	lru  uint64
	used bool
}

func newRef(sizeBytes, assoc int) *refCache {
	blocks := sizeBytes / msg.BlockSize
	return &refCache{sets: blocks / assoc, assoc: assoc, lines: make([]refLine, blocks)}
}

func (c *refCache) set(b msg.Block) []refLine {
	s := int(uint64(b) % uint64(c.sets))
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

func (c *refCache) Lookup(b msg.Block) *refLine {
	set := c.set(b)
	for i := range set {
		if set[i].used && set[i].Block == b {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Touch(l *refLine) {
	c.tick++
	l.lru = c.tick
}

func (c *refCache) AllocateAvoiding(b msg.Block, avoid func(msg.Block) bool) (line *refLine, victim Line, evicted bool) {
	set := c.set(b)
	var free *refLine
	var lruPreferred, lruAny *refLine
	for i := range set {
		l := &set[i]
		if l.used && l.Block == b {
			panic(fmt.Sprintf("cache: Allocate of resident block %d", b))
		}
		if !l.used {
			if free == nil {
				free = l
			}
			continue
		}
		if lruAny == nil || l.lru < lruAny.lru {
			lruAny = l
		}
		if avoid == nil || !avoid(l.Block) {
			if lruPreferred == nil || l.lru < lruPreferred.lru {
				lruPreferred = l
			}
		}
	}
	if free == nil {
		lru := lruPreferred
		if lru == nil {
			lru = lruAny
		}
		victim = lru.Line
		evicted = true
		*lru = refLine{}
		free = lru
		c.entries--
	}
	free.used = true
	free.Block = b
	c.entries++
	c.Touch(free)
	return free, victim, evicted
}

func (c *refCache) Remove(b msg.Block) {
	if l := c.Lookup(b); l != nil {
		*l = refLine{}
		c.entries--
	}
}

func (c *refCache) ForEach(f func(*refLine)) {
	for i := range c.lines {
		if c.lines[i].used {
			f(&c.lines[i])
		}
	}
}

// cacheOp is one step of a generated operation sequence.
type cacheOp struct {
	Kind  uint8  // selects Allocate, AllocateAvoiding, Touch, Remove or Lookup
	Block uint16 // reduced modulo the geometry's block range
	Avoid uint8  // bit b%8 set: AllocateAvoiding avoids block b
	Val   uint16 // written into the line's metadata so victims carry it
}

// TestPagedMatchesReference drives the paged cache and the dense
// reference with the same random operation sequences over several
// geometries (one set, sub-page, whole pages, and set counts that leave
// a partial last page) and requires identical hits, victims (every
// field), Len and ForEach order after every step.
func TestPagedMatchesReference(t *testing.T) {
	geometries := []struct{ sets, assoc int }{
		{1, 4},
		{3, 3},
		{8, 2},
		{pageSets, 4},
		{pageSets + 5, 2},
		{3*pageSets - 1, 1},
		{4 * pageSets, 4},
	}
	for _, g := range geometries {
		g := g
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.assoc), func(t *testing.T) {
			size := g.sets * g.assoc * msg.BlockSize
			span := 3 * g.sets * g.assoc // blocks in play: enough to force evictions
			f := func(ops []cacheOp) bool {
				c, ref := New(size, g.assoc), newRef(size, g.assoc)
				for step, op := range ops {
					if err := applyBoth(c, ref, op, span); err != nil {
						t.Logf("step %d %+v: %v", step, op, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// applyBoth applies op to both caches and reports the first divergence.
func applyBoth(c *Cache, ref *refCache, op cacheOp, span int) error {
	b := msg.Block(int(op.Block) % span)
	l, rl := c.Lookup(b), ref.Lookup(b)
	if (l == nil) != (rl == nil) || (l != nil && *l != rl.Line) {
		return fmt.Errorf("Lookup(%d): got %+v, reference %+v", b, l, rl)
	}
	switch op.Kind % 5 {
	case 0, 1:
		if l != nil {
			break // both resident: Allocate would panic in both
		}
		var avoid func(msg.Block) bool
		if op.Kind%5 == 1 {
			avoid = func(x msg.Block) bool { return op.Avoid>>(x%8)&1 != 0 }
		}
		nl, victim, evicted := c.AllocateAvoiding(b, avoid)
		rnl, rvictim, revicted := ref.AllocateAvoiding(b, avoid)
		if *nl != rnl.Line || victim != rvictim || evicted != revicted {
			return fmt.Errorf("Allocate(%d): got %+v victim %+v (%v), reference %+v victim %+v (%v)",
				b, *nl, victim, evicted, rnl.Line, rvictim, revicted)
		}
		setFields(nl, op.Val)
		setFields(&rnl.Line, op.Val)
	case 2:
		if l != nil {
			c.Touch(l)
			ref.Touch(rl)
			setFields(l, op.Val)
			setFields(&rl.Line, op.Val)
		}
	case 3:
		c.Remove(b)
		ref.Remove(b)
		if l != nil && *l != rl.Line {
			return fmt.Errorf("Remove(%d) left %+v behind a held pointer, reference %+v", b, *l, rl.Line)
		}
	}
	if c.Len() != ref.entries {
		return fmt.Errorf("Len() = %d, reference %d", c.Len(), ref.entries)
	}
	var got, want []Line
	c.ForEach(func(l *Line) { got = append(got, *l) })
	ref.ForEach(func(l *refLine) { want = append(want, l.Line) })
	if len(got) != len(want) {
		return fmt.Errorf("ForEach visited %d lines, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("ForEach line %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// setFields writes v into every protocol-owned field of l.
func setFields(l *Line, v uint16) {
	l.State = int(v % 5)
	l.Tokens = int(v % 17)
	l.Owner = v&1 != 0
	l.Valid = v&2 != 0
	l.Dirty = v&4 != 0
	l.Written = v&8 != 0
	l.Epoch = uint64(v) * 3
	l.Data = uint64(v) * 7
}

// TestLazyPages checks that storage follows the sets a run touches:
// probes and removals on untouched pages allocate none, and each
// allocation materializes exactly the page of its set.
func TestLazyPages(t *testing.T) {
	c := New(4<<20, 4) // the paper's L2: 16384 sets
	far := msg.Block(c.Sets() - 1)
	if c.Lookup(far) != nil {
		t.Fatal("Lookup on an empty cache returned a line")
	}
	c.Remove(far)
	if n := livePages(c); n != 0 {
		t.Fatalf("probes materialized %d pages, want 0", n)
	}
	c.Allocate(0)
	c.Allocate(1) // same page
	c.Allocate(far)
	if n := livePages(c); n != 2 {
		t.Errorf("3 allocations in 2 pages materialized %d pages", n)
	}
}

func livePages(c *Cache) int {
	n := 0
	for _, p := range c.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestCacheProbeZeroAllocs gates the per-access path: Lookup on an
// untouched page, and Lookup, Touch, Remove and Allocate into a free
// way of a touched page, allocate nothing. It also holds Line to 48
// bytes, the size with the tag and LRU stamp kept out of it.
func TestCacheProbeZeroAllocs(t *testing.T) {
	if size := unsafe.Sizeof(Line{}); size > 48 {
		t.Errorf("unsafe.Sizeof(Line{}) = %d, want <= 48", size)
	}
	c := New(4<<20, 4)
	c.Allocate(7)
	untouched := msg.Block(c.Sets() - 1)
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Lookup(untouched) != nil {
			t.Fatal("untouched page holds a line")
		}
		c.Remove(untouched)
		l := c.Lookup(7)
		c.Touch(l)
		c.Remove(7)
		c.Allocate(7)
	})
	if allocs != 0 {
		t.Errorf("cache probes allocated %.1f objects per run, want 0", allocs)
	}
}
