package msg

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestMessageSize pins the value layout messages travel in: every
// delivery copies a Message into its network record, and a multicast
// copies one per destination. Port packs into 8 bytes (int32 node,
// uint8 unit), and the flags sit beside Kind and Cat.
func TestMessageSize(t *testing.T) {
	if size := unsafe.Sizeof(Port{}); size != 8 {
		t.Errorf("unsafe.Sizeof(Port{}) = %d, want 8", size)
	}
	if size := unsafe.Sizeof(Message{}); size != 72 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 72", size)
	}
}

func TestBlockOfAndBase(t *testing.T) {
	cases := []struct {
		addr  Addr
		block Block
		base  Addr
	}{
		{0, 0, 0},
		{63, 0, 0},
		{64, 1, 64},
		{65, 1, 64},
		{1<<20 + 7, 1 << 14, 1 << 20},
	}
	for _, c := range cases {
		if got := BlockOf(c.addr); got != c.block {
			t.Errorf("BlockOf(%d) = %d, want %d", c.addr, got, c.block)
		}
		if got := c.block.Base(); got != c.base {
			t.Errorf("Block(%d).Base() = %d, want %d", c.block, got, c.base)
		}
	}
}

func TestPropertyBlockRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		b := BlockOf(a)
		base := b.Base()
		return base <= a && a < base+BlockSize && BlockOf(base) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHomeOfInterleaves(t *testing.T) {
	const n = 16
	counts := make([]int, n)
	for b := Block(0); b < 16*n; b++ {
		h := HomeOf(b, n)
		if h < 0 || int(h) >= n {
			t.Fatalf("HomeOf(%d, %d) = %d out of range", b, n, h)
		}
		counts[h]++
	}
	for i, c := range counts {
		if c != 16 {
			t.Errorf("home %d got %d blocks, want 16 (uniform interleave)", i, c)
		}
	}
}

func TestMessageBytes(t *testing.T) {
	m := &Message{Kind: KindGetS}
	if m.Bytes() != ControlBytes {
		t.Errorf("control message Bytes() = %d, want %d", m.Bytes(), ControlBytes)
	}
	m.HasData = true
	if m.Bytes() != DataBytes {
		t.Errorf("data message Bytes() = %d, want %d", m.Bytes(), DataBytes)
	}
	if DataBytes != 72 {
		t.Errorf("DataBytes = %d, want 72 (8B header + 64B block)", DataBytes)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{
		KindGetS, KindGetM, KindData, KindTokens, KindAck,
		KindInv, KindFwdGetS, KindFwdGetM, KindPutM, KindWBAck,
		KindWBStale, KindUnblock, KindMemData, KindProbe, KindProbeAck,
		KindProbeData, KindPersistentReq, KindPersistentActivate,
		KindPersistentActivateAck, KindPersistentDeactivate,
		KindPersistentDeactivateAck,
	}
	seen := make(map[string]Kind)
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Errorf("Kind %d has empty String()", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share String %q", prev, k, s)
		}
		seen[s] = k
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestCategoryStrings(t *testing.T) {
	for c := Category(0); int(c) < NumCategories; c++ {
		if c.String() == "" {
			t.Errorf("category %d has empty String()", c)
		}
	}
}

func TestUnitStrings(t *testing.T) {
	units := []Unit{UnitCache, UnitMem, UnitArbiter, UnitProc}
	for _, u := range units {
		if u.String() == "" {
			t.Errorf("unit %d has empty String()", u)
		}
	}
	p := Port{Node: 3, Unit: UnitMem}
	if p.String() != "mem@3" {
		t.Errorf("Port.String() = %q, want mem@3", p.String())
	}
}

func TestMessageString(t *testing.T) {
	m := &Message{
		Kind: KindData, Src: Port{1, UnitCache}, Dst: Port{2, UnitCache},
		Addr: 128, Tokens: 4, Owner: true, HasData: true, Data: 7,
	}
	s := m.String()
	for _, want := range []string{"Data", "tok=4", "+O", "v7"} {
		if !contains(s, want) {
			t.Errorf("Message.String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
