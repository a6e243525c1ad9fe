package msg

import (
	"slices"
	"testing"
)

type tableRec struct {
	n    int
	seen bool
}

// blocksOf lists t's blocks in the order All visits them.
func blocksOf(t *Table[tableRec]) []Block {
	var out []Block
	for b := range t.All() {
		out = append(out, b)
	}
	return out
}

func TestTableGetDoesNotInsert(t *testing.T) {
	var tab Table[tableRec]
	if got := tab.Get(7); got != (tableRec{}) {
		t.Fatalf("Get on an untouched block = %+v, want the zero record", got)
	}
	if got := blocksOf(&tab); len(got) != 0 {
		t.Fatalf("All after Get visits %v, want nothing", got)
	}
}

func TestTableAtPointerStable(t *testing.T) {
	var tab Table[tableRec]
	p := tab.At(3)
	p.n = 42
	for b := Block(100); b < 100+10000; b++ {
		tab.At(b).n = int(b)
	}
	if tab.At(3) != p {
		t.Fatal("At(3) returned a different pointer after 10,000 inserts")
	}
	p.seen = true
	if got := tab.Get(3); got != (tableRec{n: 42, seen: true}) {
		t.Fatalf("Get(3) = %+v, want the record written through the first pointer", got)
	}
}

func TestTableDelete(t *testing.T) {
	var tab Table[tableRec]
	tab.At(5).n = 9
	tab.At(6).n = 10
	tab.Delete(5)
	tab.Delete(99) // deleting an absent block is a no-op
	if got := tab.Get(5); got != (tableRec{}) {
		t.Fatalf("Get after Delete = %+v, want the zero record", got)
	}
	if got := blocksOf(&tab); !slices.Equal(got, []Block{6}) {
		t.Fatalf("All after Delete visits %v, want [6]", got)
	}
	if tab.At(5).n != 0 {
		t.Fatal("At after Delete did not start from the zero record")
	}
}

func TestTableAllAscending(t *testing.T) {
	var tab Table[tableRec]
	want := []Block{0, 1, 1 << 40, 1 << 63}
	for _, i := range []int{3, 1, 2, 0} {
		tab.At(want[i]).n = i
	}
	if got := blocksOf(&tab); !slices.Equal(got, want) {
		t.Fatalf("All visits %v, want %v", got, want)
	}
	for b, r := range tab.All() {
		if want[r.n] != b {
			t.Fatalf("All pairs block %d with the record of block %d", b, want[r.n])
		}
	}
	var early []Block
	for b := range tab.All() {
		early = append(early, b)
		if len(early) == 2 {
			break
		}
	}
	if !slices.Equal(early, want[:2]) {
		t.Fatalf("All stopped early after %v, want %v", early, want[:2])
	}
}

func TestTableZeroValueUsable(t *testing.T) {
	var tab Table[tableRec]
	tab.Delete(1)
	for range tab.All() {
		t.Fatal("a zero table visits a record")
	}
	tab.At(1).seen = true
	if !tab.Get(1).seen {
		t.Fatal("a zero table lost the record At created")
	}
}
