package msg

import (
	"slices"
	"testing"
)

type tableRec struct {
	n    int
	seen bool
}

// blocksOf lists t's blocks in ascending order.
func blocksOf(t *Table[tableRec]) []Block {
	var out []Block
	for b := range t.Unordered() {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

func TestTableGetDoesNotInsert(t *testing.T) {
	var tab Table[tableRec]
	if got := tab.Get(7); got != (tableRec{}) {
		t.Fatalf("Get on an untouched block = %+v, want the zero record", got)
	}
	if got := blocksOf(&tab); len(got) != 0 {
		t.Fatalf("Get inserted: the table holds %v, want nothing", got)
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
		t.Fatalf("after Delete the table holds %v, want [6]", got)
	}
	if tab.At(5).n != 0 {
		t.Fatal("At after Delete did not start from the zero record")
	}
}

// TestTableUnordered: Unordered visits every record once, paired with
// its own block, and stops when the loop does; Len counts the records.
func TestTableUnordered(t *testing.T) {
	var tab Table[tableRec]
	want := []Block{0, 1, 1 << 40, 1 << 63}
	for i, b := range want {
		tab.At(b).n = i
	}
	tab.At(7)
	tab.Delete(7)
	if n := tab.Len(); n != len(want) {
		t.Fatalf("Len = %d, want %d", n, len(want))
	}
	var got []Block
	for b, r := range tab.Unordered() {
		if want[r.n] != b {
			t.Fatalf("Unordered pairs block %d with the record of block %d", b, want[r.n])
		}
		got = append(got, b)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("Unordered visits %v, want each of %v once", got, want)
	}
	for range tab.Unordered() {
		break // the runtime panics if Unordered yields again
	}
}

func TestTableZeroValueUsable(t *testing.T) {
	var tab Table[tableRec]
	tab.Delete(1)
	for range tab.Unordered() {
		t.Fatal("a zero table visits a record")
	}
	if n := tab.Len(); n != 0 {
		t.Fatalf("a zero table has Len %d", n)
	}
	tab.At(1).seen = true
	if !tab.Get(1).seen {
		t.Fatal("a zero table lost the record At created")
	}
}
