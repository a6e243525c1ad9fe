package machine

import (
	"testing"

	"tokencoherence/internal/cache"
)

func TestWritebacksPopFIFO(t *testing.T) {
	var w Writebacks
	for v := uint64(1); v <= 3; v++ {
		w.Push(cache.Line{Block: 4, Data: v})
		w.Owner(4).Owner = false // ownership taken away: the next eviction may push
	}
	if n := w.Pending(4); n != 3 {
		t.Fatalf("Pending = %d, want 3", n)
	}
	for v := uint64(1); v <= 3; v++ {
		if e := w.Pop(4); e.Data != v {
			t.Fatalf("Pop %d returned data v%d, want v%d", v, e.Data, v)
		}
	}
	if n := w.Pending(4); n != 0 {
		t.Fatalf("Pending after draining = %d, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("Pop with nothing pending did not panic")
		}
	}()
	w.Pop(4)
}

func TestWritebacksOwnerIsNewestOwning(t *testing.T) {
	var w Writebacks
	if w.Owner(2) != nil {
		t.Fatal("empty buffer reports an owner")
	}
	w.Push(cache.Line{Block: 2, Data: 1, Dirty: true})
	w.Owner(2).Owner = false
	w.Push(cache.Line{Block: 2, Data: 2, Written: true})
	e := w.Owner(2)
	if e == nil || e.Data != 2 || !e.Written || e.Dirty {
		t.Fatalf("Owner = %+v, want the newest entry (v2, written, clean)", e)
	}
	e.Owner = false
	if w.Owner(2) != nil {
		t.Fatal("Owner reports an entry after every entry lost ownership")
	}
	if w.Owner(3) != nil || w.Pending(3) != 0 {
		t.Fatal("another block shares the buffer's entries")
	}
}

func TestWritebacksPushPanicsWhileOwned(t *testing.T) {
	var w Writebacks
	w.Push(cache.Line{Block: 9, Data: 1})
	defer func() {
		if recover() == nil {
			t.Error("Push while an older entry owns the block did not panic")
		}
	}()
	w.Push(cache.Line{Block: 9, Data: 2})
}
