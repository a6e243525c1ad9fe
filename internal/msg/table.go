package msg

import "iter"

// Table is a block-keyed store of per-block records: the one container
// every protocol component keeps its per-block state in. The zero value
// is an empty table and allocates nothing until the first At.
//
// An untouched block reads as the zero T, so a record's zero value must
// mean "no state yet"; callers read with Get on paths that must not
// create an entry and update through At.
type Table[T any] struct {
	m map[Block]*T
}

// Get returns a copy of b's record, the zero T if b has none. It never
// inserts.
func (t *Table[T]) Get(b Block) (v T) {
	if p := t.m[b]; p != nil {
		v = *p
	}
	return v
}

// At returns b's record for update, inserting a zero T on first use. The
// pointer stays valid until Delete(b).
func (t *Table[T]) At(b Block) *T {
	p := t.m[b]
	if p == nil {
		if t.m == nil {
			t.m = make(map[Block]*T)
		}
		p = new(T)
		t.m[b] = p
	}
	return p
}

// Delete removes b's record; a later At starts again from the zero T.
func (t *Table[T]) Delete(b Block) { delete(t.m, b) }

// Len returns the number of records.
func (t *Table[T]) Len() int { return len(t.m) }

// Unordered visits every record in no set order. It sorts nothing, so it
// suits folds whose result does not depend on the order.
func (t *Table[T]) Unordered() iter.Seq2[Block, *T] {
	return func(yield func(Block, *T) bool) {
		for b, p := range t.m {
			if !yield(b, p) {
				return
			}
		}
	}
}
