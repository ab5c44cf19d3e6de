package relation

import (
	"fmt"

	"indep/internal/attrset"
	"indep/internal/hashkey"
)

// Builder collects fixed-width rows into one column arena: column c of row
// r sits at arena[c*stride+r]. Instance hands the rows back as an instance
// with no primary index, which builds one on its first membership probe
// (see find) — a query answer is ordered and encoded, never probed, so it
// never pays for one.
//
// A distinct builder keeps the first of equal rows only, found through a
// flat open-addressing table of row numbers hashed with Tuple.hash's fold;
// a builder whose caller knows its rows are distinct keeps every row and
// has no table. The window evaluator uses both: one builds its answer, the
// other groups probed rows by their extension key.
type Builder struct {
	width  int
	n      int     // rows held
	stride int     // room per column; the arena holds width*stride values
	arena  []Value // column-major: column c of row r at arena[c*stride+r]
	table  []int32 // row number + 1 per occupied entry, 0 if free; nil if not distinct
}

// NewBuilder returns a builder of rows of the given width with room for n
// of them; distinct makes it keep the first of equal rows only.
func NewBuilder(width, n int, distinct bool) Builder {
	var b Builder
	b.Reset(width, n, distinct)
	return b
}

// Reset empties the builder for rows of the given width with room for n,
// reusing its arena and table where they are large enough.
func (b *Builder) Reset(width, n int, distinct bool) {
	b.width, b.n, b.stride = width, 0, max(n, 1)
	if need := width * b.stride; cap(b.arena) >= need {
		b.arena = b.arena[:need]
	} else {
		b.arena = make([]Value, need)
	}
	if !distinct {
		b.table = nil
		return
	}
	size := 8
	for size < 2*n {
		size *= 2
	}
	if cap(b.table) >= size {
		b.table = b.table[:size]
		clear(b.table)
	} else {
		b.table = make([]int32, size)
	}
}

// rowHash hashes row r with Tuple.hash's fold.
func (b *Builder) rowHash(r int) uint64 {
	h := hashkey.Init
	for c := 0; c < b.width; c++ {
		h = hashkey.Mix(h, uint64(b.arena[c*b.stride+r]))
	}
	return h
}

// rowEqual reports whether row r carries exactly t's values.
func (b *Builder) rowEqual(r int, t Tuple) bool {
	for c, v := range t {
		if b.arena[c*b.stride+r] != v {
			return false
		}
	}
	return true
}

// Append appends t unless the builder is distinct and holds an equal row,
// and reports whether it did. The values are copied; the caller keeps t.
func (b *Builder) Append(t Tuple) bool {
	if len(t) != b.width {
		panic(fmt.Sprintf("relation: row arity %d does not match builder arity %d", len(t), b.width))
	}
	var i int
	if b.table != nil {
		mask := len(b.table) - 1
		for i = int(t.hash()) & mask; b.table[i] != 0; i = (i + 1) & mask {
			if b.rowEqual(int(b.table[i]-1), t) {
				return false
			}
		}
	}
	if b.n == b.stride {
		b.grow()
	}
	for c, v := range t {
		b.arena[c*b.stride+b.n] = v
	}
	b.n++
	if b.table != nil {
		b.table[i] = int32(b.n)
		if 2*b.n > len(b.table) {
			b.rehash()
		}
	}
	return true
}

// grow doubles every column's room.
func (b *Builder) grow() {
	stride := 2 * b.stride
	arena := make([]Value, b.width*stride)
	for c := 0; c < b.width; c++ {
		copy(arena[c*stride:], b.arena[c*b.stride:c*b.stride+b.n])
	}
	b.arena, b.stride = arena, stride
}

// rehash doubles the table, keeping it at most half full.
func (b *Builder) rehash() {
	table := make([]int32, 2*len(b.table))
	mask := len(table) - 1
	for r := 0; r < b.n; r++ {
		i := int(b.rowHash(r)) & mask
		for table[i] != 0 {
			i = (i + 1) & mask
		}
		table[i] = int32(r + 1)
	}
	b.table = table
}

// Instance hands the rows over as an instance over attrs, in the order they
// were added, and empties the builder: the instance owns the arena.
func (b *Builder) Instance(attrs attrset.Set) *Instance {
	if attrs.Len() != b.width {
		panic(fmt.Sprintf("relation: scheme arity %d does not match builder arity %d", attrs.Len(), b.width))
	}
	out := &Instance{Attrs: attrs, cols: make([][]Value, b.width), live: make([]bool, b.n), n: b.n}
	for c := range out.cols {
		out.cols[c] = b.arena[c*b.stride : c*b.stride+b.n : c*b.stride+b.n]
	}
	for r := range out.live {
		out.live[r] = true
	}
	*b = Builder{}
	return out
}
