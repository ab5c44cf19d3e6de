// Package relation implements relational instances and database states with
// constant values: tuples, projection, natural join, and construction of
// states as projections of universal instances.
//
// Values are integers; the state's Dict maps them to display names so the
// paper's examples (CS402, Smith, …) read naturally.
//
// Storage is column-major: an instance keeps one contiguous []Value arena
// per attribute, a row is an arena offset (its "slot"), and deletes push
// slots onto a free list for reuse instead of moving rows. Tuple remains
// the row-shaped interchange type — callers Add and probe with tuples, and
// materialize them from slots on demand — but scans, joins, and checkpoint
// encoding stream whole columns through cache without chasing per-row
// pointers.
package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"indep/internal/attrset"
	"indep/internal/hashkey"
	"indep/internal/schema"
)

// Value is a constant domain element.
type Value int64

// Tuple is a row of an instance. Its values are ordered by ascending
// attribute index of the owning instance's scheme.
type Tuple []Value

// hash is the tuple's 64-bit content key. Indexes bucket by it and resolve
// collisions by comparing values, so dedup never allocates a string key.
func (t Tuple) hash() uint64 { return hashkey.Int64s(t) }

// Equal reports value equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i, v := range t {
		if v != o[i] {
			return false
		}
	}
	return true
}

// HashCols hashes the tuple's values at the given column positions with
// the same fold as the full-tuple hash, so any index layer keyed over a
// column subset (the instance's own secondary indexes, the maintenance
// guard's FD indexes) stays fold-compatible with the relation layer.
func HashCols(t Tuple, cols []int) uint64 {
	h := hashkey.Init
	for _, c := range cols {
		h = hashkey.Mix(h, uint64(t[c]))
	}
	return h
}

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Instance is a set of tuples over a relation scheme, stored column-major:
// cols[c][s] is the value of column c in row slot s. All column arenas have
// equal length; live[s] marks occupied slots, and free holds vacated slots
// for reuse, so a slot number is stable for the lifetime of its row.
//
// The primary index buckets rows by their 64-bit content hash: pos holds
// the first slot seen for a hash, over the (rare) extra slots when distinct
// rows collide. Membership probes hash the tuple and compare values column
// by column — no string key is ever built, so Has and duplicate Adds are
// allocation-free; a fresh Add writes straight into the arenas with no
// per-row clone. A new instance keeps the index from its first Add; a copy
// made by Snapshot builds it on its first membership probe (see find), since
// the query path that reads most copies never makes one.
type Instance struct {
	Attrs    attrset.Set
	cols     [][]Value          // one arena per column; equal lengths = slot count
	live     []bool             // live[s]: slot s holds a current row
	free     []int32            // vacated slots, reused LIFO by Add
	n        int                // live row count
	pos      map[uint64]int32   // row hash → first slot
	over     map[uint64][]int32 // additional slots on hash collision
	posReady atomic.Bool        // pos and over are built; set once, under secMu

	// secondary holds lazily built hash indexes over column subsets, keyed
	// by the column-position list (see MatchingRows), plus the cached list
	// of live slots for full scans. Guarded by secMu (read-locked on
	// probes, write-locked only to build) and dropped on every mutation, so
	// it only persists — and amortizes — on immutable instances such as
	// engine snapshots.
	secMu     sync.RWMutex
	secondary map[uint64][]*colIndex
	liveRows  []int32

	// root, when set, is the snapshot whose match indexes this one inherits
	// (see Snapshot). dirty marks the slots whose row or liveness differs
	// from the root's and changed lists them in ascending order; both are
	// computed on the first index build (nil until then). Guarded by secMu,
	// except that root is atomic so a cut can read its predecessor's
	// without the lock; it is cleared when the instance builds its own
	// indexes instead, and on every mutation.
	root    atomic.Pointer[Instance]
	dirty   []uint64
	changed []int32
}

// NewInstance creates an empty instance over the given scheme.
func NewInstance(attrs attrset.Set) *Instance { return NewInstanceSize(attrs, 0) }

// NewInstanceSize creates an empty instance over the given scheme with room
// for n rows: its first n Adds neither grow an arena nor rehash the index.
func NewInstanceSize(attrs attrset.Set, n int) *Instance {
	in := &Instance{
		Attrs: attrs,
		cols:  make([][]Value, attrs.Len()),
		pos:   make(map[uint64]int32, n),
	}
	in.posReady.Store(true)
	if n > 0 {
		arena := make([]Value, n*len(in.cols)) // one allocation for every column
		for c := range in.cols {
			in.cols[c] = arena[c*n : c*n : (c+1)*n]
		}
		in.live = make([]bool, 0, n)
	}
	return in
}

// Len returns the number of (live) tuples.
func (in *Instance) Len() int { return in.n }

// Width returns the arity of the instance.
func (in *Instance) Width() int { return in.Attrs.Len() }

// Alive reports whether slot s holds a current row.
func (in *Instance) Alive(s int32) bool { return in.live[s] }

// At returns the value of column c in row slot s. The slot must be alive.
func (in *Instance) At(s int32, c int) Value { return in.cols[c][s] }

// Col returns column c's raw arena, indexed by slot. It includes vacated
// slots (stale values); callers iterating it must consult LiveMask or
// LiveRows. The slice is the instance's own storage — read-only.
func (in *Instance) Col(c int) []Value { return in.cols[c] }

// LiveMask returns the per-slot liveness mask, parallel to every Col
// arena. Read-only.
func (in *Instance) LiveMask() []bool { return in.live }

// AppendRow appends row slot s's values to dst and returns it — the cheap
// row view: a caller-owned scratch tuple refilled per slot, so iterating a
// million rows materializes zero per-row objects.
func (in *Instance) AppendRow(dst Tuple, s int32) Tuple {
	for _, col := range in.cols {
		dst = append(dst, col[s])
	}
	return dst
}

// Rows materializes every live row as a freshly allocated tuple, in slot
// order. The result is safe to retain and mutate; intended for cold paths
// (rendering, diffs, tests) — hot paths iterate slots or columns directly.
func (in *Instance) Rows() []Tuple {
	out := make([]Tuple, 0, in.n)
	backing := make([]Value, 0, in.n*in.Width())
	for s, alive := range in.live {
		if !alive {
			continue
		}
		start := len(backing)
		backing = in.AppendRow(backing, int32(s))
		out = append(out, Tuple(backing[start:len(backing):len(backing)]))
	}
	return out
}

// LiveRows returns the slots of every live row in ascending order. The
// first call after a mutation scans the mask (O(slots)); later calls return
// a cached list, so full scans on immutable snapshots are allocation-free.
// Read-only. Safe for concurrent use by readers.
func (in *Instance) LiveRows() []int32 {
	in.secMu.RLock()
	rs := in.liveRows
	in.secMu.RUnlock()
	if rs != nil {
		return rs
	}
	in.secMu.Lock()
	defer in.secMu.Unlock()
	if in.liveRows == nil {
		rs := make([]int32, 0, in.n)
		for s, alive := range in.live {
			if alive {
				rs = append(rs, int32(s))
			}
		}
		in.liveRows = rs
	}
	return in.liveRows
}

// rowHash hashes row slot s with the same fold as Tuple.hash, so the
// primary index accepts probes from either representation.
func (in *Instance) rowHash(s int32) uint64 {
	h := hashkey.Init
	for _, col := range in.cols {
		h = hashkey.Mix(h, uint64(col[s]))
	}
	return h
}

// hashRowCols hashes row slot s at the given column positions,
// fold-compatible with HashCols.
func (in *Instance) hashRowCols(s int32, cols []int) uint64 {
	h := hashkey.Init
	for _, c := range cols {
		h = hashkey.Mix(h, uint64(in.cols[c][s]))
	}
	return h
}

// rowEqual reports whether row slot s carries exactly t's values.
func (in *Instance) rowEqual(s int32, t Tuple) bool {
	if len(t) != len(in.cols) {
		return false
	}
	for c, v := range t {
		if in.cols[c][s] != v {
			return false
		}
	}
	return true
}

// find returns the slot of t, or -1.
func (in *Instance) find(t Tuple) int32 {
	if !in.posReady.Load() {
		in.buildPos()
	}
	h := t.hash()
	p, ok := in.pos[h]
	if !ok {
		return -1
	}
	if in.rowEqual(p, t) {
		return p
	}
	for _, q := range in.over[h] {
		if in.rowEqual(q, t) {
			return q
		}
	}
	return -1
}

// buildPos builds the primary index of a copy made by Snapshot. It runs
// under secMu because readers sharing a snapshot may probe it at once.
func (in *Instance) buildPos() {
	in.secMu.Lock()
	defer in.secMu.Unlock()
	if in.posReady.Load() {
		return
	}
	in.pos = make(map[uint64]int32, in.n)
	for s, alive := range in.live {
		if alive {
			in.indexAdd(in.rowHash(int32(s)), int32(s))
		}
	}
	in.posReady.Store(true)
}

// indexAdd records slot s for a row hashing to h.
func (in *Instance) indexAdd(h uint64, s int32) {
	if _, ok := in.pos[h]; !ok {
		in.pos[h] = s
		return
	}
	if in.over == nil {
		in.over = make(map[uint64][]int32)
	}
	in.over[h] = append(in.over[h], s)
}

// indexRemove forgets slot s for a row hashing to h.
func (in *Instance) indexRemove(h uint64, s int32) {
	if in.pos[h] == s {
		if ov := in.over[h]; len(ov) > 0 {
			in.pos[h] = ov[len(ov)-1]
			in.shrinkOver(h, len(ov)-1)
		} else {
			delete(in.pos, h)
		}
		return
	}
	for j, q := range in.over[h] {
		if q == s {
			ov := in.over[h]
			ov[j] = ov[len(ov)-1]
			in.shrinkOver(h, len(ov)-1)
			return
		}
	}
}

func (in *Instance) shrinkOver(h uint64, n int) {
	if n == 0 {
		delete(in.over, h)
	} else {
		in.over[h] = in.over[h][:n]
	}
}

// invalidateSecondary drops the lazy match indexes, the live-slot cache and
// any inheritance from a root; mutations call it so a stale index can never
// answer a probe.
func (in *Instance) invalidateSecondary() {
	if in.secondary == nil && in.liveRows == nil && in.root.Load() == nil {
		return
	}
	in.secMu.Lock()
	in.secondary, in.liveRows = nil, nil
	in.root.Store(nil)
	in.dirty, in.changed = nil, nil
	in.secMu.Unlock()
}

// colIndex is a lazily built hash index of the instance's rows over one
// column subset: buckets maps the hash of a row's values at cols to the
// slots carrying them, in ascending order. Distinct value vectors can share
// a bucket (64-bit hash collisions), so probes verify the values before
// trusting a bucket.
//
// An inherited index has no buckets of its own. base is the root's index
// over the same columns, and touched numbers the buckets the instance's
// changed slots leave or enter; every other bucket is base's. The first
// probe of a touched bucket merges it (see Instance.bucket) into its
// merged entry, which later probes return as is.
type colIndex struct {
	cols    []int
	buckets map[uint64][]int32
	base    *colIndex
	touched map[uint64]int32
	merged  []atomic.Pointer[[]int32]
}

// bucket returns the slots of ix whose values at its columns hash to h. A
// touched bucket of an inherited index is merged on its first probe: the
// root's bucket less the changed slots, and the changed slots whose rows
// now hash to h, in ascending slot order, exactly as a fresh build lays it
// out. Concurrent first probes may both merge; either result is the bucket.
func (in *Instance) bucket(ix *colIndex, h uint64) []int32 {
	if ix.base == nil {
		return ix.buckets[h]
	}
	i, ok := ix.touched[h]
	if !ok {
		return ix.base.buckets[h]
	}
	if m := ix.merged[i].Load(); m != nil {
		return *m
	}
	kept := ix.base.buckets[h]
	b := make([]int32, 0, len(kept)+1)
	enter := func(c int32) {
		if int(c) < len(in.live) && in.live[c] && in.hashRowCols(c, ix.cols) == h {
			b = append(b, c)
		}
	}
	j := 0
	for _, s := range kept {
		for ; j < len(in.changed) && in.changed[j] < s; j++ {
			enter(in.changed[j])
		}
		if in.dirty[s/64]&(1<<(s%64)) == 0 {
			b = append(b, s)
		}
	}
	for ; j < len(in.changed); j++ {
		enter(in.changed[j])
	}
	ix.merged[i].Store(&b)
	return b
}

// matchesRow reports whether row slot s agrees with want on the column
// positions.
func (in *Instance) matchesRow(s int32, cols []int, want []Value) bool {
	for i, c := range cols {
		if in.cols[c][s] != want[i] {
			return false
		}
	}
	return true
}

// MatchingRows returns the slots of rows agreeing with want on the given
// column positions (in the instance's column order). With no columns it
// returns every live slot. The first probe for a column set builds a hash
// index over it (O(n)); later probes are O(1) plus the match count and
// allocation-free unless a hash collision forces a filtered copy. Indexes
// are dropped on mutation, so the amortization pays off on immutable
// instances — which is exactly what the window-query evaluator probes: its
// per-tuple extension joins against an engine snapshot would otherwise
// rescan the joined relation for every tuple. A snapshot cut as a
// successor (see Snapshot) builds its index from its root's instead. Safe
// for concurrent use by readers. The result is read-only.
func (in *Instance) MatchingRows(cols []int, want []Value) []int32 {
	if len(cols) == 0 {
		return in.LiveRows()
	}
	cands := in.bucket(in.index(cols), hashkey.Int64s(want))
	n := 0
	for _, s := range cands {
		if in.matchesRow(s, cols, want) {
			n++
		}
	}
	if n == len(cands) {
		return cands
	}
	out := make([]int32, 0, n)
	for _, s := range cands {
		if in.matchesRow(s, cols, want) {
			out = append(out, s)
		}
	}
	return out
}

// index returns the match index over cols, building it on first use.
func (in *Instance) index(cols []int) *colIndex {
	ck := hashkey.Ints(cols)
	in.secMu.RLock()
	idx := in.lookupIndex(ck, cols)
	in.secMu.RUnlock()
	if idx != nil {
		return idx
	}
	in.secMu.Lock()
	defer in.secMu.Unlock()
	if idx := in.lookupIndex(ck, cols); idx != nil { // raced with another builder
		return idx
	}
	cols = append([]int(nil), cols...)
	if in.inherits() {
		idx = in.inheritIndex(cols)
	} else {
		idx = &colIndex{cols: cols, buckets: make(map[uint64][]int32, in.n)}
		for s, alive := range in.live {
			if alive {
				h := in.hashRowCols(int32(s), cols)
				idx.buckets[h] = append(idx.buckets[h], int32(s))
			}
		}
	}
	if in.secondary == nil {
		in.secondary = make(map[uint64][]*colIndex)
	}
	in.secondary[ck] = append(in.secondary[ck], idx)
	return idx
}

// lookupIndex returns the built index over cols, or nil; the caller holds
// secMu.
func (in *Instance) lookupIndex(ck uint64, cols []int) *colIndex {
	for _, ci := range in.secondary[ck] {
		if intsEqual(ci.cols, cols) {
			return ci
		}
	}
	return nil
}

// rerootShare bounds inheritance: a snapshot whose changed slots exceed one
// rerootShare-th of its rows builds its own indexes and becomes the root of
// the snapshots cut after it. An inherited index costs a scan of the slots
// against the root's and two hashes per changed slot, and each touched
// bucket a merge on its first probe; a fresh one costs a hash and a map
// append per row. Below one eighth the inherited index stays several times
// cheaper on distinct keys and still cheaper on skewed ones (see
// BenchmarkSuccessorIndex), while most probes still read the root's buckets
// directly and the root a successor pins is not far behind it.
const rerootShare = 8

// inherits reports whether the instance builds its indexes from its root's.
// The first call compares every slot with the root's and keeps the slots
// that differ; past the rerootShare bound it drops the root instead. The
// caller holds secMu.
func (in *Instance) inherits() bool {
	root := in.root.Load()
	if root == nil || in.dirty != nil {
		return root != nil
	}
	slots := max(len(in.live), len(root.live))
	dirty := make([]uint64, (slots+63)/64)
	var changed []int32
	for s := 0; s < slots; s++ {
		was := s < len(root.live) && root.live[s]
		is := s < len(in.live) && in.live[s]
		if was == is && (!is || sameRow(in, root, int32(s))) {
			continue
		}
		if len(changed) == in.n/rerootShare {
			in.root.Store(nil)
			return false
		}
		dirty[s/64] |= 1 << (s % 64)
		changed = append(changed, int32(s))
	}
	in.dirty, in.changed = dirty, changed
	return true
}

// sameRow reports whether slot s carries the same values in a and b.
func sameRow(a, b *Instance, s int32) bool {
	for c, col := range a.cols {
		if col[s] != b.cols[c][s] {
			return false
		}
	}
	return true
}

// inheritIndex builds the index over cols from the root's: it hashes each
// changed slot's row in the root and in the instance to find the buckets
// they leave or enter, and merges none of them yet. The caller holds
// secMu; the root never locks a successor, so taking the root's lock here
// cannot deadlock.
func (in *Instance) inheritIndex(cols []int) *colIndex {
	root := in.root.Load()
	idx := &colIndex{cols: cols, base: root.index(cols), touched: make(map[uint64]int32)}
	touch := func(h uint64) {
		if _, ok := idx.touched[h]; !ok {
			idx.touched[h] = int32(len(idx.touched))
		}
	}
	for _, s := range in.changed {
		if int(s) < len(root.live) && root.live[s] {
			touch(root.hashRowCols(s, cols))
		}
		if int(s) < len(in.live) && in.live[s] {
			touch(in.hashRowCols(s, cols))
		}
	}
	idx.merged = make([]atomic.Pointer[[]int32], len(idx.touched))
	return idx
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// Add inserts a tuple (deduplicating). It panics if the arity is wrong,
// since that is always a programming error. The values are copied into the
// column arenas — the caller keeps ownership of t and may reuse it.
// Duplicate adds are allocation-free; a fresh add costs only amortized
// arena growth.
func (in *Instance) Add(t Tuple) bool {
	if len(t) != in.Width() {
		panic(fmt.Sprintf("relation: tuple arity %d does not match scheme arity %d", len(t), in.Width()))
	}
	if in.find(t) >= 0 {
		return false
	}
	in.invalidateSecondary()
	var s int32
	if k := len(in.free); k > 0 {
		s = in.free[k-1]
		in.free = in.free[:k-1]
		for c, v := range t {
			in.cols[c][s] = v
		}
		in.live[s] = true
	} else {
		s = int32(len(in.live))
		for c, v := range t {
			in.cols[c] = append(in.cols[c], v)
		}
		in.live = append(in.live, true)
	}
	in.n++
	in.indexAdd(t.hash(), s)
	return true
}

// Remove deletes a tuple, reporting whether it was present. The vacated
// slot keeps its number and goes on the free list for the next Add, so
// other rows' slots are never disturbed.
func (in *Instance) Remove(t Tuple) bool {
	s := in.find(t)
	if s < 0 {
		return false
	}
	in.invalidateSecondary()
	in.indexRemove(t.hash(), s)
	in.live[s] = false
	in.free = append(in.free, s)
	in.n--
	return true
}

// Has reports whether the tuple is present. It never allocates.
func (in *Instance) Has(t Tuple) bool {
	return in.find(t) >= 0
}

// Snapshot copies the instance: its columns, live mask and free list, each
// one memmove, and nothing else. This is all a caller holding a writer's
// locks pays; the copy builds its primary index on its first membership
// probe and each match index on its first MatchingRows, outside those
// locks.
//
// prev, when non-nil, is an earlier snapshot of the same relation that is
// never mutated. The copy then inherits from prev's root (prev itself, or
// the snapshot prev inherits from): on its first probe it finds the slots
// whose row or liveness differs from the root's, and each match index it
// builds shares the root's buckets, merging each one the changed slots
// touch on its first probe (see bucket). Past rerootShare it builds its own
// indexes and becomes the root of later snapshots. The copy is an ordinary
// instance: mutating it drops the inheritance.
func (in *Instance) Snapshot(prev *Instance) *Instance {
	slots := len(in.live)
	out := &Instance{Attrs: in.Attrs, cols: make([][]Value, len(in.cols)), n: in.n}
	arena := make([]Value, slots*len(in.cols)) // one allocation for every column
	for c, col := range in.cols {
		out.cols[c] = arena[c*slots : (c+1)*slots : (c+1)*slots]
		copy(out.cols[c], col)
	}
	out.live = append([]bool(nil), in.live...)
	out.free = append([]int32(nil), in.free...)
	if prev != nil {
		root := prev.root.Load()
		if root == nil {
			root = prev
		}
		out.root.Store(root)
	}
	return out
}

// Clone copies the instance to be mutated: a Snapshot with no predecessor.
func (in *Instance) Clone() *Instance { return in.Snapshot(nil) }

// SnapshotCols returns the live rows in column-major form plus the row
// count: one slice per column, each holding exactly the live rows in slot
// order. With no vacated slots (the common case for snapshot encoding) the
// returned slices alias the arenas directly — zero copies; otherwise the
// columns are compacted into fresh slices. Read-only.
func (in *Instance) SnapshotCols() ([][]Value, int) {
	if len(in.free) == 0 {
		return in.cols, in.n
	}
	out := make([][]Value, len(in.cols))
	for c := range in.cols {
		cc := make([]Value, 0, in.n)
		col := in.cols[c]
		for s, alive := range in.live {
			if alive {
				cc = append(cc, col[s])
			}
		}
		out[c] = cc
	}
	return out, in.n
}

// ProjectionCols returns, for each attribute of sub (ascending), its
// column position within the scheme attrs (ascending order) — the shared
// projection/join column map; the query layer uses it too, so projection
// semantics cannot diverge between layers.
func ProjectionCols(attrs, sub attrset.Set) []int {
	cols := attrs.Attrs()
	colAt := make(map[int]int, len(cols))
	for i, a := range cols {
		colAt[a] = i
	}
	subAttrs := sub.Attrs()
	out := make([]int, len(subAttrs))
	for i, a := range subAttrs {
		out[i] = colAt[a]
	}
	return out
}

// Project returns π_sub(in). sub must be a subset of the instance scheme.
func (in *Instance) Project(sub attrset.Set) *Instance {
	if !sub.SubsetOf(in.Attrs) {
		panic("relation: projection target not a subset of the scheme")
	}
	cols := ProjectionCols(in.Attrs, sub)
	out := NewInstance(sub)
	p := make(Tuple, len(cols))
	for s, alive := range in.live {
		if !alive {
			continue
		}
		for i, c := range cols {
			p[i] = in.cols[c][s]
		}
		out.Add(p)
	}
	return out
}

// agreeRows reports whether row sa of a and row sb of b carry the same
// values at the paired column positions — the natural-join condition
// itself, so hash buckets verified with it can never admit a false match.
func agreeRows(a *Instance, sa int32, aCols []int, b *Instance, sb int32, bCols []int) bool {
	for i, c := range aCols {
		if a.cols[c][sa] != b.cols[bCols[i]][sb] {
			return false
		}
	}
	return true
}

// Join returns the natural join of two instances.
func Join(a, b *Instance) *Instance {
	common := a.Attrs.Intersect(b.Attrs)
	aCols := ProjectionCols(a.Attrs, common)
	bCols := ProjectionCols(b.Attrs, common)
	// Bucket b by the hash of its common-attribute values; probes verify
	// the join condition directly, so collisions cost a comparison, never
	// a wrong row.
	byKey := make(map[uint64][]int32, b.n)
	for s, alive := range b.live {
		if !alive {
			continue
		}
		h := b.hashRowCols(int32(s), bCols)
		byKey[h] = append(byKey[h], int32(s))
	}
	outAttrs := a.Attrs.Union(b.Attrs)
	out := NewInstance(outAttrs)
	outCols := outAttrs.Attrs()
	aIdx := make(map[int]int)
	for i, at := range a.Attrs.Attrs() {
		aIdx[at] = i
	}
	bIdx := make(map[int]int)
	for i, at := range b.Attrs.Attrs() {
		bIdx[at] = i
	}
	joined := make(Tuple, len(outCols))
	for sa, alive := range a.live {
		if !alive {
			continue
		}
		for _, sb := range byKey[a.hashRowCols(int32(sa), aCols)] {
			if !agreeRows(a, int32(sa), aCols, b, sb, bCols) {
				continue
			}
			for i, at := range outCols {
				if j, ok := aIdx[at]; ok {
					joined[i] = a.cols[j][sa]
				} else {
					joined[i] = b.cols[bIdx[at]][sb]
				}
			}
			out.Add(joined)
		}
	}
	return out
}

// Semijoin returns the tuples of a that join with some tuple of b.
func Semijoin(a, b *Instance) *Instance {
	common := a.Attrs.Intersect(b.Attrs)
	bCols := ProjectionCols(b.Attrs, common)
	bKeys := make(map[uint64][]int32, b.n)
	for s, alive := range b.live {
		if !alive {
			continue
		}
		h := b.hashRowCols(int32(s), bCols)
		bKeys[h] = append(bKeys[h], int32(s))
	}
	aCols := ProjectionCols(a.Attrs, common)
	out := NewInstance(a.Attrs)
	var scratch Tuple
	for sa, alive := range a.live {
		if !alive {
			continue
		}
		for _, sb := range bKeys[a.hashRowCols(int32(sa), aCols)] {
			if agreeRows(a, int32(sa), aCols, b, sb, bCols) {
				scratch = a.AppendRow(scratch[:0], int32(sa))
				out.Add(scratch)
				break
			}
		}
	}
	return out
}

// State is a database state: one instance per scheme of a database schema.
type State struct {
	Schema *schema.Schema
	Insts  []*Instance
	Dict   *Dict // display dictionary, shared by every clone
}

// NewState creates a state with empty instances for every scheme.
func NewState(s *schema.Schema) *State {
	st := &State{Schema: s, Insts: make([]*Instance, len(s.Rels)), Dict: &Dict{}}
	for i, r := range s.Rels {
		st.Insts[i] = NewInstance(r.Attrs)
	}
	return st
}

// Clone deep-copies the state (sharing the schema and dictionary).
func (st *State) Clone() *State {
	out := &State{Schema: st.Schema, Insts: make([]*Instance, len(st.Insts)), Dict: st.Dict}
	for i, in := range st.Insts {
		out.Insts[i] = in.Clone()
	}
	return out
}

// Add inserts a tuple into the named scheme's instance.
func (st *State) Add(scheme string, t Tuple) {
	i := st.Schema.IndexOf(scheme)
	if i < 0 {
		panic("relation: unknown scheme " + scheme)
	}
	st.Insts[i].Add(t)
}

// AddNamed inserts a tuple given as attribute-name → value-name pairs, using
// the state's dictionary. All attributes of the scheme must be present.
func (st *State) AddNamed(scheme string, vals map[string]string) {
	i := st.Schema.IndexOf(scheme)
	if i < 0 {
		panic("relation: unknown scheme " + scheme)
	}
	attrs := st.Schema.Attrs(i).Attrs()
	t := make(Tuple, len(attrs))
	for j, a := range attrs {
		name := st.Schema.U.Name(a)
		v, ok := vals[name]
		if !ok {
			panic("relation: missing value for attribute " + name)
		}
		t[j] = st.Dict.Value(v)
	}
	st.Insts[i].Add(t)
}

// TupleCount returns the total number of tuples in the state.
func (st *State) TupleCount() int {
	n := 0
	for _, in := range st.Insts {
		n += in.Len()
	}
	return n
}

// Universal is an instance over the full universe.
type Universal = Instance

// ProjectOnto builds the state π_D(I) from a universal instance.
func ProjectOnto(s *schema.Schema, universal *Instance) *State {
	st := NewState(s)
	for i, r := range s.Rels {
		st.Insts[i] = universal.Project(r.Attrs)
	}
	return st
}

// JoinAll computes the natural join of all instances of the state (*p in the
// paper's notation). Instances are joined in scheme order; the empty state
// joins to an empty universal instance.
func (st *State) JoinAll() *Instance {
	var acc *Instance
	for _, in := range st.Insts {
		if acc == nil {
			acc = in.Clone()
			continue
		}
		acc = Join(acc, in)
	}
	if acc == nil {
		acc = NewInstance(st.Schema.U.All())
	}
	return acc
}

// JoinConsistent reports whether the state is the set of projections of a
// single universal instance, i.e. π_{R_i}(*p) = r_i for every scheme.
func (st *State) JoinConsistent() bool {
	j := st.JoinAll()
	if j.Attrs != st.Schema.U.All() {
		return false
	}
	var scratch Tuple
	for _, in := range st.Insts {
		proj := j.Project(in.Attrs)
		if proj.Len() != in.Len() {
			return false
		}
		for s, alive := range in.live {
			if !alive {
				continue
			}
			scratch = in.AppendRow(scratch[:0], int32(s))
			if !proj.Has(scratch) {
				return false
			}
		}
	}
	return true
}

// String renders the state for debugging, one relation per line.
func (st *State) String() string {
	var b strings.Builder
	for i, in := range st.Insts {
		fmt.Fprintf(&b, "%s(%s):", st.Schema.Name(i), st.Schema.U.Format(in.Attrs, " "))
		tuples := make([]string, 0, in.Len())
		for _, t := range in.Rows() {
			parts := make([]string, len(t))
			for j, v := range t {
				parts[j] = st.Dict.Name(v)
			}
			tuples = append(tuples, "("+strings.Join(parts, ",")+")")
		}
		sort.Strings(tuples)
		b.WriteString(" " + strings.Join(tuples, " "))
		b.WriteString("\n")
	}
	return b.String()
}
