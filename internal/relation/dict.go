package relation

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// dictShards is the number of lock stripes in a Dict. Power of two so the
// modulo compiles to a mask.
const dictShards = 64

// Dict maps values to display names and back. It is append-only — a
// binding, once made, never changes — so a state and every snapshot cut from
// it share one Dict by reference: a snapshot's tuples hold only values bound
// before its cut, and a name bound later resolves to a value none of them
// holds. It is sharded and safe for concurrent use. Each shard owns a
// disjoint residue class of the value space (shard s allocates s,
// s+dictShards, s+2·dictShards, …), so interning touches exactly one stripe
// and never a global lock, and Name, which rendering calls per cell, takes
// no lock at all. The zero value is usable.
type Dict struct {
	shards [dictShards]dictShard
	size   atomic.Int64 // bindings across all shards
}

// dictShard is one stripe. mu guards index and serializes appends; names are
// read without it: arr publishes the backing array at full capacity and n
// the length of its bound prefix, so an append writes past every reader's n.
type dictShard struct {
	mu    sync.RWMutex
	index map[string]Value
	arr   atomic.Pointer[[]string]
	n     atomic.Int64
}

// Binding is one dictionary entry: a value and its display name.
type Binding struct {
	Value Value
	Name  string
}

// names returns the shard's bound names, gap-free and in value order.
func (sh *dictShard) names() []string {
	n := sh.n.Load() // before arr: a grown array is published before n covers it
	if n == 0 {
		return nil
	}
	return (*sh.arr.Load())[:n]
}

// bind appends name as the shard's next value v. The caller holds mu.
func (sh *dictShard) bind(d *Dict, v Value, name string) {
	names := sh.names()
	grow := len(names) == cap(names)
	names = append(names, name)
	if grow {
		all := names[:cap(names)]
		sh.arr.Store(&all)
	}
	if sh.index == nil {
		sh.index = make(map[string]Value)
	}
	sh.index[name] = v
	d.size.Add(1) // before n: a binding AppendNew can see is already counted
	sh.n.Store(int64(len(names)))
}

// shardOf hashes a name to its stripe (FNV-1a).
func shardOf(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % dictShards)
}

// Value interns name and returns its value. The same name always maps to
// the same value.
func (d *Dict) Value(name string) Value {
	si := shardOf(name)
	sh := &d.shards[si]
	sh.mu.RLock()
	v, ok := sh.index[name]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.index[name]; ok { // raced with another writer
		return v
	}
	v = Value(int(sh.n.Load())*dictShards + si)
	sh.bind(d, v, name)
	return v
}

// Restore re-binds a (value, name) pair recovered from a checkpoint or a
// log record's bindings. Pairs must arrive in ascending value order per
// shard — the order Dict allocates and Each and AppendNew produce — so
// allocation resumes seamlessly after the restored prefix. Restoring an
// already-present pair is a no-op; a mismatch reports corruption.
func (d *Dict) Restore(v Value, name string) error {
	if v < 0 {
		return fmt.Errorf("relation: restore of negative value %d", int64(v))
	}
	si := int(v) % dictShards
	if shardOf(name) != si {
		return fmt.Errorf("relation: dictionary value %d does not hash to its shard for %q", int64(v), name)
	}
	idx := int(v) / dictShards
	sh := &d.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	names := sh.names()
	switch {
	case idx < len(names):
		if names[idx] != name {
			return fmt.Errorf("relation: dictionary value %d bound to %q and %q", int64(v), names[idx], name)
		}
		return nil
	case idx > len(names):
		return fmt.Errorf("relation: dictionary gap restoring value %d", int64(v))
	}
	if prev, ok := sh.index[name]; ok {
		return fmt.Errorf("relation: dictionary name %q bound to values %d and %d", name, int64(prev), int64(v))
	}
	sh.bind(d, v, name)
	return nil
}

// Lookup returns the value of an already-interned name without interning
// it. Query selection uses it: a name the dictionary has never seen cannot
// appear in any tuple, so the dictionary does not grow on misses.
func (d *Dict) Lookup(name string) (Value, bool) {
	if d == nil {
		return 0, false
	}
	sh := &d.shards[shardOf(name)]
	sh.mu.RLock()
	v, ok := sh.index[name]
	sh.mu.RUnlock()
	return v, ok
}

// Name returns the display name of v, or its numeral if v was never
// interned. It takes no lock and does not allocate for a bound value.
func (d *Dict) Name(v Value) string {
	if d != nil && v >= 0 {
		if names := d.shards[int(v)%dictShards].names(); int(v)/dictShards < len(names) {
			return names[int(v)/dictShards]
		}
	}
	return fmt.Sprintf("%d", int64(v))
}

// Len returns the number of interned names.
func (d *Dict) Len() int { return int(d.size.Load()) }

// Each calls f for every binding, shard by shard and in ascending value
// order within a shard — an order Restore accepts.
func (d *Dict) Each(f func(v Value, name string)) {
	if d == nil {
		return
	}
	for i := range d.shards {
		for idx, name := range d.shards[i].names() {
			f(Value(idx*dictShards+i), name)
		}
	}
}

// Marks is a watermark over a Dict: per shard, how many of its bindings a
// consumer has already taken. The zero value is the empty dictionary.
type Marks struct {
	total int
	shard [dictShards]int
}

// Marks returns a watermark at the dictionary's current size.
func (d *Dict) Marks() Marks {
	var m Marks
	for i := range d.shards {
		m.shard[i] = len(d.shards[i].names())
		m.total += m.shard[i]
	}
	return m
}

// AppendNew appends to out every binding above the watermark m, in Each
// order, and advances m past them. A value Value returned before the call
// is included, or was by an earlier call. Calls advancing the same Marks
// must be serialized.
func (d *Dict) AppendNew(m *Marks, out []Binding) []Binding {
	if d.Len() == m.total {
		return out
	}
	for i := range d.shards {
		names := d.shards[i].names()
		for idx := m.shard[i]; idx < len(names); idx++ {
			out = append(out, Binding{Value: Value(idx*dictShards + i), Name: names[idx]})
		}
		m.total += len(names) - m.shard[i]
		m.shard[i] = len(names)
	}
	return out
}
