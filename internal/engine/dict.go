package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"indep/internal/relation"
	"indep/internal/wal"
)

// dictShards is the number of lock stripes in a Dict. Power of two so the
// modulo compiles to a mask.
const dictShards = 64

// Dict is a sharded, concurrency-safe value dictionary: the engine's
// replacement for relation.Dict, which is a plain map and unusable under
// goroutines. Each shard owns a disjoint residue class of the value space
// (shard s allocates s, s+dictShards, s+2·dictShards, …), so interning and
// reverse lookup touch exactly one stripe and never a global lock.
type Dict struct {
	shards [dictShards]dictShard
	size   atomic.Int64 // bindings across all shards; bumped under the shard lock
}

type dictShard struct {
	mu    sync.RWMutex
	index map[string]relation.Value
	names []string
}

// NewDict creates an empty concurrent dictionary.
func NewDict() *Dict { return &Dict{} }

// shardOf hashes a name to its stripe (FNV-1a).
func shardOf(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % dictShards)
}

// Value interns name and returns its value. Safe for concurrent use; the
// same name always maps to the same value.
func (d *Dict) Value(name string) relation.Value {
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
	if sh.index == nil {
		sh.index = make(map[string]relation.Value)
	}
	v = relation.Value(len(sh.names)*dictShards + si)
	sh.names = append(sh.names, name)
	sh.index[name] = v
	d.size.Add(1)
	return v
}

// Restore re-binds a (value, name) pair recovered from a checkpoint or a
// log record's bindings. Pairs must arrive in ascending value order per
// shard — the order Dict allocates and the recovery sources preserve — so
// allocation resumes seamlessly after the restored prefix. Restoring an
// already-present pair is a no-op; a mismatch reports corruption.
func (d *Dict) Restore(v relation.Value, name string) error {
	if v < 0 {
		return fmt.Errorf("engine: restore of negative value %d", int64(v))
	}
	si := int(v) % dictShards
	if shardOf(name) != si {
		return fmt.Errorf("engine: dictionary value %d does not hash to its shard for %q", int64(v), name)
	}
	idx := int(v) / dictShards
	sh := &d.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case idx < len(sh.names):
		if sh.names[idx] != name {
			return fmt.Errorf("engine: dictionary value %d bound to %q and %q", int64(v), sh.names[idx], name)
		}
		return nil
	case idx > len(sh.names):
		return fmt.Errorf("engine: dictionary gap restoring value %d", int64(v))
	}
	if prev, ok := sh.index[name]; ok {
		return fmt.Errorf("engine: dictionary name %q bound to values %d and %d", name, int64(prev), int64(v))
	}
	if sh.index == nil {
		sh.index = make(map[string]relation.Value)
	}
	sh.names = append(sh.names, name)
	sh.index[name] = v
	d.size.Add(1)
	return nil
}

// Lookup returns the value of an already-interned name without interning it.
func (d *Dict) Lookup(name string) (relation.Value, bool) {
	sh := &d.shards[shardOf(name)]
	sh.mu.RLock()
	v, ok := sh.index[name]
	sh.mu.RUnlock()
	return v, ok
}

// Name returns the display name of v, or its numeral if v was never interned.
func (d *Dict) Name(v relation.Value) string {
	if v >= 0 {
		sh := &d.shards[int(v)%dictShards]
		idx := int(v) / dictShards
		sh.mu.RLock()
		if idx < len(sh.names) {
			name := sh.names[idx]
			sh.mu.RUnlock()
			return name
		}
		sh.mu.RUnlock()
	}
	return fmt.Sprintf("%d", int64(v))
}

// Len returns the number of interned names.
func (d *Dict) Len() int { return int(d.size.Load()) }

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
		sh := &d.shards[i]
		sh.mu.RLock()
		m.shard[i] = len(sh.names)
		sh.mu.RUnlock()
		m.total += m.shard[i]
	}
	return m
}

// AppendNew appends to out every binding above the watermark m, each
// shard's gap-free and ascending (the order Restore requires), and advances
// m past them. A value Value returned before the call is included, or was by
// an earlier call. Calls advancing the same Marks must be serialized.
func (d *Dict) AppendNew(m *Marks, out []wal.Binding) []wal.Binding {
	if int(d.size.Load()) == m.total {
		return out
	}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		for idx := m.shard[i]; idx < len(sh.names); idx++ {
			out = append(out, wal.Binding{Value: relation.Value(idx*dictShards + i), Name: sh.names[idx]})
		}
		m.total += len(sh.names) - m.shard[i]
		m.shard[i] = len(sh.names)
		sh.mu.RUnlock()
	}
	return out
}

// Materialize copies the dictionary into a plain relation.Dict (value
// bindings preserved), for attaching to immutable snapshot states.
func (d *Dict) Materialize() *relation.Dict {
	out := &relation.Dict{}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		for idx, name := range sh.names {
			out.Define(relation.Value(idx*dictShards+i), name)
		}
		sh.mu.RUnlock()
	}
	return out
}
