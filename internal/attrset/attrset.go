// Package attrset provides fixed-capacity attribute sets and attribute
// universes for relational dependency theory.
//
// An attribute is an index into a Universe (a dictionary of attribute
// names). A Set is a bitset over at most MaxAttrs attributes. Set is a
// value type: it is comparable with ==, usable as a map key, and all
// operations return new values rather than mutating in place (except the
// explicit pointer receivers Add and Remove).
package attrset

import (
	"math/bits"
	"sort"
	"strings"
)

// MaxAttrs is the maximum number of attributes in a Universe.
const MaxAttrs = 256

const words = MaxAttrs / 64

// Set is a set of attribute indices in [0, MaxAttrs). The zero value is the
// empty set. Set is comparable: s == t holds exactly when the sets are equal.
type Set [words]uint64

// Of builds a set from the given attribute indices. It panics if an index is
// out of range, since that always indicates a programming error.
func Of(attrs ...int) Set {
	var s Set
	for _, a := range attrs {
		s.Add(a)
	}
	return s
}

// Add inserts attribute a into the set.
func (s *Set) Add(a int) {
	if a < 0 || a >= MaxAttrs {
		panic("attrset: attribute index out of range")
	}
	s[a/64] |= 1 << uint(a%64)
}

// Remove deletes attribute a from the set.
func (s *Set) Remove(a int) {
	if a < 0 || a >= MaxAttrs {
		panic("attrset: attribute index out of range")
	}
	s[a/64] &^= 1 << uint(a%64)
}

// Has reports whether attribute a is in the set.
func (s Set) Has(a int) bool {
	if a < 0 || a >= MaxAttrs {
		return false
	}
	return s[a/64]&(1<<uint(a%64)) != 0
}

// IsEmpty reports whether the set has no attributes.
func (s Set) IsEmpty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of attributes in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	var u Set
	for i := range s {
		u[i] = s[i] | t[i]
	}
	return u
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var u Set
	for i := range s {
		u[i] = s[i] & t[i]
	}
	return u
}

// Diff returns s − t.
func (s Set) Diff(t Set) Set {
	var u Set
	for i := range s {
		u[i] = s[i] &^ t[i]
	}
	return u
}

// SubsetOf reports whether every attribute of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return s != t && s.SubsetOf(t)
}

// Intersects reports whether s ∩ t is nonempty.
func (s Set) Intersects(t Set) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// With returns s ∪ {a}.
func (s Set) With(a int) Set {
	s.Add(a)
	return s
}

// Without returns s − {a}.
func (s Set) Without(a int) Set {
	s.Remove(a)
	return s
}

// Attrs returns the attribute indices of the set in ascending order.
func (s Set) Attrs() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s {
		base := i * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, base+b)
			w &= w - 1
		}
	}
	return out
}

// Rank returns the number of attributes of s below a: a's position in s's
// ascending order, e.g. its column in a tuple over s.
func (s Set) Rank(a int) int {
	n := bits.OnesCount64(s[a/64] & (1<<uint(a%64) - 1))
	for _, w := range s[:a/64] {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the smallest attribute in the set, or -1 if empty.
func (s Set) First() int {
	for i, w := range s {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEach calls f for every attribute in ascending order. It stops early if
// f returns false.
func (s Set) ForEach(f func(a int) bool) {
	for i, w := range s {
		base := i * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(base + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Universe is a dictionary assigning names to attribute indices 0..n−1.
// The zero value is an empty universe; use Add or NewUniverse to populate it.
type Universe struct {
	names []string
	index map[string]int
}

// NewUniverse builds a universe from the given attribute names, in order.
// Duplicate names panic: a universe is a set of attributes.
func NewUniverse(names ...string) *Universe {
	u := &Universe{index: make(map[string]int, len(names))}
	for _, n := range names {
		u.Add(n)
	}
	return u
}

// Add appends a new attribute and returns its index. Adding an existing name
// returns the existing index.
func (u *Universe) Add(name string) int {
	if u.index == nil {
		u.index = make(map[string]int)
	}
	if i, ok := u.index[name]; ok {
		return i
	}
	if len(u.names) >= MaxAttrs {
		panic("attrset: universe exceeds MaxAttrs attributes")
	}
	i := len(u.names)
	u.names = append(u.names, name)
	u.index[name] = i
	return i
}

// Size returns the number of attributes in the universe.
func (u *Universe) Size() int { return len(u.names) }

// Name returns the name of attribute i.
func (u *Universe) Name(i int) string {
	if i < 0 || i >= len(u.names) {
		return "?"
	}
	return u.names[i]
}

// Names returns the names of all attributes of s, in index order.
func (u *Universe) Names(s Set) []string {
	attrs := s.Attrs()
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = u.Name(a)
	}
	return out
}

// Index returns the index of the named attribute and whether it exists.
func (u *Universe) Index(name string) (int, bool) {
	i, ok := u.index[name]
	return i, ok
}

// MustIndex returns the index of the named attribute, panicking if absent.
func (u *Universe) MustIndex(name string) int {
	i, ok := u.index[name]
	if !ok {
		panic("attrset: unknown attribute " + name)
	}
	return i
}

// Set builds a Set from attribute names. Unknown names panic.
func (u *Universe) Set(names ...string) Set {
	var s Set
	for _, n := range names {
		s.Add(u.MustIndex(n))
	}
	return s
}

// All returns the set of every attribute in the universe.
func (u *Universe) All() Set {
	var s Set
	for i := range u.names {
		s.Add(i)
	}
	return s
}

// Format renders a set using the universe's attribute names, joined by the
// given separator, in index order.
func (u *Universe) Format(s Set, sep string) string {
	return strings.Join(u.Names(s), sep)
}

// SortSets orders sets lexicographically by their attribute lists; used to
// produce deterministic output.
func SortSets(sets []Set) {
	sort.Slice(sets, func(i, j int) bool { return Less(sets[i], sets[j]) })
}

// Less is a total order on sets: first by size, then lexicographically by
// bit pattern. It exists to make algorithm traces and witnesses
// deterministic.
func Less(a, b Set) bool {
	la, lb := a.Len(), b.Len()
	if la != lb {
		return la < lb
	}
	for i := words - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
