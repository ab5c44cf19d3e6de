// Package tableau implements the tagged tableaux of the paper's Section 4.
//
// A tagged tableau over universe U is an instance of U ∪ {Tag}: each column
// holds either the column's unique distinguished variable (dv) or a
// nondistinguished variable (ndv), and the tag names a relation scheme. The
// tableaux the independence algorithm constructs have two structural
// invariants (the paper's Observation): every row has dvs in a locally
// closed set of attributes, and no ndv occurs twice. A row is therefore
// fully described by its tag and its dv-set, and a tableau by a set of such
// rows — which is the representation used here.
//
// The weakness preorder: T ≤ T' iff there is a symbol mapping, identity on
// tags and dvs, taking every row of T to a row of T'. Under the invariants
// this reduces to: for every row (i, S) of T there is a row (i, S') of T'
// with S ⊆ S'.
package tableau

import (
	"fmt"
	"sort"
	"strings"

	"indep/internal/attrset"
	"indep/internal/relation"
	"indep/internal/schema"
)

// Row is a tableau row: its tag (a scheme index) and the set of columns
// holding distinguished variables. All remaining columns hold unique
// nondistinguished variables.
type Row struct {
	Tag int
	DVs attrset.Set
}

// T is a tagged tableau: a duplicate-free set of rows.
type T []Row

// Add returns the tableau with the row added (no-op if present).
func (t T) Add(r Row) T {
	for _, x := range t {
		if x == r {
			return t
		}
	}
	out := make(T, len(t)+1)
	copy(out, t)
	out[len(t)] = r
	out.sort()
	return out
}

// Union returns the union of two tableaux.
func (t T) Union(o T) T {
	out := t
	for _, r := range o {
		out = out.Add(r)
	}
	return out
}

func (t T) sort() {
	sort.Slice(t, func(i, j int) bool {
		if t[i].Tag != t[j].Tag {
			return t[i].Tag < t[j].Tag
		}
		return attrset.Less(t[i].DVs, t[j].DVs)
	})
}

// Has reports whether the row is present.
func (t T) Has(r Row) bool {
	for _, x := range t {
		if x == r {
			return true
		}
	}
	return false
}

// Leq reports T ≤ T': every row of t maps to a row of o with the same tag
// and a superset dv-set.
func Leq(t, o T) bool {
	for _, r := range t {
		ok := false
		for _, x := range o {
			if x.Tag == r.Tag && r.DVs.SubsetOf(x.DVs) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Lt reports T < T' (strictly weaker).
func Lt(t, o T) bool { return Leq(t, o) && !Leq(o, t) }

// Equiv reports T ≡ T'.
func Equiv(t, o T) bool { return Leq(t, o) && Leq(o, t) }

// DVsIn returns the set of columns in which some row of t has a dv.
func (t T) DVsIn() attrset.Set {
	var s attrset.Set
	for _, r := range t {
		s = s.Union(r.DVs)
	}
	return s
}

// Format renders the tableau with scheme names, e.g. "{CT:C T} {TD:T D}".
func (t T) Format(s *schema.Schema) string {
	parts := make([]string, len(t))
	for i, r := range t {
		parts[i] = fmt.Sprintf("{%s:%s}", s.Name(r.Tag), s.U.Format(r.DVs, " "))
	}
	return strings.Join(parts, " ")
}

// Valuation is an assignment of values to distinguished variables (keyed by
// column) witnessing that a tableau maps into a state.
type Valuation map[int]relation.Value

// FindValuation searches for a valuation from the tableau to the state that
// agrees with the partial assignment anchor (column → required dv value):
// a choice of values for the dvs, extending anchor, such that every row
// (i, S) matches some tuple of the state's i-th relation on the columns
// S ∩ R_i. Nondistinguished variables are unconstrained and need no
// assignment. It is Binding.Find on a fresh binding; hot paths reuse one
// Binding instead.
func FindValuation(t T, st *relation.State, anchor Valuation) (Valuation, bool) {
	var b Binding
	b.Reset(st.Schema.U.Size())
	for a, v := range anchor {
		b.Bind(a, v)
	}
	if !b.Find(t, st) {
		return nil, false
	}
	out := make(Valuation, b.Bound.Len())
	for _, a := range b.Bound.Attrs() {
		out[a] = b.Val[a]
	}
	return out, true
}

// Binding is a valuation held densely: Val[a] is column a's value iff
// Bound.Has(a). A caller that reuses one Binding across searches runs
// them without allocating.
type Binding struct {
	Val   []relation.Value
	Bound attrset.Set

	// Working memory: the current row's probe key, and the (column
	// position, attribute) pairs each row of the search binds, stacked.
	probeCols []int
	probeVals []relation.Value
	frees     []int
}

// Reset clears every binding and sizes Val for a universe of n attributes.
func (b *Binding) Reset(n int) {
	if len(b.Val) < n {
		b.Val = make([]relation.Value, n)
	}
	b.Bound = attrset.Set{}
}

// Bind assigns v to column a.
func (b *Binding) Bind(a int, v relation.Value) {
	b.Val[a] = v
	b.Bound.Add(a)
}

// Find extends b to a valuation from t to the state. The search
// backtracks over rows (tableaux here are tiny); each row's candidates
// come from a hash probe on its already-bound dv columns
// (relation.Instance.MatchingRows), so on an immutable state — e.g. the
// engine snapshots the window-query evaluator reads — a probe is O(1)
// instead of a scan of the relation, and candidate rows are read in place
// from the column arenas. On success the new bindings stay in b; on
// failure b is left as it was.
func (b *Binding) Find(t T, st *relation.State) bool {
	if len(t) == 0 {
		return true
	}
	row := t[0]
	inst := st.Insts[row.Tag]
	rel := st.Schema.Attrs(row.Tag)
	// Split the row's dv columns into bound ones (they form the probe key)
	// and free ones (bound by the candidate tuple).
	b.probeCols, b.probeVals = b.probeCols[:0], b.probeVals[:0]
	base := len(b.frees)
	// Loop invariants in locals: the appends below store through b, so the
	// compiler would otherwise reload (and recount) them every iteration.
	width, dvs, bound := inst.Width(), row.DVs, b.Bound
	for a, j := 0, 0; j < width; a++ {
		if !rel.Has(a) {
			continue
		}
		if dvs.Has(a) {
			if bound.Has(a) {
				b.probeCols = append(b.probeCols, j)
				b.probeVals = append(b.probeVals, b.Val[a])
			} else {
				b.frees = append(b.frees, j, a)
			}
		}
		j++
	}
	top := len(b.frees)
	for _, s := range inst.MatchingRows(b.probeCols, b.probeVals) {
		for k := base; k < top; k += 2 {
			b.Bind(b.frees[k+1], inst.At(s, b.frees[k]))
		}
		if b.Find(t[1:], st) {
			b.frees = b.frees[:base]
			return true
		}
		for k := base; k < top; k += 2 {
			b.Bound.Remove(b.frees[k+1])
		}
	}
	b.frees = b.frees[:base]
	return false
}
