// Package fd implements functional dependencies: closure computation,
// implication, equivalence, covers, derivations and candidate keys.
//
// Throughout, attribute sets come from internal/attrset and a set of FDs is
// the slice type List. The package implements the classical theory the paper
// builds on (Armstrong [A]; Beeri–Honeyman [BH]; Maier–Mendelzon–Sagiv
// [MMS]).
package fd

import (
	"fmt"
	"sort"
	"strings"

	"indep/internal/attrset"
)

// FD is a functional dependency LHS → RHS.
type FD struct {
	LHS attrset.Set
	RHS attrset.Set
}

// New builds an FD.
func New(lhs, rhs attrset.Set) FD { return FD{LHS: lhs, RHS: rhs} }

// Trivial reports whether the FD is trivial (RHS ⊆ LHS).
func (f FD) Trivial() bool { return f.RHS.SubsetOf(f.LHS) }

// Attrs returns LHS ∪ RHS.
func (f FD) Attrs() attrset.Set { return f.LHS.Union(f.RHS) }

// EmbeddedIn reports whether the FD is embedded in scheme r (LHS∪RHS ⊆ r).
func (f FD) EmbeddedIn(r attrset.Set) bool { return f.Attrs().SubsetOf(r) }

// Format renders the FD using a universe's attribute names.
func (f FD) Format(u *attrset.Universe) string {
	return fmt.Sprintf("%s -> %s", u.Format(f.LHS, " "), u.Format(f.RHS, " "))
}

// List is a set of functional dependencies.
type List []FD

// Format renders the list as "A -> B; B C -> D".
func (l List) Format(u *attrset.Universe) string {
	parts := make([]string, len(l))
	for i, f := range l {
		parts[i] = f.Format(u)
	}
	return strings.Join(parts, "; ")
}

// Attrs returns the union of all attributes mentioned by the list.
func (l List) Attrs() attrset.Set {
	var s attrset.Set
	for _, f := range l {
		s = s.Union(f.Attrs())
	}
	return s
}

// Split returns an equivalent list in which every FD has a single-attribute
// right-hand side and no trivial FDs remain.
func (l List) Split() List {
	var out List
	for _, f := range l {
		f.RHS.Diff(f.LHS).ForEach(func(a int) bool {
			out = append(out, FD{LHS: f.LHS, RHS: attrset.Of(a)})
			return true
		})
	}
	return out
}

// Clone returns a copy of the list.
func (l List) Clone() List {
	out := make(List, len(l))
	copy(out, l)
	return out
}

// Dedupe removes duplicate FDs (same LHS and RHS), preserving order.
func (l List) Dedupe() List {
	seen := make(map[FD]bool, len(l))
	out := make(List, 0, len(l))
	for _, f := range l {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// EmbeddedIn returns the sublist of FDs embedded in scheme r.
func (l List) EmbeddedIn(r attrset.Set) List {
	var out List
	for _, f := range l {
		if f.EmbeddedIn(r) {
			out = append(out, f)
		}
	}
	return out
}

// Sort orders the list deterministically (by LHS then RHS under
// attrset.Less); used for stable output.
func (l List) Sort() {
	sort.Slice(l, func(i, j int) bool {
		if l[i].LHS != l[j].LHS {
			return attrset.Less(l[i].LHS, l[j].LHS)
		}
		return attrset.Less(l[i].RHS, l[j].RHS)
	})
}

// Parse reads a semicolon- or newline-separated list of FDs, such as
// "A B -> C; C -> D", resolving attribute names in u. Unknown attribute
// names are an error (FDs must live inside a known universe).
func Parse(u *attrset.Universe, src string) (List, error) {
	var out List
	decls := strings.FieldsFunc(src, func(r rune) bool { return r == ';' || r == '\n' })
	for _, d := range decls {
		d = strings.TrimSpace(d)
		if d == "" {
			continue
		}
		arrow := strings.Index(d, "->")
		if arrow < 0 {
			return nil, fmt.Errorf("fd: missing -> in %q", d)
		}
		lhs, err := parseAttrs(u, d[:arrow])
		if err != nil {
			return nil, fmt.Errorf("fd: %q: %v", d, err)
		}
		rhs, err := parseAttrs(u, d[arrow+2:])
		if err != nil {
			return nil, fmt.Errorf("fd: %q: %v", d, err)
		}
		if lhs.IsEmpty() || rhs.IsEmpty() {
			return nil, fmt.Errorf("fd: empty side in %q", d)
		}
		out = append(out, FD{LHS: lhs, RHS: rhs})
	}
	return out, nil
}

func parseAttrs(u *attrset.Universe, s string) (attrset.Set, error) {
	var set attrset.Set
	for _, f := range strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	}) {
		i, ok := u.Index(f)
		if !ok {
			return set, fmt.Errorf("unknown attribute %q", f)
		}
		set.Add(i)
	}
	return set, nil
}

// MustParse is Parse that panics on error; intended for tests and examples.
func MustParse(u *attrset.Universe, src string) List {
	l, err := Parse(u, src)
	if err != nil {
		panic(err)
	}
	return l
}
