// Package independence implements the paper's core contribution: the
// polynomial-time decision procedure for schema independence with respect
// to a set of functional dependencies and the join dependency of the
// database schema (Theorems 2–5), together with explicit counterexample
// states for every way a schema can fail to be independent.
//
// The decision procedure (Decide) follows Theorem 2:
//
//  1. Test that D embeds a cover H of the FDs implied by Σ = F ∪ {*D}
//     (Section 3, via internal/infer). Failure yields a Lemma 3 witness.
//  2. Run "The Loop" (Section 4) on H for every scheme R_l. A rejection
//     yields a Theorem 4 witness (or a Lemma 7 witness when the rejection
//     stems from a cross-relation derivation).
//
// Acceptance is exactly independence, and then each Σ_i is covered by the
// embedded FDs H_i assigned to R_i — which is what makes single-relation
// maintenance sound (internal/maintenance).
package independence

import (
	"fmt"

	"indep/internal/attrset"
	"indep/internal/fd"
	"indep/internal/infer"
	"indep/internal/schema"
	"indep/internal/tableau"
)

// lhsID identifies a left-hand side: the paper distinguishes appearances of
// the same attribute set as an l.h.s. of distinct schemes.
type lhsID struct {
	Scheme int
	Set    attrset.Set
}

// RejectSite says which line of The Loop rejected.
type RejectSite int

const (
	// RejectLine4 is the paper's line 4: an attribute of X*_new is already
	// available through a different (inequivalent) calculation.
	RejectLine4 RejectSite = iota
	// RejectLine5 is the paper's line 5: equivalent left-hand sides X ≡ Y
	// disagree on their newly computed attributes.
	RejectLine5
)

func (r RejectSite) String() string {
	if r == RejectLine4 {
		return "line 4"
	}
	return "line 5"
}

// Rejection captures everything needed to explain (and witness) a Loop
// rejection.
type Rejection struct {
	Site     RejectSite
	Analyzed int         // the scheme R_l being analyzed
	Scheme   int         // the scheme owning the rejected l.h.s.
	LHS      attrset.Set // the l.h.s. X picked at this iteration
	EquivLHS attrset.Set // line 5 only: the equivalent l.h.s. Y
	Attr     int         // the offending available attribute A
	Star     attrset.Set // X* (line 4) or Y* (line 5) local closure
	StarNew  attrset.Set // X*_new (line 4) or Y*−Y*_old (line 5)
	TabLHS   tableau.T   // T(X) (line 4) or T(Y) (line 5)
	TabAttr  tableau.T   // T(A)
}

// IterationTrace records one iteration of The Loop for diagnostics.
type IterationTrace struct {
	Scheme  int
	LHS     attrset.Set
	StarOld attrset.Set
	StarNew attrset.Set
	Equiv   []attrset.Set
	Weaker  []attrset.Set
}

// loopRun holds the state of one run of The Loop for a fixed scheme R_l.
type loopRun struct {
	s     *schema.Schema
	cover infer.AssignedList
	l     int

	lhss      []lhsID
	localClo  map[lhsID]attrset.Set // X* = closure of X under F_i
	available attrset.Set
	tAttr     map[int]tableau.T
	tLHS      map[lhsID]tableau.T
	hasTab    map[lhsID]bool
	processed map[lhsID]bool

	Trace []IterationTrace
}

// newLoopRun prepares a run of The Loop analyzing scheme l.
func newLoopRun(s *schema.Schema, cover infer.AssignedList, l int) *loopRun {
	r := &loopRun{
		s:         s,
		cover:     cover,
		l:         l,
		localClo:  make(map[lhsID]attrset.Set),
		tAttr:     make(map[int]tableau.T),
		tLHS:      make(map[lhsID]tableau.T),
		hasTab:    make(map[lhsID]bool),
		processed: make(map[lhsID]bool),
	}
	// Collect the left-hand sides of every scheme other than R_l (the paper
	// constructs tableaux only "for each l.h.s. X of each R_j (j ≠ l)").
	seen := make(map[lhsID]bool)
	for _, a := range cover {
		if a.Scheme == l {
			continue
		}
		if a.RHS.SubsetOf(a.LHS) {
			continue // trivial FDs induce no l.h.s.
		}
		id := lhsID{Scheme: a.Scheme, Set: a.LHS}
		if !seen[id] {
			seen[id] = true
			r.lhss = append(r.lhss, id)
			r.localClo[id] = fd.Closure(cover.ForScheme(a.Scheme), a.LHS)
		}
	}
	// Deterministic processing order.
	sortLHSIDs(r.lhss)
	// Initialization: the attributes of R_l are available with empty
	// tableaux.
	r.available = s.Attrs(l)
	r.available.ForEach(func(a int) bool {
		r.tAttr[a] = tableau.T{}
		return true
	})
	r.refreshTableaux()
	return r
}

func sortLHSIDs(ids []lhsID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if b.Scheme < a.Scheme || (b.Scheme == a.Scheme && attrset.Less(b.Set, a.Set)) {
				ids[j-1], ids[j] = b, a
			} else {
				break
			}
		}
	}
}

// refreshTableaux freezes T(X) for every l.h.s. that has just become
// available: T(X) = ∪_{A∈X} T(A) ∪ {X*-row}.
func (r *loopRun) refreshTableaux() {
	for _, id := range r.lhss {
		if r.hasTab[id] || !id.Set.SubsetOf(r.available) {
			continue
		}
		t := tableau.T{}
		id.Set.ForEach(func(a int) bool {
			t = t.Union(r.tAttr[a])
			return true
		})
		t = t.Add(tableau.Row{Tag: id.Scheme, DVs: r.localClo[id]})
		r.tLHS[id] = t
		r.hasTab[id] = true
	}
}

// candidates returns the available, unprocessed left-hand sides.
func (r *loopRun) candidates() []lhsID {
	var out []lhsID
	for _, id := range r.lhss {
		if r.hasTab[id] && !r.processed[id] {
			out = append(out, id)
		}
	}
	return out
}

// pickWeakest returns a minimal candidate under the strict weakness order.
func (r *loopRun) pickWeakest(cands []lhsID) lhsID {
	for _, c := range cands {
		minimal := true
		for _, d := range cands {
			if d != c && tableau.Lt(r.tLHS[d], r.tLHS[c]) {
				minimal = false
				break
			}
		}
		if minimal {
			return c
		}
	}
	return cands[0] // unreachable: some candidate is always minimal
}

// Run executes The Loop for scheme R_l. It returns nil on acceptance or a
// Rejection describing the failure.
func (r *loopRun) Run() *Rejection {
	for {
		cands := r.candidates()
		if len(cands) == 0 {
			return nil // accept
		}
		x := r.pickWeakest(cands)
		tx := r.tLHS[x]

		// (1)–(2) E(X): available l.h.s. of the same scheme equivalent to X;
		// W(X): available l.h.s. of the same scheme strictly weaker than X.
		var equiv, weaker []lhsID
		for _, id := range r.lhss {
			if id.Scheme != x.Scheme || !r.hasTab[id] || id == x {
				continue
			}
			switch {
			case tableau.Equiv(r.tLHS[id], tx):
				equiv = append(equiv, id)
			case tableau.Lt(r.tLHS[id], tx):
				weaker = append(weaker, id)
			}
		}

		// (3) X*_old: closure of X under WF(X) = {Z → Z* | Z ∈ W(X)}.
		var wf fd.List
		for _, z := range weaker {
			wf = append(wf, fd.FD{LHS: z.Set, RHS: r.localClo[z]})
		}
		xStar := r.localClo[x]
		xOld := fd.Closure(wf, x.Set)
		xNew := xStar.Diff(xOld)

		tr := IterationTrace{Scheme: x.Scheme, LHS: x.Set, StarOld: xOld, StarNew: xNew}
		for _, e := range equiv {
			tr.Equiv = append(tr.Equiv, e.Set)
		}
		for _, w := range weaker {
			tr.Weaker = append(tr.Weaker, w.Set)
		}
		r.Trace = append(r.Trace, tr)

		// (4) Every attribute of X*_new must be fresh (not yet available):
		// otherwise the function R_l → A has two inequivalent calculations.
		if bad := xNew.Intersect(r.available); !bad.IsEmpty() {
			a := bad.First()
			return &Rejection{
				Site:     RejectLine4,
				Analyzed: r.l,
				Scheme:   x.Scheme,
				LHS:      x.Set,
				Attr:     a,
				Star:     xStar,
				StarNew:  xNew,
				TabLHS:   tx,
				TabAttr:  r.tAttr[a],
			}
		}

		// (5) Every equivalent l.h.s. must compute the same new attributes.
		for _, y := range equiv {
			yStar := r.localClo[y]
			yOld := fd.Closure(wf, y.Set)
			yNew := yStar.Diff(yOld)
			if yNew != xNew {
				// Per the Theorem 4 Case 2 analysis, some attribute
				// A ∈ X*_old − Y*_old is available and lies in Y* = X*:
				// picking Y first would have rejected at line 4 with A.
				a := xOld.Diff(yOld).Intersect(yStar).First()
				if a < 0 {
					// Defensive: fall back to any available attr of yNew.
					a = yNew.Intersect(r.available).First()
				}
				return &Rejection{
					Site:     RejectLine5,
					Analyzed: r.l,
					Scheme:   y.Scheme,
					LHS:      x.Set,
					EquivLHS: y.Set,
					Attr:     a,
					Star:     yStar,
					StarNew:  yNew,
					TabLHS:   r.tLHS[y],
					TabAttr:  r.tAttr[a],
				}
			}
		}

		// (6) The new attributes become available with tableau T(X).
		xNew.ForEach(func(a int) bool {
			r.available.Add(a)
			r.tAttr[a] = tx
			return true
		})

		// (7) Newly available l.h.s. get their tableaux.
		r.refreshTableaux()

		// (8) Mark processed every (still unprocessed) l.h.s. Z of the same
		// scheme with Z* ⊆ X* — including X itself.
		for _, id := range r.lhss {
			if id.Scheme == x.Scheme && !r.processed[id] && r.localClo[id].SubsetOf(xStar) {
				r.processed[id] = true
			}
		}
		if !r.processed[x] {
			panic("independence: picked l.h.s. not marked processed") // X* ⊆ X* always holds
		}
	}
}

// RunLoop runs The Loop for scheme l over an embedded cover and returns the
// rejection, if any, plus the iteration trace.
func RunLoop(s *schema.Schema, cover infer.AssignedList, l int) (*Rejection, []IterationTrace) {
	r := newLoopRun(s, cover, l)
	rej := r.Run()
	return rej, r.Trace
}

// LoopAccepts runs The Loop for every scheme of D given an embedded cover
// and returns each scheme's accepted run, indexed by scheme, or the first
// rejection (Theorem 3 conditions (1)–(4) ⇔ acceptance).
func LoopAccepts(s *schema.Schema, cover infer.AssignedList) ([]*AcceptedRun, *Rejection) {
	runs := make([]*AcceptedRun, len(s.Rels))
	for l := range s.Rels {
		run, rej := PrepareExtension(s, cover, l)
		if rej != nil {
			return nil, rej
		}
		runs[l] = run
	}
	return runs, nil
}

// CrossDerivation reports whether the hypothesis of Lemma 7 holds for the
// assigned cover: some attribute A of some scheme R_i has a nonredundant
// derivation of (R_i − A) → A from F that avoids F_i entirely (equivalently,
// uses an FD of some F_j, j ≠ i). On success it returns the scheme, the
// attribute, and the pruned derivation restricted to foreign FDs.
func CrossDerivation(s *schema.Schema, cover infer.AssignedList) (schemeIdx, attr int, deriv fd.List, found bool) {
	for i, rel := range s.Rels {
		foreign := cover.NotInScheme(i)
		var hit bool
		rel.Attrs.ForEach(func(a int) bool {
			x := rel.Attrs.Without(a)
			if x.IsEmpty() {
				return true
			}
			d, ok := fd.Derive(foreign.Split(), x, a)
			if ok && len(d) > 0 {
				schemeIdx, attr, deriv, found, hit = i, a, d, true, true
				return false
			}
			return true
		})
		if hit {
			return schemeIdx, attr, deriv, true
		}
	}
	return 0, 0, nil, false
}

func (rej *Rejection) String() string {
	return fmt.Sprintf("rejected at %s analyzing scheme %d: lhs %v of scheme %d, attr %d",
		rej.Site, rej.Analyzed, rej.LHS.Attrs(), rej.Scheme, rej.Attr)
}
