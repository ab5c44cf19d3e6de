package independence

import (
	"indep/internal/attrset"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/tableau"
)

// AcceptedRun is the data an accepting Loop run leaves behind for scheme
// R_l: the available attributes of R_l⁺ and, for each, its minimal
// calculation T(A). Theorem 5 turns these into a constructive extension
// procedure: any tuple of r_l extends to a universal tuple whose determined
// attributes are computed by valuations of the T(A), and adding the
// extension's projections to a locally satisfying state keeps it locally
// satisfying — which is how the paper proves accepted schemas independent.
type AcceptedRun struct {
	s         *schema.Schema
	l         int
	available attrset.Set
	tAttr     map[int]tableau.T
}

// PrepareExtension runs The Loop for scheme l and, on acceptance, returns
// the extension data. On rejection it returns the rejection instead.
func PrepareExtension(s *schema.Schema, cover infer.AssignedList, l int) (*AcceptedRun, *Rejection) {
	run := newLoopRun(s, cover, l)
	if rej := run.Run(); rej != nil {
		return nil, rej
	}
	return &AcceptedRun{s: s, l: l, available: run.available, tAttr: run.tAttr}, nil
}

// Scheme returns the index of the analyzed scheme R_l.
func (ar *AcceptedRun) Scheme() int { return ar.l }

// Available returns R_l⁺'s available attributes (those with a minimal
// calculation).
func (ar *AcceptedRun) Available() attrset.Set { return ar.available }

// Tableau returns T(A), the minimal calculation of the available attribute
// a, without copying it: callers must not modify it. It is empty for
// an attribute of R_l and nil for one not available.
func (ar *AcceptedRun) Tableau(a int) tableau.T { return ar.tAttr[a] }

// ExtendTuple extends a tuple t of r_l to a universal tuple ī following
// Theorem 5: for every available attribute A, if some valuation from T(A)
// to the state agrees with t, ī[A] is the image of A's distinguished
// variable under it (by Lemma 10 every such valuation gives the same
// value); otherwise — and for unavailable attributes — ī[A] is a fresh
// value, returned as a distinct negative placeholder. The returned
// `determined` set holds the attributes that received state constants.
func (ar *AcceptedRun) ExtendTuple(st *relation.State, t relation.Tuple) (relation.Tuple, attrset.Set) {
	cols := ar.s.Attrs(ar.l).Attrs()
	anchor := tableau.Valuation{}
	for j, a := range cols {
		anchor[a] = t[j]
	}
	n := ar.s.U.Size()
	out := make(relation.Tuple, n)
	var determined attrset.Set
	fresh := relation.Value(-1)
	for c := 0; c < n; c++ {
		if v, ok := anchor[c]; ok {
			out[c] = v
			determined.Add(c)
			continue
		}
		if ar.available.Has(c) {
			if val, ok := tableau.FindValuation(ar.tAttr[c], st, anchor); ok {
				if v, bound := val[c]; bound {
					out[c] = v
					determined.Add(c)
					continue
				}
			}
		}
		out[c] = fresh
		fresh--
	}
	return out, determined
}

// Scratch is ExtendFor's reusable working memory; Ext[A] holds the ī[A]
// it computed, indexed by universe column.
type Scratch struct {
	Ext []relation.Value
	b   tableau.Binding
}

// ExtendFor is ExtendTuple restricted to want: it computes ī[A] into
// sc.Ext for R_l and for A in want \ R_l, stopping at the first A no
// valuation determines, and reports whether all of want is determined.
// Reusing sc makes it allocation-free.
func (ar *AcceptedRun) ExtendFor(st *relation.State, t relation.Tuple, want attrset.Set, sc *Scratch) bool {
	n := ar.s.U.Size()
	if len(sc.Ext) < n {
		sc.Ext = make([]relation.Value, n)
	}
	sc.b.Reset(n)
	rl := ar.s.Attrs(ar.l)
	for a, j := 0, 0; j < len(t); a++ {
		if rl.Has(a) {
			sc.Ext[a] = t[j]
			sc.b.Bind(a, t[j])
			j++
		}
	}
	for a := 0; a < n; a++ {
		if !want.Has(a) || rl.Has(a) {
			continue
		}
		if !ar.available.Has(a) || !sc.b.Find(ar.tAttr[a], st) || !sc.b.Bound.Has(a) {
			return false
		}
		sc.Ext[a] = sc.b.Val[a]
		sc.b.Bound = rl // back to the anchor; its values are untouched
	}
	return true
}

// Consulted returns the rows of the minimal calculations of want \ R_l:
// their tags are the schemes ExtendFor(want) may read, so R_l itself only
// if one of those tableaux references it. A valuation maps a row's
// distinguished columns to ī's values there, so a tuple ExtendFor reads
// through a row agrees with ī on that row's DVs — and, the other columns
// holding nondistinguished variables, on no more in general. The result is
// a sorted, duplicate-free tableau; a scatter-gather evaluator fetches
// exactly the relations it tags.
func (ar *AcceptedRun) Consulted(want attrset.Set) tableau.T {
	var rows tableau.T
	for a, t := range ar.tAttr {
		if !want.Has(a) || ar.s.Attrs(ar.l).Has(a) {
			continue
		}
		rows = rows.Union(t)
	}
	return rows
}

// Complete adds to every relation of the state the projection of the
// extension of each tuple of r_l, restricted to determined attributes'
// schemes... More precisely, per the paper's induction: for a dangling
// tuple t of r_l, its universal extension ī is computed and ī[R_i] is added
// to every r_i (fresh placeholders are materialized as new constants).
// The returned state is the input state enlarged; when the Loop accepted
// every scheme, iterating Complete over dangling tuples converges to a
// join-consistent state whose join is a weak instance.
func (ar *AcceptedRun) Complete(st *relation.State, t relation.Tuple) *relation.State {
	ext, _ := ar.ExtendTuple(st, t)
	// Materialize fresh placeholders as new constants above any existing
	// value.
	var maxV relation.Value
	for _, in := range st.Insts {
		live := in.LiveMask()
		for c := 0; c < in.Width(); c++ {
			for s, v := range in.Col(c) {
				if live[s] && v > maxV {
					maxV = v
				}
			}
		}
	}
	next := maxV + 1
	for c, v := range ext {
		if v < 0 {
			ext[c] = next
			next++
		}
	}
	out := st.Clone()
	for i, rel := range ar.s.Rels {
		cols := rel.Attrs.Attrs()
		tu := make(relation.Tuple, len(cols))
		for j, a := range cols {
			tu[j] = ext[a]
		}
		out.Insts[i].Add(tu)
	}
	return out
}
