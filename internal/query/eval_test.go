package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"indep/internal/attrset"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/workload"
)

// perRowWindow is the fast-path window as evaluated before extension keys
// and the answer builder: every probed row of every contributor extends,
// and the answer deduplicates through Instance.Add. It is the oracle the
// two facts the plan compiles — each contributor's extension key, and
// whether the plan can repeat a row — are checked against.
func perRowWindow(p *Plan, st *relation.State, sel []Cond) *relation.Instance {
	out := relation.NewInstance(p.X)
	cols := p.X.Attrs()
	proj := make(relation.Tuple, len(cols))
	var sc independence.Scratch
	for i, l := range p.Schemes {
		inst := st.Insts[l]
		slots, outer := probe(inst, sel)
		if p.X.SubsetOf(inst.Attrs) {
			colPos := relation.ProjectionCols(inst.Attrs, p.X)
			for _, s := range slots {
				for j, c := range colPos {
					proj[j] = inst.At(s, c)
				}
				out.Add(proj)
			}
			continue
		}
		run := p.runs[i]
	rows:
		for _, s := range slots {
			row := inst.AppendRow(nil, s)
			for _, c := range sel {
				if outer.Has(c.Attr) &&
					(!run.ExtendFor(st, row, attrset.Of(c.Attr), &sc) || sc.Ext[c.Attr] != c.Val) {
					continue rows
				}
			}
			if !run.ExtendFor(st, row, p.X.Diff(outer), &sc) {
				continue
			}
			for j, a := range cols {
				proj[j] = sc.Ext[a]
			}
			out.Add(proj)
		}
	}
	return out
}

// twoKeys is a schema whose window [B D] has two contributors, R1 and R2,
// and no other: they group their rows on keys over different attributes,
// {A,B} and {B,C}, whose values twoKeysState draws from one small domain.
func twoKeys() (design, attrset.Set) {
	s := schema.MustParse("R1(A,B,Z); R2(C,B,W); R3(A,D); R4(C,D)")
	return design{s, fd.MustParse(s.U, "A -> D; C -> D")}, s.U.Set("B", "D")
}

// twoKeysState draws a satisfying state of twoKeys: six random rows in R1
// and R2 over values 0–2, and R3 and R4 random functions of A and C.
func twoKeysState(r *rand.Rand, s *schema.Schema) *relation.State {
	st := relation.NewState(s)
	v := func() relation.Value { return relation.Value(r.Intn(3)) }
	for i := 0; i < 6; i++ {
		st.Insts[0].Add(relation.Tuple{v(), v(), v()})
		st.Insts[1].Add(relation.Tuple{v(), v(), v()})
	}
	for k := relation.Value(0); k < 3; k++ {
		st.Insts[2].Add(relation.Tuple{k, v()})
		st.Insts[3].Add(relation.Tuple{k, v()})
	}
	return st
}

// TestExtendedCountsExtensionKeys pins evalFast's grouping on extension
// keys over a fixed state of twoKeys, whose contributors' keys {A,B} and
// {B,C} are narrower than their schemes: each contributor extends one of
// its probed rows per distinct key value, while every probed row counts as
// scanned.
func TestExtendedCountsExtensionKeys(t *testing.T) {
	d, x := twoKeys()
	st := relation.NewState(d.s)
	for _, row := range []relation.Tuple{{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {1, 0, 0}, {1, 1, 0}} {
		st.Insts[0].Add(row) // R1(A,B,Z): {A,B} is (0,0), (1,0) or (1,1)
	}
	for _, row := range []relation.Tuple{{0, 0, 0}, {0, 0, 1}} {
		st.Insts[1].Add(row) // R2 as (B,C,W): {B,C} is (0,0)
	}
	st.Insts[2].Add(relation.Tuple{0, 5})
	st.Insts[2].Add(relation.Tuple{1, 6})
	st.Insts[3].Add(relation.Tuple{0, 5})
	ev := newEvaluator(t, d.s, d.fds)
	for _, c := range []struct {
		sel  []Cond
		want [2][2]int // per scheme R1, R2: scanned, extended
		rows int
	}{
		{nil, [2][2]int{{5, 3}, {2, 1}}, 3},
		{[]Cond{{Attr: d.s.U.MustIndex("B"), Val: 0}}, [2][2]int{{4, 2}, {2, 1}}, 2},
	} {
		res, err := ev.Query(st, x, c.sel)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fast || len(res.Plan.Schemes) != 2 || res.Rows.Len() != c.rows {
			t.Fatalf("where %v: fast %v, contributors %v, %d rows; want the fast path, R1 and R2, %d rows",
				c.sel, res.Fast, res.Plan.Schemes, res.Rows.Len(), c.rows)
		}
		for i, l := range res.Plan.Schemes {
			if got := [2]int{res.Scanned[i], res.Extended[i]}; got != c.want[l] {
				t.Fatalf("where %v: %s scanned %d and extended %d rows, want %d and %d",
					c.sel, d.s.Name(l), got[0], got[1], c.want[l][0], c.want[l][1])
			}
		}
	}
}

// TestWindowMatchesPerRowOracleRandom evaluates windows, selected and not,
// over random states: twoKeys's [B D], and random windows of 200 random
// independent schemas. It checks each answer against perRowWindow: the
// same rows, each once. Where
// the plan skips deduplication no answer row may repeat. It also counts
// the cases that can tell a wrong plan from a right one, so the test
// cannot pass vacuously: probed rows of one contributor sharing an
// extension key (grouped), sharing their values on X but not on the key
// (a key without the consulted rows' DVs would merge them), and two
// contributors giving the same answer row (a plan that skipped
// deduplication there would repeat it).
func TestWindowMatchesPerRowOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	var grouped, split, shared, windows int
	fixed, fixedX := twoKeys()
	for i, d := range append([]design{fixed}, randomIndependent(t, r, 200)...) {
		s := d.s
		ev := newEvaluator(t, s, d.fds)
		if !ev.Fast() {
			t.Fatalf("%s: expected an independent schema", s)
		}
		rounds := 2
		if i == 0 {
			rounds = 10
		}
		for round := 0; round < rounds; round++ {
			var st *relation.State
			if i == 0 {
				st = twoKeysState(r, s)
			} else {
				st = workload.LocalState(r, s, d.fds, 6, 3, 30)
			}
			if st == nil {
				continue
			}
			for k := 0; k < 6; k++ {
				var x attrset.Set
				if i == 0 {
					x = fixedX
				}
				for x.IsEmpty() {
					for a := 0; a < s.U.Size(); a++ {
						if r.Intn(3) == 0 {
							x.Add(a)
						}
					}
				}
				var sel []Cond
				if k%2 == 1 {
					for _, a := range x.Attrs() {
						if r.Intn(3) == 0 {
							sel = append(sel, Cond{Attr: a, Val: relation.Value(r.Intn(3))})
						}
					}
				}
				res, err := ev.Query(st, x, sel)
				if err != nil {
					t.Fatal(err)
				}
				windows++
				p := res.Plan
				want := perRowWindow(p, st, sel)
				seen := relation.NewInstance(x)
				for _, tu := range res.Rows.Rows() {
					if !seen.Add(tu) {
						t.Fatalf("%s: window [%s] where %v repeats row %v (plan deduplicates: %v)",
							s, s.U.Format(x, " "), sel, tu, p.distinct)
					}
				}
				if !sameInstance(res.Rows, want) || !sameInstance(want, res.Rows) {
					t.Fatalf("%s: window [%s] where %v over\n%s\ngot  %v\nwant %v",
						s, s.U.Format(x, " "), sel, st, res.Rows.Rows(), want.Rows())
				}
				g, sp := keyCases(p, st, sel)
				grouped += g
				split += sp
				if len(p.Schemes) > 1 && sharesRow(p, st, sel) {
					shared++
				}
			}
		}
	}
	t.Logf("%d windows: %d with grouped rows, %d with rows split by a DV key, %d with a row two contributors give",
		windows, grouped, split, shared)
	if grouped == 0 || split == 0 || shared == 0 {
		t.Fatalf("the random cases never exercised a plan fact: grouped %d, split %d, shared %d", grouped, split, shared)
	}
}

// keyCases reports, for the extending contributors of p whose key is
// narrower than their scheme, whether two probed rows share a key
// (grouped) and whether two agree on X ∩ R_l while their keys differ
// (split).
func keyCases(p *Plan, st *relation.State, sel []Cond) (grouped, split int) {
	for i, l := range p.Schemes {
		inst := st.Insts[l]
		if p.X.SubsetOf(inst.Attrs) || p.keys[i] == inst.Attrs {
			continue
		}
		slots, _ := probe(inst, sel)
		keys := relation.NewInstance(p.keys[i])
		onX := map[string]relation.Tuple{}
		for _, s := range slots {
			row := inst.AppendRow(nil, s)
			key := project(inst.Attrs, p.keys[i], row)
			if !keys.Add(key) {
				grouped = 1
			}
			xk := project(inst.Attrs, p.X.Intersect(inst.Attrs), row)
			if prev, ok := onX[fmt.Sprint(xk)]; ok && !prev.Equal(key) {
				split = 1
			}
			onX[fmt.Sprint(xk)] = key
		}
	}
	return grouped, split
}

// sharesRow reports whether two contributors of p give a common answer row.
func sharesRow(p *Plan, st *relation.State, sel []Cond) bool {
	var parts []*relation.Instance
	for i, l := range p.Schemes {
		one := &Plan{X: p.X, Fast: true, Schemes: []int{l}, runs: p.runs[i : i+1]}
		parts = append(parts, perRowWindow(one, st, sel))
	}
	for i := range parts {
		for _, tu := range parts[i].Rows() {
			for j := i + 1; j < len(parts); j++ {
				if parts[j].Has(tu) {
					return true
				}
			}
		}
	}
	return false
}

// project returns row's values, over the scheme attrs, on sub.
func project(attrs, sub attrset.Set, row relation.Tuple) relation.Tuple {
	var out relation.Tuple
	for _, c := range relation.ProjectionCols(attrs, sub) {
		out = append(out, row[c])
	}
	return out
}

// relevantPlan is p with every relevant contributor kept: each scheme
// whose extensions can reach all of X, subsumed or not, as plans were
// compiled before subsumed contributors were dropped.
func relevantPlan(ev *Evaluator, p *Plan) *Plan {
	full := &Plan{X: p.X, Fast: true, distinct: true}
	for l, run := range ev.runs {
		if p.X.SubsetOf(run.Available()) {
			full.Schemes = append(full.Schemes, l)
			full.runs = append(full.runs, run)
		}
	}
	full.consults = planConsults(ev.s, full)
	return full
}

// TestSubsumedContributorsAddNoRow checks that dropping subsumed
// contributors changes no window: over random states of 200 random
// independent schemas, every window, selected and not, equals both the
// evaluation of every relevant contributor and the filtered chase oracle.
// Half the windows lie inside a random scheme, where a contributor can be
// subsumed. The test fails unless some plans dropped a contributor, and
// unless some dropped contributor had answer rows of its own, which the
// kept ones then gave.
func TestSubsumedContributorsAddNoRow(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	var windows, dropped, droppedRows int
	for _, d := range randomIndependent(t, r, 200) {
		s := d.s
		ev := newEvaluator(t, s, d.fds)
		for round := 0; round < 2; round++ {
			st := workload.LocalState(r, s, d.fds, 6, 3, 30)
			if st == nil {
				continue
			}
			for k := 0; k < 8; k++ {
				var x attrset.Set
				within := s.U.All()
				if k < 4 {
					within = s.Attrs(r.Intn(s.Size()))
				}
				for x.IsEmpty() {
					for _, a := range within.Attrs() {
						if r.Intn(2) == 0 {
							x.Add(a)
						}
					}
				}
				var sel []Cond
				if k%2 == 1 {
					for _, a := range x.Attrs() {
						if r.Intn(3) == 0 {
							sel = append(sel, Cond{Attr: a, Val: relation.Value(r.Intn(4))})
						}
					}
				}
				res, err := ev.Query(st, x, sel)
				if err != nil {
					t.Fatal(err)
				}
				windows++
				full := relevantPlan(ev, res.Plan)
				all, _, _ := evalFast(full, st, sel)
				oracle := filterWindow(oracleWindow(t, s, d.fds, st, x), sel)
				if !sameInstance(res.Rows, all) || !sameInstance(res.Rows, oracle) {
					t.Fatalf("%s: window [%s] where %v over\n%s\nplan %v of %v\ngot    %v\nall    %v\noracle %v",
						s, s.U.Format(x, " "), sel, st, res.Plan.Schemes, full.Schemes,
						res.Rows.Rows(), all.Rows(), oracle.Rows())
				}
				if len(full.Schemes) == len(res.Plan.Schemes) {
					continue
				}
				dropped++
				for i, l := range full.Schemes {
					if slices.Contains(res.Plan.Schemes, l) {
						continue
					}
					one := &Plan{X: x, Fast: true, Schemes: []int{l}, runs: full.runs[i : i+1]}
					if perRowWindow(one, st, sel).Len() > 0 {
						droppedRows++
						break
					}
				}
			}
		}
	}
	t.Logf("%d windows: %d plans dropped a contributor, %d of them one with answer rows", windows, dropped, droppedRows)
	if dropped == 0 || droppedRows == 0 {
		t.Fatalf("no plan dropped a contributor that had answer rows: %d dropped, %d with rows", dropped, droppedRows)
	}
}
