package query

import (
	"math/rand"
	"strings"
	"testing"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/workload"
)

// newEvaluator decides independence and builds an evaluator, failing the
// test on analysis errors.
func newEvaluator(t *testing.T, s *schema.Schema, fds fd.List) *Evaluator {
	t.Helper()
	res, err := independence.Decide(s, fds)
	if err != nil {
		t.Fatal(err)
	}
	return NewEvaluator(s, fds, res, chase.DefaultCaps)
}

// oracleWindow computes the window by the definition: chase the padded
// state to the representative instance, take the X-total projection.
func oracleWindow(t *testing.T, s *schema.Schema, fds fd.List, st *relation.State, x attrset.Set) *relation.Instance {
	t.Helper()
	e := chase.NewEngine(s.U)
	e.PadState(st)
	var jd *schema.Schema
	if !infer.AllEmbedded(s, fds) {
		jd = s
	}
	if err := e.Chase(fds, jd, chase.DefaultCaps); err != nil {
		t.Fatal(err)
	}
	return e.TotalProjection(x)
}

// sameInstance reports whether two instances hold the same tuple set.
func sameInstance(a, b *relation.Instance) bool {
	if a.Attrs != b.Attrs || a.Len() != b.Len() {
		return false
	}
	for _, t := range a.Rows() {
		if !b.Has(t) {
			return false
		}
	}
	return true
}

// example2State builds a satisfying state over the paper's Example 2
// schema CT(C,T); CS(C,S); CHR(C,H,R).
func example2State(s *schema.Schema) *relation.State {
	st := relation.NewState(s)
	st.AddNamed("CT", map[string]string{"C": "cs101", "T": "jones"})
	st.AddNamed("CT", map[string]string{"C": "cs102", "T": "curie"})
	st.AddNamed("CS", map[string]string{"C": "cs101", "S": "ada"})
	st.AddNamed("CS", map[string]string{"C": "cs101", "S": "bob"})
	st.AddNamed("CS", map[string]string{"C": "cs999", "S": "eve"})
	st.AddNamed("CHR", map[string]string{"C": "cs101", "H": "mon9", "R": "r12"})
	return st
}

func TestWindowIndependentFastPath(t *testing.T) {
	s, fds := workload.Example2()
	ev := newEvaluator(t, s, fds)
	if !ev.Fast() {
		t.Fatal("Example 2 is independent; evaluator must take the fast path")
	}
	st := example2State(s)

	u := s.U
	cases := []struct {
		attrs string
		want  int
	}{
		{"C T", 2},   // local projection of CT
		{"C S", 3},   // local projection of CS
		{"C S T", 2}, // extension join: eve's cs999 has no teacher
		{"S T", 2},   // ada and bob both map to jones; eve has no teacher
		{"C H R T", 1},
		{"T", 2},
	}
	for _, c := range cases {
		x := u.Set(strings.Fields(c.attrs)...)
		res, err := ev.Window(st, x)
		if err != nil {
			t.Fatalf("window [%s]: %v", c.attrs, err)
		}
		if !res.Fast {
			t.Fatalf("window [%s] should be fast", c.attrs)
		}
		if res.Rows.Len() != c.want {
			t.Fatalf("window [%s] = %d rows, want %d", c.attrs, res.Rows.Len(), c.want)
		}
		if oracle := oracleWindow(t, s, fds, st, x); !sameInstance(res.Rows, oracle) {
			t.Fatalf("window [%s] disagrees with the chase oracle:\nfast: %v\noracle: %v",
				c.attrs, res.Rows.Rows(), oracle.Rows())
		}
	}
}

// design is a schema with its dependencies.
type design struct {
	s   *schema.Schema
	fds fd.List
}

// randomIndependent draws random schemas with embedded FDs and keeps the
// independent ones.
func randomIndependent(t *testing.T, r *rand.Rand, n int) []design {
	t.Helper()
	var out []design
	for len(out) < n {
		s, fds := workload.Schema(r, workload.Config{
			Attrs: 6, Schemes: 3, SchemeMax: 3, FDs: 3, LHSMax: 2, Embedded: true,
			Shape: workload.Shape(r.Intn(3)),
		})
		res, err := independence.Decide(s, fds)
		if err != nil {
			t.Fatal(err)
		}
		if res.Independent {
			out = append(out, design{s, fds})
		}
	}
	return out
}

// extendWindow is the window by ExtendTuple: every row of every
// contributor of the plan extended over all available attributes, kept
// when X-total — the evaluator before selections entered the plan.
func extendWindow(p *Plan, st *relation.State) *relation.Instance {
	out := relation.NewInstance(p.X)
	for i, l := range p.Schemes {
		for _, tu := range st.Insts[l].Rows() {
			ext, det := p.runs[i].ExtendTuple(st, tu)
			if !p.X.SubsetOf(det) {
				continue
			}
			var proj relation.Tuple
			for _, a := range p.X.Attrs() {
				proj = append(proj, ext[a])
			}
			out.Add(proj)
		}
	}
	return out
}

// filterWindow keeps the rows of a window satisfying every condition.
func filterWindow(in *relation.Instance, sel []Cond) *relation.Instance {
	out := relation.NewInstance(in.Attrs)
	cols := in.Attrs.Attrs()
	for _, tu := range in.Rows() {
		ok := true
		for _, c := range sel {
			for j, a := range cols {
				if a == c.Attr && tu[j] != c.Val {
					ok = false
				}
			}
		}
		if ok {
			out.Add(tu)
		}
	}
	return out
}

// selectConsulted is the state a scatter-gather evaluator may assemble for
// the plan: each consulted scheme cut down to its tuples satisfying sel on
// the scheme's Agree attributes, every other scheme empty.
func selectConsulted(p *Plan, st *relation.State, sel []Cond) *relation.State {
	out := relation.NewState(st.Schema)
	for _, c := range p.Consults() {
		inst := st.Insts[c.Scheme]
		var kept []Cond
		for _, cond := range sel {
			if c.Agree.Has(cond.Attr) {
				kept = append(kept, cond)
			}
		}
		slots, _ := probe(inst, kept)
		for _, s := range slots {
			out.Insts[c.Scheme].Add(inst.AppendRow(nil, s))
		}
	}
	return out
}

// TestWindowMatchesOracleRandom cross-checks three evaluations of random
// selected windows over random satisfying states of independent schemas:
// Query with the selection pushed into the plan, the full ExtendTuple
// window filtered afterwards, and the filtered chase oracle. Conditions
// name seen values, values no tuple carries, and Unseen, on attributes
// inside and outside each contributor's scheme. It also evaluates each
// window over selectConsulted's state, which must not change it.
func TestWindowMatchesOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var cases []design
	for _, mk := range []func() (*schema.Schema, fd.List){workload.Example2, workload.University, freeColumn} {
		s, fds := mk()
		cases = append(cases, design{s, fds})
	}
	cases = append(cases, randomIndependent(t, r, 8)...)
	for _, c := range cases {
		s, fds := c.s, c.fds
		ev := newEvaluator(t, s, fds)
		if !ev.Fast() {
			t.Fatalf("%s: expected independent schema", s)
		}
		for round := 0; round < 10; round++ {
			st := workload.LocalState(r, s, fds, 5, 3, 200)
			if st == nil {
				continue // no locally satisfying state found this round
			}
			for k := 0; k < 8; k++ {
				var x attrset.Set
				n := s.U.Size()
				for x.IsEmpty() {
					for a := 0; a < n; a++ {
						if r.Intn(n) < 2 {
							x.Add(a)
						}
					}
				}
				var sel []Cond
				for _, a := range x.Attrs() {
					if r.Intn(3) == 0 {
						v := relation.Value(r.Intn(4)) // 3 is in no tuple
						if r.Intn(8) == 0 {
							v = Unseen
						}
						sel = append(sel, Cond{Attr: a, Val: v})
					}
				}
				res, err := ev.Query(st, x, sel)
				if err != nil {
					t.Fatalf("window: %v", err)
				}
				ext := filterWindow(extendWindow(res.Plan, st), sel)
				oracle := filterWindow(oracleWindow(t, s, fds, st, x), sel)
				if !sameInstance(res.Rows, ext) || !sameInstance(res.Rows, oracle) {
					t.Fatalf("%s: window [%s] where %v over\n%s\nquery %v\nextend %v\noracle %v",
						s, s.U.Format(x, " "), sel, st, res.Rows.Rows(), ext.Rows(), oracle.Rows())
				}
				for i, l := range res.Plan.Schemes {
					if n := st.Insts[l].Len(); res.Scanned[i] > n || sel == nil && res.Scanned[i] != n {
						t.Fatalf("%s: scanned %d of %d rows of %s", s, res.Scanned[i], n, s.Name(l))
					}
				}
				narrow, err := ev.Query(selectConsulted(res.Plan, st, sel), x, sel)
				if err != nil {
					t.Fatal(err)
				}
				if !sameInstance(res.Rows, narrow.Rows) {
					t.Fatalf("%s: window [%s] where %v over the consulted relations' agreeing tuples\n%v\nover\n%s\nwant %v",
						s, s.U.Format(x, " "), sel, narrow.Rows.Rows(), st, res.Rows.Rows())
				}
			}
		}
	}
}

// TestQuerySelectionErrors: a condition outside the window is an error.
func TestQuerySelectionErrors(t *testing.T) {
	s, fds := workload.Example2()
	ev := newEvaluator(t, s, fds)
	st := example2State(s)
	sel := []Cond{{Attr: s.U.MustIndex("S"), Val: 0}}
	if _, err := ev.Query(st, s.U.Set("C", "T"), sel); err == nil {
		t.Fatal("selection outside the window must be rejected")
	}
}

// TestPlanConsultsOnlyWindowTableaux: on a star schema a window consults
// only the relations whose tableaux its attributes need — the tableaux of
// the other dimensions' attributes are never valuated — and a dimension
// window consults that dimension alone: the fact relation reaches the
// dimension's attributes only through its rows, so it adds no answer row.
func TestPlanConsultsOnlyWindowTableaux(t *testing.T) {
	s := schema.MustParse("FACT(A,B,C); DIM1(A,E,F); DIM2(B,G); DIM3(C,H)")
	fds := fd.MustParse(s.U, "A -> E F; B -> G; C -> H")
	ev := newEvaluator(t, s, fds)
	for _, c := range []struct{ attrs, want string }{
		{"A E F", "DIM1"},
		{"A B E", "FACT DIM1"},
		{"A B C G", "FACT DIM2"},
		{"A B C", "FACT"},
		{"E G", "FACT DIM1 DIM2"},
	} {
		p, _, err := ev.Plan(s.U.Set(strings.Fields(c.attrs)...))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range p.Consults() {
			got = append(got, s.Name(c.Scheme))
		}
		if strings.Join(got, " ") != c.want {
			t.Fatalf("[%s] consults %v, want %s", c.attrs, got, c.want)
		}
	}
}

// freeColumn is U(A,B); V(A,C,B) with A -> C: the tableau row V's FD
// contributes leaves V's B free.
func freeColumn() (*schema.Schema, fd.List) {
	s := schema.MustParse("U(A,B); V(A,C,B)")
	return s, fd.MustParse(s.U, "A -> C")
}

// TestPlanConsultsAgree pins which attributes a consulted scheme's tuples
// share with the answer rows they help produce. V's A -> C tableau row has
// its DVs on A and C only: U's tuple (a,b) extends to C through any V tuple
// with A = a, whatever its B, so a selection on B may narrow U but not V.
func TestPlanConsultsAgree(t *testing.T) {
	s, fds := freeColumn()
	ev := newEvaluator(t, s, fds)
	p, _, err := ev.Plan(s.U.Set("A", "B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range p.Consults() {
		got = append(got, s.Name(c.Scheme)+":"+s.U.Format(c.Agree, ""))
	}
	if want := "U:AB V:AC"; strings.Join(got, " ") != want {
		t.Fatalf("consults %v, want %s", got, want)
	}

	st := relation.NewState(s)
	st.AddNamed("U", map[string]string{"A": "a", "B": "b1"})
	st.AddNamed("V", map[string]string{"A": "a", "C": "c", "B": "b2"})
	b1 := []Cond{{Attr: s.U.MustIndex("B"), Val: st.Dict.Value("b1")}}
	res, err := ev.Query(st, p.X, b1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 {
		t.Fatalf("[A B C] where B=b1: %d rows, want U's tuple extended through V's", res.Rows.Len())
	}
}

// TestWindowChaseFallback evaluates a window that only the global chase
// can answer: A -> C is not embedded, so the representative instance gains
// the (a,b,c) row only through the join-dependency rule.
func TestWindowChaseFallback(t *testing.T) {
	s := schema.MustParse("AB(A,B); BC(B,C)")
	fds := fd.MustParse(s.U, "A -> C")
	ev := newEvaluator(t, s, fds)
	if ev.Fast() {
		t.Fatal("A -> C is not cover-embedded; evaluator must fall back to the chase")
	}
	st := relation.NewState(s)
	st.AddNamed("AB", map[string]string{"A": "a1", "B": "b1"})
	st.AddNamed("BC", map[string]string{"B": "b1", "C": "c1"})
	st.AddNamed("AB", map[string]string{"A": "a2", "B": "b2"}) // dangling: no BC row

	x := s.U.Set("A", "C")
	res, err := ev.Window(st, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fast {
		t.Fatal("expected chase evaluation")
	}
	if res.Rows.Len() != 1 {
		t.Fatalf("window [A C] = %v, want exactly (a1,c1)", res.Rows.Rows())
	}
	want := relation.Tuple{st.Dict.Value("a1"), st.Dict.Value("c1")}
	if !res.Rows.Has(want) {
		t.Fatalf("window [A C] = %v, want %v", res.Rows.Rows(), want)
	}
}

// TestWindowNonIndependentLoopRejected exercises the fallback on a schema
// rejected by The Loop (Example 1): embedded FDs only, so the chase runs
// without the JD rule, and windows still answer.
func TestWindowNonIndependentLoopRejected(t *testing.T) {
	s, fds := workload.Example1()
	ev := newEvaluator(t, s, fds)
	if ev.Fast() {
		t.Fatal("Example 1 is not independent")
	}
	st := relation.NewState(s)
	st.AddNamed("CD", map[string]string{"C": "CS402", "D": "CS"})
	st.AddNamed("CT", map[string]string{"C": "CS402", "T": "Jones"})
	st.AddNamed("TD", map[string]string{"T": "Jones", "D": "CS"})

	res, err := ev.Window(st, s.U.Set("C", "T", "D"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 1 {
		t.Fatalf("window [C T D] = %v", res.Rows.Rows())
	}
	if oracle := oracleWindow(t, s, fds, st, s.U.Set("C", "T", "D")); !sameInstance(res.Rows, oracle) {
		t.Fatal("fallback disagrees with the oracle (they should be the same computation)")
	}
}

// TestWindowInconsistentStateReported: the chase fallback reports a
// contradiction instead of inventing an answer for an unsatisfying state.
func TestWindowInconsistentStateReported(t *testing.T) {
	st, fds := workload.Example1State() // locally satisfying, globally not
	ev := newEvaluator(t, st.Schema, fds)
	if _, err := ev.Window(st, st.Schema.U.Set("C", "D")); err == nil {
		t.Fatal("window over an unsatisfying state should report the contradiction")
	}
}

func TestPlanCacheAndStats(t *testing.T) {
	s, fds := workload.Example2()
	ev := newEvaluator(t, s, fds)
	st := example2State(s)
	x := s.U.Set("C", "S", "T")

	res, err := ev.Window(st, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCached {
		t.Fatal("first query cannot hit the plan cache")
	}
	res, err = ev.Window(st, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCached {
		t.Fatal("second query must hit the plan cache")
	}
	stats := ev.Stats()
	if stats.Queries != 2 || stats.PlanHits != 1 || stats.FastEvals != 2 || stats.ChaseEvals != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPlanRelevance(t *testing.T) {
	s, fds := workload.Example2()
	ev := newEvaluator(t, s, fds)
	// H is only in CHR; windows mentioning H can only draw from CHR
	// extensions (CT and CS cannot determine H), so the plan must prune
	// the other schemes.
	p, _, err := ev.Plan(s.U.Set("C", "H"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Schemes) != 1 || s.Name(p.Schemes[0]) != "CHR" {
		t.Fatalf("plan schemes for [C H]: %v", p.Schemes)
	}
	// T is determined by C, so every scheme's extensions reach [C T]; but CS
	// and CHR reach T only through a CT tuple holding their whole answer
	// row, so CT alone contributes.
	p, _, err = ev.Plan(s.U.Set("C", "T"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Schemes) != 1 || s.Name(p.Schemes[0]) != "CT" {
		t.Fatalf("plan schemes for [C T]: %v", p.Schemes)
	}
	// On freeColumn, U reaches C through a V tuple that agrees with it on A
	// only, so U's answer row (a,b,c) need not be in V: both contribute to
	// [A B C].
	fs, ffds := freeColumn()
	p, _, err = newEvaluator(t, fs, ffds).Plan(fs.U.Set("A", "B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Schemes) != 2 {
		t.Fatalf("plan schemes for [A B C] on %s: %v", fs, p.Schemes)
	}
}

func TestWindowErrors(t *testing.T) {
	s, fds := workload.Example2()
	ev := newEvaluator(t, s, fds)
	st := relation.NewState(s)
	if _, err := ev.Window(st, attrset.Set{}); err == nil {
		t.Fatal("empty window attribute set must be rejected")
	}
	var outside attrset.Set
	outside.Add(s.U.Size()) // one past the universe
	if _, err := ev.Window(st, outside); err == nil {
		t.Fatal("attributes outside the universe must be rejected")
	}
}
