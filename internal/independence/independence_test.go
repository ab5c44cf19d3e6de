package independence

import (
	"math/rand"
	"reflect"
	"testing"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/workload"
)

func mustDecide(t *testing.T, s *schema.Schema, fds fd.List) *Result {
	t.Helper()
	res, err := Decide(s, fds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// verifyWitness checks a non-independence witness against the chase oracle:
// it must be locally satisfying but globally unsatisfying w.r.t. F ∪ {*D}.
func verifyWitness(t *testing.T, res *Result, s *schema.Schema, fds fd.List) {
	t.Helper()
	if res.Witness == nil {
		t.Fatalf("missing witness (kind %s, rejection %v)", res.WitnessKind, res.Rejection)
	}
	ok, err := chase.IsIndependenceWitness(res.Witness, fds, chase.DefaultCaps)
	if err != nil {
		t.Fatalf("witness verification budget: %v", err)
	}
	if !ok {
		t.Fatalf("witness (%s) not confirmed by chase:\n%s", res.WitnessKind, res.Witness)
	}
}

func TestExample1NotIndependent(t *testing.T) {
	// Paper Example 1 / Example 3 remark: CD, CT, TD with C→D, C→T, T→D.
	// "Clearly the algorithm will reject the system of Example 1."
	s := schema.MustParse("CD(C,D); CT(C,T); TD(T,D)")
	fds := fd.MustParse(s.U, "C -> D; C -> T; T -> D")
	res := mustDecide(t, s, fds)
	if res.Independent {
		t.Fatal("Example 1 must not be independent")
	}
	if res.Reason != ReasonLoopRejected {
		t.Fatalf("reason = %s", res.Reason)
	}
	verifyWitness(t, res, s, fds)
}

func TestExample2Independent(t *testing.T) {
	// Paper Example 2: CT, CS, CHR with C→T, CH→R is independent.
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	res := mustDecide(t, s, fds)
	if !res.Independent {
		t.Fatalf("Example 2 must be independent; got %s (%v)", res.Reason, res.Rejection)
	}
	if len(res.Cover) == 0 {
		t.Fatal("independent result must carry the embedded cover")
	}
}

func TestExample2PlusSHRNotCoverEmbedding(t *testing.T) {
	// Adding SH→R breaks Theorem 2 condition (1): the new dependency cannot
	// be derived from the embedded ones.
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R; S H -> R")
	res := mustDecide(t, s, fds)
	if res.Independent || res.Reason != ReasonNotCoverEmbedding {
		t.Fatalf("expected not-cover-embedding, got %s", res.Reason)
	}
	if res.WitnessKind != WitnessLemma3 {
		t.Fatalf("witness kind = %s", res.WitnessKind)
	}
	verifyWitness(t, res, s, fds)
}

func TestSingleSchemeAlwaysIndependent(t *testing.T) {
	s := schema.MustParse("R(A,B,C)")
	fds := fd.MustParse(s.U, "A -> B; B -> C")
	res := mustDecide(t, s, fds)
	if !res.Independent {
		t.Fatalf("single scheme must be independent; got %v", res.Rejection)
	}
}

func TestDuplicateSchemesNotIndependent(t *testing.T) {
	// Two copies of AB with A→B: inserting different B values for the same
	// A into the two relations is locally fine but globally contradictory.
	s := schema.MustParse("R1(A,B); R2(A,B)")
	fds := fd.MustParse(s.U, "A -> B")
	res := mustDecide(t, s, fds)
	if res.Independent {
		t.Fatal("duplicate schemes with a key FD must not be independent")
	}
	verifyWitness(t, res, s, fds)
	if res.WitnessKind != WitnessLemma7 {
		t.Fatalf("expected a Lemma 7 witness, got %s", res.WitnessKind)
	}
}

func TestEmbeddedForeignFDNotIndependent(t *testing.T) {
	// D = {CT, CTX}, F = {C→T} in CT. The FD is implied on CTX too, so the
	// two relations can disagree on T for a shared C.
	s := schema.MustParse("CT(C,T); CTX(C,T,X)")
	fds := fd.MustParse(s.U, "C -> T")
	res := mustDecide(t, s, fds)
	if res.Independent {
		t.Fatal("must not be independent")
	}
	verifyWitness(t, res, s, fds)
}

func TestNoFDsIndependent(t *testing.T) {
	// With Σ = {*D} alone, contradictions are impossible: every state is
	// satisfying, so LSAT = WSAT trivially.
	s := schema.MustParse("R1(A,B); R2(B,C); R3(C,A)")
	res := mustDecide(t, s, nil)
	if !res.Independent {
		t.Fatalf("no FDs must be independent; got %v", res.Rejection)
	}
}

func TestKeyedStarSchemaIndependent(t *testing.T) {
	// A fact table with foreign keys into two dimension tables: keys only,
	// no shared non-key attributes — the classical independent design.
	s := schema.MustParse("FACT(O,P,C); PROD(P,PN); CUST(C,CN)")
	fds := fd.MustParse(s.U, "O -> P C; P -> PN; C -> CN")
	res := mustDecide(t, s, fds)
	if !res.Independent {
		t.Fatalf("star schema must be independent; got %v", res.Rejection)
	}
}

func TestLoopRejectLine4Shape(t *testing.T) {
	// Example 1 analyzed for CD rejects at line 4 with attribute D: the
	// function CD→D is computed both initially (D ∈ R_l) and via C→T, T→D.
	s := schema.MustParse("CD(C,D); CT(C,T); TD(T,D)")
	fds := fd.MustParse(s.U, "C -> D; C -> T; T -> D")
	cover, ok, _ := infer.ExtractCover(s, fds)
	if !ok {
		t.Fatal("Example 1 is cover-embedding")
	}
	rej, trace := RunLoop(s, cover, s.IndexOf("CD"))
	if rej == nil {
		t.Fatalf("loop must reject for CD; trace: %v", trace)
	}
	if rej.Site != RejectLine4 {
		t.Fatalf("expected line 4, got %s", rej.Site)
	}
	if got := s.U.Name(rej.Attr); got != "D" {
		t.Fatalf("offending attribute = %s, want D", got)
	}
}

func TestCrossDerivationDetection(t *testing.T) {
	s := schema.MustParse("R1(A,B); R2(A,B)")
	fds := fd.MustParse(s.U, "A -> B")
	cover, err := infer.AssignEmbedded(s, fds)
	if err != nil {
		t.Fatal(err)
	}
	i, a, deriv, found := CrossDerivation(s, cover)
	if !found {
		t.Fatal("cross derivation must be found")
	}
	if i != 1 || s.U.Name(a) != "B" || len(deriv) != 1 {
		t.Fatalf("got scheme %d attr %s deriv %s", i, s.U.Name(a), deriv.Format(s.U))
	}
	// No cross derivation in Example 2.
	s2 := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds2 := fd.MustParse(s2.U, "C -> T; C H -> R")
	cover2, _ := infer.AssignEmbedded(s2, fds2)
	if _, _, _, found := CrossDerivation(s2, cover2); found {
		t.Fatal("Example 2 has no cross derivation")
	}
}

func TestDecideInputValidation(t *testing.T) {
	s := schema.MustParse("R1(A,B); R2(B,C)")
	var bad attrset.Set
	bad.Add(200)
	if _, err := Decide(s, fd.List{fd.FD{LHS: bad, RHS: attrset.Of(0)}}); err == nil {
		t.Fatal("FD outside universe must be rejected")
	}
	if _, err := Decide(s, fd.List{fd.FD{LHS: attrset.Of(0)}}); err == nil {
		t.Fatal("FD with empty RHS must be rejected")
	}
}

func TestDecideWithAssignmentMatchesDecide(t *testing.T) {
	s := schema.MustParse("CT(C,T); CS(C,S); CHR(C,H,R)")
	fds := fd.MustParse(s.U, "C -> T; C H -> R")
	a, err := DecideWithAssignment(s, fds)
	if err != nil {
		t.Fatal(err)
	}
	b := mustDecide(t, s, fds)
	if a.Independent != b.Independent {
		t.Fatal("two entry points disagree")
	}
}

// ---------------------------------------------------------------------------
// Randomized validation against the chase oracle.
// ---------------------------------------------------------------------------

// randInstance builds a random covering schema and embedded FDs.
func randInstance(r *rand.Rand, n int) (*schema.Schema, fd.List) {
	u := attrset.NewUniverse()
	for i := 0; i < n; i++ {
		u.Add(string(rune('A' + i)))
	}
	k := 2 + r.Intn(2)
	var rels []schema.Rel
	var covered attrset.Set
	for i := 0; i < k; i++ {
		var a attrset.Set
		for j := 0; j < 2+r.Intn(2); j++ {
			a.Add(r.Intn(n))
		}
		covered = covered.Union(a)
		rels = append(rels, schema.Rel{Name: string(rune('P' + i)), Attrs: a})
	}
	missing := u.All().Diff(covered)
	if !missing.IsEmpty() {
		rels = append(rels, schema.Rel{Name: "Z", Attrs: missing})
	}
	s := schema.New(u, rels...)
	var fds fd.List
	for i := 0; i < 1+r.Intn(3); i++ {
		rel := rels[r.Intn(len(rels))]
		attrs := rel.Attrs.Attrs()
		if len(attrs) < 2 {
			continue
		}
		var lhs attrset.Set
		lhs.Add(attrs[r.Intn(len(attrs))])
		rhs := attrset.Of(attrs[r.Intn(len(attrs))])
		if rhs.SubsetOf(lhs) {
			continue
		}
		fds = append(fds, fd.FD{LHS: lhs, RHS: rhs})
	}
	return s, fds
}

// randLocalState draws a random state whose relations each satisfy their
// local constraints (checked with the chase), or nil after too many tries.
func randLocalState(r *rand.Rand, s *schema.Schema, fds fd.List, tuples int) *relation.State {
	for try := 0; try < 30; try++ {
		st := relation.NewState(s)
		for i, rel := range s.Rels {
			w := rel.Attrs.Len()
			for j := 0; j < tuples; j++ {
				t := make(relation.Tuple, w)
				for c := range t {
					t[c] = relation.Value(r.Intn(3))
				}
				st.Insts[i].Add(t)
			}
		}
		ok, _, err := chase.LocallySatisfies(st, fds, true, chase.DefaultCaps)
		if err == nil && ok {
			return st
		}
	}
	return nil
}

func TestQuickAcceptImpliesLocalGlobalAgree(t *testing.T) {
	// Theorem 5: if Decide accepts, every locally satisfying state must be
	// globally satisfying. Randomized over schemas and states.
	r := rand.New(rand.NewSource(101))
	accepted, statesChecked := 0, 0
	for i := 0; i < 150; i++ {
		s, fds := randInstance(r, 4+r.Intn(2))
		res, err := Decide(s, fds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Independent {
			continue
		}
		accepted++
		for j := 0; j < 5; j++ {
			st := randLocalState(r, s, fds, 1+r.Intn(2))
			if st == nil {
				continue
			}
			statesChecked++
			ok, err := chase.Satisfies(st, fds, true, chase.DefaultCaps)
			if err != nil {
				continue
			}
			if !ok {
				t.Fatalf("accepted schema %s with %s has locally-sat non-sat state:\n%s",
					s, fds.Format(s.U), st)
			}
		}
	}
	if accepted < 10 || statesChecked < 30 {
		t.Fatalf("insufficient coverage: accepted=%d states=%d", accepted, statesChecked)
	}
}

func TestQuickRejectProducesVerifiedWitness(t *testing.T) {
	// Soundness of rejection: every non-independence verdict must come with
	// a chase-verified locally-sat-but-globally-unsat state.
	r := rand.New(rand.NewSource(102))
	rejected := 0
	for i := 0; i < 200; i++ {
		s, fds := randInstance(r, 4+r.Intn(2))
		res, err := Decide(s, fds)
		if err != nil {
			t.Fatal(err)
		}
		if res.Independent {
			continue
		}
		rejected++
		verifyWitness(t, res, s, fds)
	}
	if rejected < 20 {
		t.Fatalf("insufficient rejected cases: %d", rejected)
	}
}

func TestQuickWitnessExistenceIsNecessary(t *testing.T) {
	// Completeness spot-check: when Decide accepts, random search must not
	// find any locally-sat non-sat state either (this is the same direction
	// as Theorem 5 but phrased as hunting for counterexamples).
	r := rand.New(rand.NewSource(103))
	hunts := 0
	for i := 0; i < 60; i++ {
		s, fds := randInstance(r, 4)
		res, err := Decide(s, fds)
		if err != nil || !res.Independent {
			continue
		}
		for j := 0; j < 10; j++ {
			st := randLocalState(r, s, fds, 2)
			if st == nil {
				continue
			}
			hunts++
			ok, err := chase.Satisfies(st, fds, true, chase.DefaultCaps)
			if err == nil && !ok {
				t.Fatalf("counterexample to acceptance found:\n%s\nschema %s fds %s",
					st, s, fds.Format(s.U))
			}
		}
	}
	if hunts < 50 {
		t.Fatalf("insufficient hunting coverage: %d", hunts)
	}
}

func TestTheorem3EquivalenceFToFJD(t *testing.T) {
	// Theorem 3 (1) ⇔ (2): independence w.r.t. an embedded F coincides with
	// independence w.r.t. F ∪ {*D}. Our Decide uses the JD-aware cover; the
	// assignment path uses F directly. Verdicts must agree.
	r := rand.New(rand.NewSource(104))
	for i := 0; i < 100; i++ {
		s, fds := randInstance(r, 4+r.Intn(2))
		res1, err1 := Decide(s, fds)
		res2, err2 := DecideWithAssignment(s, fds)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if res1.Independent != res2.Independent {
			t.Fatalf("Theorem 3 equivalence violated on %s / %s: %v vs %v",
				s, fds.Format(s.U), res1.Independent, res2.Independent)
		}
	}
}

// TestDecideKeepsAcceptedRuns pins what a decision hands its consumers: an
// independent Result carries, for every scheme, the run PrepareExtension
// builds from the same cover; any other Result carries no runs; and JD is
// the Lemma 4 test on every result.
func TestDecideKeepsAcceptedRuns(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var independent, other int
	for i := 0; i < 240; i++ {
		s, fds := workload.Schema(r, workload.Config{
			Attrs: 4 + r.Intn(3), Schemes: 2 + r.Intn(3), SchemeMax: 3, FDs: 1 + r.Intn(4), LHSMax: 2,
			Embedded: r.Intn(2) == 0, Shape: workload.Shape(r.Intn(3)),
		})
		res := mustDecide(t, s, fds)
		if res.JD != !infer.AllEmbedded(s, fds) {
			t.Fatalf("%s with %s: JD %v", s, fds.Format(s.U), res.JD)
		}
		if !res.Independent {
			other++
			if res.Runs != nil {
				t.Fatalf("%s with %s (%s): %d runs kept", s, fds.Format(s.U), res.Reason, len(res.Runs))
			}
			continue
		}
		independent++
		if len(res.Runs) != s.Size() {
			t.Fatalf("%s with %s: %d runs for %d schemes", s, fds.Format(s.U), len(res.Runs), s.Size())
		}
		for l, run := range res.Runs {
			want, rej := PrepareExtension(s, res.Cover, l)
			if rej != nil {
				t.Fatalf("%s with %s: scheme %d rejected: %v", s, fds.Format(s.U), l, rej)
			}
			if run.Scheme() != l || run.Available() != want.Available() ||
				!reflect.DeepEqual(run.Consulted(s.U.All()), want.Consulted(s.U.All())) {
				t.Fatalf("%s with %s: scheme %d kept run differs from PrepareExtension's", s, fds.Format(s.U), l)
			}
		}
	}
	if independent < 20 || other < 20 {
		t.Fatalf("insufficient coverage: %d independent, %d not", independent, other)
	}
}
