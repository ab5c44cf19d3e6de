package indep

import (
	"strings"
	"testing"
)

func TestParseAndAccessors(t *testing.T) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if got := s.Relations(); len(got) != 3 || got[2] != "CHR" {
		t.Fatalf("Relations = %v", got)
	}
	if got := s.Attributes(); len(got) != 5 {
		t.Fatalf("Attributes = %v", got)
	}
	attrs, err := s.RelationAttrs("CHR")
	if err != nil || strings.Join(attrs, "") != "CHR" {
		t.Fatalf("RelationAttrs = %v (%v)", attrs, err)
	}
	if _, err := s.RelationAttrs("NOPE"); err == nil {
		t.Fatal("unknown relation must error")
	}
	if got := s.FDs(); len(got) != 2 || got[0] != "C -> T" {
		t.Fatalf("FDs = %v", got)
	}
	if !s.IsAcyclic() {
		t.Fatal("Example 2 schema is acyclic")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("garbage", ""); err == nil {
		t.Fatal("bad schema must error")
	}
	if _, err := Parse("R(A,B)", "A -> Z"); err == nil {
		t.Fatal("unknown FD attribute must error")
	}
}

func TestClosureAPI(t *testing.T) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	got, err := s.Closure("C", "H")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "") != "CTHR" {
		t.Fatalf("Closure(CH) = %v", got)
	}
	if _, err := s.Closure("Z"); err == nil {
		t.Fatal("unknown attribute must error")
	}
	emb, err := s.EmbeddedClosure("C")
	if err != nil || len(emb) < 2 {
		t.Fatalf("EmbeddedClosure(C) = %v (%v)", emb, err)
	}
}

func TestAnalyzeIndependent(t *testing.T) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	a, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Independent {
		t.Fatalf("Example 2 must be independent: %s", a.Summary())
	}
	if len(a.RelationCovers["CT"]) != 1 {
		t.Fatalf("CT cover = %v", a.RelationCovers["CT"])
	}
	if !strings.Contains(a.Summary(), "INDEPENDENT") {
		t.Fatalf("summary: %s", a.Summary())
	}
}

func TestAnalyzeNotIndependentWithWitness(t *testing.T) {
	s := MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	a, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a.Independent {
		t.Fatal("Example 1 must not be independent")
	}
	if a.Witness == nil {
		t.Fatal("witness missing")
	}
	// The witness must be locally fine but globally contradictory.
	okLocal, _, err := a.Witness.SatisfiesLocally()
	if err != nil || !okLocal {
		t.Fatalf("witness must be locally satisfying (err=%v)", err)
	}
	okGlobal, err := a.Witness.Satisfies()
	if err != nil || okGlobal {
		t.Fatalf("witness must not satisfy globally (err=%v)", err)
	}
	if !strings.Contains(a.Summary(), "NOT INDEPENDENT") {
		t.Fatalf("summary: %s", a.Summary())
	}
	// The schema decides once, but every Analyze hands out its own witness:
	// an insert into one leaves the next call's unchanged.
	before := a.Witness.String()
	if err := a.Witness.Insert("CD", map[string]string{"C": "extra", "D": "extra"}); err != nil {
		t.Fatal(err)
	}
	b, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Witness.String(); got != before || a.Witness.String() == before {
		t.Fatalf("second witness %q, first before its insert %q, after %q", got, before, a.Witness.String())
	}
}

func TestDatabasePaperExample1(t *testing.T) {
	s := MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	db := s.NewDatabase()
	for rel, row := range map[string]map[string]string{
		"CD": {"C": "CS402", "D": "CS"},
		"CT": {"C": "CS402", "T": "Jones"},
		"TD": {"T": "Jones", "D": "EE"},
	} {
		if err := db.Insert(rel, row); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := db.Satisfies()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("the CS402 state must not satisfy the dependencies")
	}
	okLocal, bad, err := db.SatisfiesLocally()
	if err != nil || !okLocal {
		t.Fatalf("the CS402 state is locally satisfying (bad=%s err=%v)", bad, err)
	}
	if db.Rows() != 3 {
		t.Fatalf("Rows = %d", db.Rows())
	}
}

func TestDatabaseInsertErrors(t *testing.T) {
	s := MustParse("R(A,B)", "")
	db := s.NewDatabase()
	if err := db.Insert("NOPE", nil); err == nil {
		t.Fatal("unknown relation must error")
	}
	if err := db.Insert("R", map[string]string{"A": "x"}); err == nil {
		t.Fatal("missing attribute must error")
	}
}

func TestStoreFastPathEnforcesFDs(t *testing.T) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	st, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if !st.FastPath() {
		t.Fatal("independent schema must use the fast path")
	}
	must := func(rel string, row map[string]string) {
		t.Helper()
		if err := st.Insert(rel, row); err != nil {
			t.Fatal(err)
		}
	}
	must("CT", map[string]string{"C": "CS101", "T": "Smith"})
	must("CHR", map[string]string{"C": "CS101", "H": "Mon10", "R": "313"})
	err = st.Insert("CT", map[string]string{"C": "CS101", "T": "Turing"})
	if err == nil || !Rejected(err) {
		t.Fatalf("second teacher for CS101 must be rejected, got %v", err)
	}
	err = st.Insert("CHR", map[string]string{"C": "CS101", "H": "Mon10", "R": "414"})
	if err == nil || !Rejected(err) {
		t.Fatalf("second room for CS101@Mon10 must be rejected, got %v", err)
	}
	if st.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", st.Rows())
	}
}

func TestStoreChasePathCatchesCrossRelationAnomaly(t *testing.T) {
	s := MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
	st, err := s.OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	if st.FastPath() {
		t.Fatal("Example 1 must use chase maintenance")
	}
	must := func(rel string, row map[string]string) {
		t.Helper()
		if err := st.Insert(rel, row); err != nil {
			t.Fatal(err)
		}
	}
	must("CD", map[string]string{"C": "CS402", "D": "CS"})
	must("CT", map[string]string{"C": "CS402", "T": "Jones"})
	// The paper's anomaly: Jones in EE contradicts CS402 in CS.
	err = st.Insert("TD", map[string]string{"T": "Jones", "D": "EE"})
	if err == nil || !Rejected(err) {
		t.Fatalf("cross-relation anomaly must be rejected, got %v", err)
	}
	must("TD", map[string]string{"T": "Jones", "D": "CS"})
}
