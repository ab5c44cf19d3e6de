package independence

import (
	"fmt"

	"indep/internal/fd"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
)

// Reason classifies the outcome of the decision procedure.
type Reason string

const (
	// ReasonIndependent: the schema is independent w.r.t. F ∪ {*D}.
	ReasonIndependent Reason = "independent"
	// ReasonNotCoverEmbedding: Theorem 2 condition (1) fails — D does not
	// embed a cover of the FDs implied by F ∪ {*D}.
	ReasonNotCoverEmbedding Reason = "not-cover-embedding"
	// ReasonLoopRejected: Theorem 2 condition (2) fails — The Loop rejected
	// the embedded cover.
	ReasonLoopRejected Reason = "loop-rejected"
)

// Result is the outcome of the independence decision procedure and what it
// proved on the way. The guard, the chase maintainer and the window
// evaluator are built from it and derive none of it again. It is immutable,
// but for Witness, which a caller handing it out mutably must clone.
type Result struct {
	Independent bool
	Reason      Reason

	// Cover is the embedded cover H of the implied FDs, assigned to schemes
	// (the paper's F = ∪F_i). When the schema is independent, each F_i is a
	// cover of the full implied constraint set Σ_i of its relation — the
	// fact that makes fast single-relation maintenance sound.
	Cover infer.AssignedList

	// FailingFDs are the FDs of F that no embedded cover can derive
	// (cover-embedding failures), split to single-attribute RHS.
	FailingFDs fd.List

	// Runs holds each scheme's accepted Loop run when the schema is
	// independent, nil otherwise: Theorem 5's extension data.
	Runs []*AcceptedRun

	// JD reports that a chase under F ∪ {*D} needs the join-dependency
	// rule: some FD of F is embedded in no scheme (Lemma 4).
	JD bool

	// Rejection details the Loop failure, when Reason is ReasonLoopRejected.
	Rejection *Rejection

	// Witness, for a non-independent schema, is a database state that is
	// locally satisfying but globally unsatisfying, built by the
	// construction named in WitnessKind. Nil only if construction failed
	// (which the test suite treats as a bug).
	Witness     *relation.State
	WitnessKind WitnessKind
}

// Decide runs the paper's full decision procedure for independence of
// schema s with respect to fds ∪ {*D} (Theorem 2): the Section 3
// cover-embedding test with cover extraction, then The Loop on every
// scheme. The schema must validate.
func Decide(s *schema.Schema, fds fd.List) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := checkFDsInUniverse(s, fds); err != nil {
		return nil, err
	}

	jd := !infer.AllEmbedded(s, fds)
	cover, ok, failing := infer.ExtractCover(s, fds)
	if !ok {
		res := &Result{
			Reason:      ReasonNotCoverEmbedding,
			FailingFDs:  failing,
			JD:          jd,
			Witness:     Lemma3Witness(s, fds, failing[0]),
			WitnessKind: WitnessLemma3,
		}
		return res, nil
	}
	res := DecideEmbedded(s, cover)
	res.JD = jd
	return res, nil
}

// DecideEmbedded decides independence w.r.t. an embedded cover F = ∪F_i
// (Theorem 3: independence w.r.t. F, and w.r.t. F ∪ {*D}, coincide and are
// decided by The Loop). It also constructs the counterexample witness on
// rejection, preferring the Lemma 7 construction when a cross-relation
// derivation exists and the Theorem 4 construction otherwise.
func DecideEmbedded(s *schema.Schema, cover infer.AssignedList) *Result {
	runs, rej := LoopAccepts(s, cover)
	if rej == nil {
		return &Result{Independent: true, Reason: ReasonIndependent, Cover: cover, Runs: runs}
	}
	res := &Result{
		Reason:    ReasonLoopRejected,
		Cover:     cover,
		Rejection: rej,
	}
	// The Theorem 4 construction assumes no cross-relation derivations
	// (the hypothesis of Lemma 7 fails); otherwise use Lemma 7's state.
	if i, a, deriv, found := CrossDerivation(s, cover); found {
		res.Witness = Lemma7Witness(s, cover, i, a, deriv)
		res.WitnessKind = WitnessLemma7
	} else {
		res.Witness = Theorem4Witness(s, rej)
		res.WitnessKind = WitnessTheorem4
	}
	return res
}

// DecideWithAssignment decides independence for a user-supplied embedded FD
// list, assigning each FD to the first scheme embedding it. It fails if
// some FD is not embedded. This is the Theorem 3 entry point for callers
// who already hold an embedded set.
func DecideWithAssignment(s *schema.Schema, fds fd.List) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cover, err := infer.AssignEmbedded(s, fds)
	if err != nil {
		return nil, err
	}
	return DecideEmbedded(s, cover), nil
}

func checkFDsInUniverse(s *schema.Schema, fds fd.List) error {
	all := s.U.All()
	for _, f := range fds {
		if !f.Attrs().SubsetOf(all) {
			return fmt.Errorf("independence: FD mentions attributes outside the universe")
		}
		if f.LHS.IsEmpty() || f.RHS.IsEmpty() {
			return fmt.Errorf("independence: FD with empty side")
		}
	}
	return nil
}
