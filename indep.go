// Package indep is a complete implementation of Graham and Yannakakis,
// "Independent Database Schemas" (PODS 1982; JCSS 28(1):121–141, 1984).
//
// A database schema D is independent with respect to its functional
// dependencies F and its join dependency *D when checking each relation in
// isolation suffices to guarantee the whole state is consistent (has a weak
// instance). Independence is what makes constraint maintenance cheap: a
// single-tuple insert can be validated against one relation's FDs instead
// of re-chasing the entire database — which Theorem 1 of the paper shows is
// intractable in general.
//
// The package offers:
//
//   - Parse / MustParse: build a Schema from compact text.
//   - Schema.Analyze: the paper's polynomial decision procedure
//     (Theorem 2: cover-embedding + "The Loop"), with an explicit
//     counterexample state whenever the schema is not independent.
//   - Schema.Closure / EmbeddedClosure: FD inference under F ∪ {*D}.
//   - Schema.NewDatabase: states, weak-instance satisfaction checks (the
//     chase), and local-consistency checks.
//   - Schema.OpenConcurrentStore: a maintained database that uses the
//     O(|F_i|) per-relation guard when the schema is independent and the
//     chase otherwise (OpenDurableStore adds a write-ahead log).
//
// Everything is implemented from scratch on the Go standard library; the
// heavy lifting lives in internal/ packages (chase engine, tagged tableaux,
// the Loop) and is validated against a chase oracle in their test suites.
package indep

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"indep/internal/acyclic"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/query"
	"indep/internal/schema"
)

// Schema couples a database schema with its functional dependencies.
type Schema struct {
	s   *schema.Schema
	fds fd.List

	// once decides the schema on first use (see decision). res and qev,
	// the window evaluator built from it and shared by every Database of
	// this schema, are immutable afterwards.
	once sync.Once
	res  *independence.Result
	qev  *query.Evaluator
	err  error
}

// decision runs the independence decision procedure once per Schema and
// builds the window evaluator from it, so Analyze and every window of a
// Database share one decision.
func (s *Schema) decision() (*independence.Result, *query.Evaluator, error) {
	s.once.Do(func() {
		if s.res, s.err = independence.Decide(s.s, s.fds); s.err == nil {
			s.qev = query.NewEvaluator(s.s, s.fds, s.res, chase.DefaultCaps)
		}
	})
	return s.res, s.qev, s.err
}

// Parse builds a Schema from two compact declarations, e.g.
//
//	Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
//
// Relation schemes are name(attr,...) separated by ';' or newlines; FDs are
// "A B -> C" separated the same way. The FD text may be empty.
func Parse(schemaSrc, fdSrc string) (*Schema, error) {
	s, err := schema.Parse(schemaSrc)
	if err != nil {
		return nil, err
	}
	fds, err := fd.Parse(s.U, fdSrc)
	if err != nil {
		return nil, err
	}
	return &Schema{s: s, fds: fds}, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(schemaSrc, fdSrc string) *Schema {
	s, err := Parse(schemaSrc, fdSrc)
	if err != nil {
		panic(err)
	}
	return s
}

// Attributes returns the universe attribute names in order.
func (s *Schema) Attributes() []string {
	out := make([]string, s.s.U.Size())
	for i := range out {
		out[i] = s.s.U.Name(i)
	}
	return out
}

// Relations returns the relation scheme names in order.
func (s *Schema) Relations() []string {
	out := make([]string, s.s.Size())
	for i := range out {
		out[i] = s.s.Name(i)
	}
	return out
}

// RelationAttrs returns the attribute names of the named relation scheme.
func (s *Schema) RelationAttrs(rel string) ([]string, error) {
	i := s.s.IndexOf(rel)
	if i < 0 {
		return nil, fmt.Errorf("indep: unknown relation %q", rel)
	}
	return s.s.U.Names(s.s.Attrs(i)), nil
}

// FDs returns the functional dependencies as display strings.
func (s *Schema) FDs() []string {
	out := make([]string, len(s.fds))
	for i, f := range s.fds {
		out[i] = f.Format(s.s.U)
	}
	return out
}

// String renders the schema.
func (s *Schema) String() string {
	return fmt.Sprintf("%s with %s", s.s, s.fds.Format(s.s.U))
}

// IsAcyclic reports whether the schema hypergraph is α-acyclic (GYO).
func (s *Schema) IsAcyclic() bool { return acyclic.IsAcyclic(s.s) }

// Closure computes cl_Σ(X) for Σ = F ∪ {*D}: every attribute functionally
// determined by the given ones, taking the join dependency into account.
func (s *Schema) Closure(attrs ...string) ([]string, error) {
	x, err := s.attrSet(attrs)
	if err != nil {
		return nil, err
	}
	return s.s.U.Names(infer.Closure(s.s, s.fds, x)), nil
}

// EmbeddedClosure computes the closure of X under only those implied FDs
// that are embedded in some relation scheme (the paper's cl_{G|D}).
func (s *Schema) EmbeddedClosure(attrs ...string) ([]string, error) {
	x, err := s.attrSet(attrs)
	if err != nil {
		return nil, err
	}
	closed, _ := infer.ClosureEmbedded(s.s, s.fds, x)
	return s.s.U.Names(closed), nil
}

func (s *Schema) attrSet(attrs []string) (x attrSetT, err error) {
	for _, a := range attrs {
		i, ok := s.s.U.Index(a)
		if !ok {
			return x, fmt.Errorf("indep: unknown attribute %q", a)
		}
		x.Add(i)
	}
	return x, nil
}

// Analysis is the outcome of the independence decision procedure.
type Analysis struct {
	// Independent reports whether local consistency of every relation
	// guarantees global consistency (LSAT = WSAT).
	Independent bool
	// Reason is "independent", "not-cover-embedding" or "loop-rejected".
	Reason string
	// RelationCovers maps each relation name to the embedded FD cover F_i
	// that suffices for maintaining it (meaningful when Independent; these
	// are the FDs the fast Store guard enforces).
	RelationCovers map[string][]string
	// PartitionKeys maps each relation name to the attributes a cluster may
	// hash-partition it by without breaking local validation: the
	// intersection of the left-hand sides of the relation's cover F_i. The
	// guard only ever compares tuples that agree on some LHS, and since the
	// key is a subset of every LHS, any two tuples that could conflict agree
	// on the key — so they hash to the same partition and every partition
	// validates with only its own tuples. A relation with no FDs may be
	// partitioned by its full scheme; a relation whose LHS intersection is
	// empty maps to nil and must live whole on one node. Meaningful only
	// when Independent.
	PartitionKeys map[string][]string
	// FailingFDs lists FDs of F underivable from embedded FDs, when
	// Reason is "not-cover-embedding".
	FailingFDs []string
	// Rejection describes the Loop rejection, when Reason is
	// "loop-rejected".
	Rejection string
	// WitnessKind names the counterexample construction used ("lemma-3",
	// "lemma-7", "theorem-4"); empty when independent.
	WitnessKind string
	// Witness, when not independent, is a database state that every
	// relation accepts locally but that has no weak instance. It is the
	// concrete update anomaly the schema design permits.
	Witness *Database
}

// Analyze runs the paper's polynomial independence test and, on failure,
// returns a chase-verified counterexample state. The test runs once per
// Schema; every call returns a fresh Analysis with its own Witness.
func (s *Schema) Analyze() (*Analysis, error) {
	res, _, err := s.decision()
	if err != nil {
		return nil, err
	}
	return s.newAnalysis(res), nil
}

// newAnalysis converts a decision-procedure result into the public Analysis;
// shared by Analyze and OpenConcurrentStore (which gets the result from its
// engine rather than deciding twice).
func (s *Schema) newAnalysis(res *independence.Result) *Analysis {
	a := &Analysis{
		Independent: res.Independent,
		Reason:      string(res.Reason),
	}
	if res.Independent {
		a.RelationCovers = make(map[string][]string, s.s.Size())
		a.PartitionKeys = make(map[string][]string, s.s.Size())
		for i := range s.s.Rels {
			var fs []string
			cover := res.Cover.ForScheme(i)
			key := s.s.Attrs(i)
			for _, f := range cover {
				fs = append(fs, f.Format(s.s.U))
				key = key.Intersect(f.LHS)
			}
			sort.Strings(fs)
			a.RelationCovers[s.s.Name(i)] = fs
			if key.IsEmpty() {
				a.PartitionKeys[s.s.Name(i)] = nil
			} else {
				a.PartitionKeys[s.s.Name(i)] = s.s.U.Names(key)
			}
		}
		return a
	}
	for _, f := range res.FailingFDs {
		a.FailingFDs = append(a.FailingFDs, f.Format(s.s.U))
	}
	if res.Rejection != nil {
		rej := res.Rejection
		a.Rejection = fmt.Sprintf("analyzing %s: l.h.s. {%s} of %s rejected at %s (attribute %s)",
			s.s.Name(rej.Analyzed), s.s.U.Format(rej.LHS, " "), s.s.Name(rej.Scheme),
			rej.Site, s.s.U.Name(rej.Attr))
	}
	a.WitnessKind = string(res.WitnessKind)
	if res.Witness != nil {
		a.Witness = &Database{schema: s, st: res.Witness.Clone()}
	}
	return a
}

// Summary renders a human-readable report of the analysis.
func (a *Analysis) Summary() string {
	var b strings.Builder
	if a.Independent {
		b.WriteString("INDEPENDENT: per-relation FD checks fully enforce the global constraints.\n")
		names := make([]string, 0, len(a.RelationCovers))
		for n := range a.RelationCovers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fds := a.RelationCovers[n]
			if len(fds) == 0 {
				fmt.Fprintf(&b, "  %s: (no constraints)\n", n)
			} else {
				fmt.Fprintf(&b, "  %s: %s\n", n, strings.Join(fds, "; "))
			}
		}
		return b.String()
	}
	fmt.Fprintf(&b, "NOT INDEPENDENT (%s)\n", a.Reason)
	if len(a.FailingFDs) > 0 {
		fmt.Fprintf(&b, "  FDs not derivable from embedded FDs: %s\n", strings.Join(a.FailingFDs, "; "))
	}
	if a.Rejection != "" {
		fmt.Fprintf(&b, "  %s\n", a.Rejection)
	}
	if a.Witness != nil {
		fmt.Fprintf(&b, "  counterexample state (%s): every relation is locally consistent,\n", a.WitnessKind)
		b.WriteString("  yet no weak instance exists:\n")
		for _, line := range strings.Split(strings.TrimRight(a.Witness.String(), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
