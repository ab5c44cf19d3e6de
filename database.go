package indep

import (
	"errors"
	"fmt"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/infer"
	"indep/internal/maintenance"
	"indep/internal/query"
	"indep/internal/relation"
	"indep/internal/schema"
)

// rowTuple resolves a named row (attribute name → value name) into a scheme
// index and a tuple, interning values through intern. All attributes of the
// scheme must be present. Shared by every row-accepting entry point.
func rowTuple(s *schema.Schema, intern func(string) relation.Value, rel string, row map[string]string) (int, relation.Tuple, error) {
	i := s.IndexOf(rel)
	if i < 0 {
		return -1, nil, fmt.Errorf("indep: unknown relation %q", rel)
	}
	attrs := s.Attrs(i).Attrs()
	t := make(relation.Tuple, len(attrs))
	for j, a := range attrs {
		name := s.U.Name(a)
		v, ok := row[name]
		if !ok {
			return -1, nil, fmt.Errorf("indep: missing value for attribute %s of %s", name, rel)
		}
		t[j] = intern(v)
	}
	return i, t, nil
}

// attrSetT is the attribute-set representation shared with the internal
// packages.
type attrSetT = attrset.Set

// Database is a database state over a Schema, with named values.
type Database struct {
	schema *Schema
	st     *relation.State
	// qev, when set, is the window evaluator the state originated from
	// (store snapshots carry their store's, sharing its plan cache); nil
	// falls back to the schema-wide evaluator. See Database.Query.
	qev *query.Evaluator
}

// NewDatabase creates an empty database state.
func (s *Schema) NewDatabase() *Database {
	return &Database{schema: s, st: relation.NewState(s.s)}
}

// Insert adds a row (attribute name → value name) to the named relation
// without any consistency checking; use Satisfies/SatisfiesLocally to test,
// or a ConcurrentStore for maintained inserts. All attributes of the
// relation scheme must be present.
func (db *Database) Insert(rel string, row map[string]string) error {
	i, t, err := rowTuple(db.st.Schema, db.st.Dict.Value, rel, row)
	if err != nil {
		return err
	}
	db.st.Insts[i].Add(t)
	return nil
}

// Rows returns the number of tuples across all relations.
func (db *Database) Rows() int { return db.st.TupleCount() }

// Tuples returns the rows of the named relation as attribute-name →
// value-name maps, in no particular order.
func (db *Database) Tuples(rel string) ([]map[string]string, error) {
	i := db.st.Schema.IndexOf(rel)
	if i < 0 {
		return nil, fmt.Errorf("indep: unknown relation %q", rel)
	}
	attrs := db.st.Schema.Attrs(i).Attrs()
	out := make([]map[string]string, 0, db.st.Insts[i].Len())
	for _, t := range db.st.Insts[i].Rows() {
		row := make(map[string]string, len(attrs))
		for j, a := range attrs {
			row[db.st.Schema.U.Name(a)] = db.st.Dict.Name(t[j])
		}
		out = append(out, row)
	}
	return out, nil
}

// String renders the state with named values.
func (db *Database) String() string { return db.st.String() }

// Satisfies reports whether the state satisfies F ∪ {*D} in the
// weak-instance sense, by running the chase on the padded universal
// relation. An error means the chase budget was exhausted (possible only
// for adversarial non-embedded dependency sets).
func (db *Database) Satisfies() (bool, error) {
	jd := needsJD(db.schema)
	return chase.Satisfies(db.st, db.schema.fds, jd, chase.DefaultCaps)
}

// SatisfiesLocally reports whether every relation is consistent in
// isolation (r_i ∈ SAT(R_i, Σ_i)); on failure it names the first
// inconsistent relation.
func (db *Database) SatisfiesLocally() (bool, string, error) {
	jd := needsJD(db.schema)
	ok, bad, err := chase.LocallySatisfies(db.st, db.schema.fds, jd, chase.DefaultCaps)
	if err != nil {
		return false, "", err
	}
	if ok {
		return true, "", nil
	}
	return false, db.st.Schema.Name(bad), nil
}

// needsJD reports whether the chase must apply the join-dependency rule:
// by the paper's Lemma 4, embedded FDs make it unnecessary.
func needsJD(s *Schema) bool { return !infer.AllEmbedded(s.s, s.fds) }

// ErrRejected wraps insert rejections from a ConcurrentStore.
var ErrRejected = maintenance.ErrViolation

// Rejected reports whether an Insert error means the row was rejected as
// inconsistent (as opposed to malformed input).
func Rejected(err error) bool { return errors.Is(err, maintenance.ErrViolation) }

// Overloaded reports whether an error means the chase exhausted its budget
// — a server-side resource limit, not a verdict on the row. Possible only
// on the non-independent maintenance path with non-embedded FDs.
func Overloaded(err error) bool { return errors.Is(err, chase.ErrBudget) }
