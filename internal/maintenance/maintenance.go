// Package maintenance implements the paper's motivating application: the
// maintenance problem. "If p is a state satisfying Σ, and p' results from a
// simple modification of p (e.g., the insertion of a single tuple into a
// single instance of p), is p' satisfying?"
//
// Theorem 1 shows no polynomial algorithm exists in general (unless P=NP);
// the reduction is implemented in reduction.go. For independent schemas,
// however, each relation's implied constraint set Σ_i is covered by the
// embedded FDs F_i, so maintenance reduces to a per-relation FD check —
// Guard implements it with hash indexes in O(|F_i|) per insert. For
// arbitrary schemas ChaseMaintainer re-runs the weak-instance chase.
package maintenance

import (
	"errors"
	"fmt"

	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
)

// ErrViolation is wrapped by errors describing a rejected insert.
var ErrViolation = errors.New("maintenance: insert violates dependencies")

// Maintainer answers the maintenance problem for single-tuple inserts and
// deletes.
type Maintainer interface {
	// Insert checks the tuple and, when admissible, adds it to the state.
	// A wrapped ErrViolation means the new state would be unsatisfying.
	Insert(scheme int, t relation.Tuple) error
	// Delete removes the tuple, reporting whether it was present. SAT is
	// closed under subsets (a weak instance for p remains one for any
	// p' ⊆ p), so deletions are always admissible and never return a
	// violation.
	Delete(scheme int, t relation.Tuple) (bool, error)
	// State returns the maintained state (shared, not a copy).
	State() *relation.State
}

// Op is one tuple operation addressed to a scheme: an insert, or a delete
// when Delete is set. It is the unit of both maintainers' Apply.
type Op struct {
	Scheme int
	Tuple  relation.Tuple
	Delete bool
}

// Policy is what a rejected insert does to its batch. SAT is closed under
// subsets, so both policies admit through the same per-relation checks.
type Policy uint8

const (
	// Atomic admits every insert before any delete; its first error leaves
	// the state as it was and is returned.
	Atomic Policy = iota
	// Partial applies the ops in order, each insert admitted against the
	// state the ops before it left, and records a rejected insert in
	// Result.Rejected. Any other error (a chase budget) stops the walk at
	// that op; what it accepted before stays.
	Partial
)

// Rejection is one insert a Partial batch turned away.
type Rejection struct {
	Index int   // the op's position in the batch
	Err   error // wraps ErrViolation
}

// Result is what applying a batch did: the ops that changed the state in
// applied order (not admissible duplicates or deletes of absent tuples), a
// Partial batch's rejections in batch order, and how many ops were given an
// outcome — all of them, or the ops before the one that stopped the walk.
type Result struct {
	Changed  []Op
	Rejected []Rejection
	Done     int
}

// appendChanged appends op to r.Changed, sizing the slice for the whole
// batch on first use so a batch costs one allocation and a batch that
// changes nothing costs none.
func (r *Result) appendChanged(op Op, batch int) {
	if r.Changed == nil {
		r.Changed = make([]Op, 0, batch)
	}
	r.Changed = append(r.Changed, op)
}

// walk is the per-op admission loop of both policies over the one-tuple
// calls both maintainers have, and the one loop that applies ops through
// them: Guard.Apply runs it under either policy, ChaseMaintainer.Apply under
// Partial, and under Atomic for the deletes once its inserts are in (walk
// finds each insert present). An Atomic walk takes the inserts in
// a first pass and the deletes in a second, and its first error removes the
// inserts again in reverse (deletes cannot fail, so the state returns
// exactly to where it was).
func walk(m interface {
	InsertReport(scheme int, t relation.Tuple) (bool, error)
	Delete(scheme int, t relation.Tuple) (bool, error)
}, ops []Op, p Policy) (r Result, err error) {
	for pass := 0; pass < 2; pass++ {
		for i, op := range ops {
			if p == Partial && pass == 1 || p == Atomic && op.Delete != (pass == 1) {
				continue
			}
			var changed bool
			if op.Delete {
				changed, err = m.Delete(op.Scheme, op.Tuple)
			} else {
				changed, err = m.InsertReport(op.Scheme, op.Tuple)
			}
			switch {
			case err == nil:
			case p == Atomic:
				for k := len(r.Changed) - 1; k >= 0; k-- {
					m.Delete(r.Changed[k].Scheme, r.Changed[k].Tuple)
				}
				return Result{}, err
			case !errors.Is(err, ErrViolation):
				r.Done = i
				return r, err
			default:
				r.Rejected = append(r.Rejected, Rejection{Index: i, Err: err})
			}
			if changed {
				r.appendChanged(op, len(ops))
			}
		}
	}
	r.Done = len(ops)
	return r, nil
}

// checkSchemes rejects ops addressed outside [0, n) before anything is
// applied, so Apply never has to unwind a half-applied batch over a
// malformed op.
func checkSchemes(ops []Op, n int) error {
	for _, op := range ops {
		if op.Scheme < 0 || op.Scheme >= n {
			return fmt.Errorf("maintenance: no scheme %d", op.Scheme)
		}
	}
	return nil
}

// Guard is the fast maintainer for independent schemas: it enforces, for
// each relation R_i, the embedded FD cover F_i produced by the independence
// decision procedure. By Theorem 3's corollary, F_i covers Σ_i when the
// schema is independent, so this per-relation check is exactly the
// maintenance problem. Each FD keeps a hash index from left-hand-side
// values to the unique right-hand-side values, making inserts O(|F_i|).
//
// The indexes are binary: a left-hand side is keyed by the 64-bit hash of
// its values, and each index entry holds witness values (the lhs and rhs
// columns of some admitted tuple, copied into a flat per-FD value arena)
// that resolve both hash collisions and the right-hand-side comparison —
// no string keys are built anywhere. The guard owns the witness values
// outright: the relation's columnar storage recycles row slots on delete,
// so an entry may never reference instance storage. Entries live in a
// per-FD arena with a free list (a recycled entry reuses its value block),
// and per-scheme probe scratch is preallocated, so steady-state inserts,
// duplicate inserts, rejections, and insert/delete cycles allocate
// nothing.
type Guard struct {
	s       *schema.Schema
	st      *relation.State
	fds     [][]guardFD // per scheme
	scratch [][]probe   // per scheme, len == len(fds[scheme]), reused across calls
}

type guardFD struct {
	f       fd.FD
	lhsCols []int
	rhsCols []int
	index   map[uint64]int32 // lhs hash → head of entry chain in the arena
	entries []fdEntry        // arena; slots recycled through free
	vals    []relation.Value // witness values, entries[e] owns the fixed-width block at e*width
	free    []int32
	errViol error // precomputed: the message depends only on (FD, scheme)
}

// width is the size of one entry's witness block in vals: the lhs values
// followed by the rhs values.
func (gf *guardFD) width() int { return len(gf.lhsCols) + len(gf.rhsCols) }

// probe records one FD's lookup during the verify phase so the commit
// phase can reuse it: the lhs hash and the matched entry (-1 when the lhs
// was unseen).
type probe struct {
	h     uint64
	entry int32
}

// fdEntry records one left-hand-side binding: a reference count of the
// distinct tuples sharing the binding and the next entry on the same hash
// chain (-1 ends it). The binding's witness values — the lhs and rhs of
// some admitted tuple; any tuple with this lhs agrees on the rhs while the
// FD holds, so even a later-deleted witness stays valid — live in the
// owning guardFD's vals arena at the entry's fixed-width block. Deletes
// decrement and recycle the slot at zero, so a value binding is forgotten
// as soon as no tuple witnesses it.
type fdEntry struct {
	n    int32
	next int32
}

// NewGuard builds a guard from the schema and the per-scheme embedded cover
// (the Cover field of an independent analysis result). The state starts
// empty.
func NewGuard(s *schema.Schema, cover infer.AssignedList) *Guard {
	g := &Guard{
		s:       s,
		st:      relation.NewState(s),
		fds:     make([][]guardFD, len(s.Rels)),
		scratch: make([][]probe, len(s.Rels)),
	}
	for i := range s.Rels {
		cols := s.Attrs(i).Attrs()
		at := make(map[int]int, len(cols))
		for j, a := range cols {
			at[a] = j
		}
		for _, f := range cover.ForScheme(i) {
			gf := guardFD{f: f, index: make(map[uint64]int32)}
			f.LHS.ForEach(func(attr int) bool {
				gf.lhsCols = append(gf.lhsCols, at[attr])
				return true
			})
			f.RHS.Diff(f.LHS).ForEach(func(attr int) bool {
				gf.rhsCols = append(gf.rhsCols, at[attr])
				return true
			})
			if len(gf.rhsCols) > 0 {
				gf.errViol = fmt.Errorf("%w: %s in %s", ErrViolation, f.Format(s.U), s.Name(i))
				g.fds[i] = append(g.fds[i], gf)
			}
		}
		g.scratch[i] = make([]probe, len(g.fds[i]))
	}
	return g
}

// lhsAgrees reports whether entry e's witness lhs values equal t's values
// at the lhs columns.
func (gf *guardFD) lhsAgrees(e int32, t relation.Tuple) bool {
	w := gf.vals[int(e)*gf.width():]
	for i, c := range gf.lhsCols {
		if w[i] != t[c] {
			return false
		}
	}
	return true
}

// rhsAgrees reports whether entry e's witness rhs values equal t's values
// at the rhs columns.
func (gf *guardFD) rhsAgrees(e int32, t relation.Tuple) bool {
	w := gf.vals[int(e)*gf.width()+len(gf.lhsCols):]
	for i, c := range gf.rhsCols {
		if w[i] != t[c] {
			return false
		}
	}
	return true
}

// lookup walks the hash chain for h and returns the entry whose witness
// agrees with t on the lhs columns, or -1.
func (gf *guardFD) lookup(h uint64, t relation.Tuple) int32 {
	head, ok := gf.index[h]
	if !ok {
		return -1
	}
	for e := head; e >= 0; e = gf.entries[e].next {
		if gf.lhsAgrees(e, t) {
			return e
		}
	}
	return -1
}

// insertEntry records a fresh lhs binding witnessed by t's lhs and rhs
// values (copied into the value arena), reusing a free arena slot — and
// its value block — when one exists.
func (gf *guardFD) insertEntry(h uint64, t relation.Tuple) {
	next := int32(-1)
	if head, ok := gf.index[h]; ok {
		next = head
	}
	var slot int32
	if n := len(gf.free); n > 0 {
		slot = gf.free[n-1]
		gf.free = gf.free[:n-1]
		gf.entries[slot] = fdEntry{n: 1, next: next}
	} else {
		slot = int32(len(gf.entries))
		gf.entries = append(gf.entries, fdEntry{n: 1, next: next})
		for i := 0; i < gf.width(); i++ { // zero-extend without a temp slice
			gf.vals = append(gf.vals, 0)
		}
	}
	w := gf.vals[int(slot)*gf.width():]
	for i, c := range gf.lhsCols {
		w[i] = t[c]
	}
	for i, c := range gf.rhsCols {
		w[len(gf.lhsCols)+i] = t[c]
	}
	gf.index[h] = slot
}

// removeEntry unlinks entry e from the chain for h and recycles its slot.
func (gf *guardFD) removeEntry(h uint64, e int32) {
	if gf.index[h] == e {
		if next := gf.entries[e].next; next >= 0 {
			gf.index[h] = next
		} else {
			delete(gf.index, h)
		}
	} else {
		for p := gf.index[h]; ; p = gf.entries[p].next {
			if gf.entries[p].next == e {
				gf.entries[p].next = gf.entries[e].next
				break
			}
		}
	}
	gf.entries[e] = fdEntry{next: -1} // witness block in vals is reused as-is on recycle
	gf.free = append(gf.free, e)
}

// Insert implements Maintainer. It is O(|F_i|) expected time per call.
func (g *Guard) Insert(scheme int, t relation.Tuple) error {
	_, err := g.InsertReport(scheme, t)
	return err
}

// InsertReport is Insert, additionally reporting whether the tuple was
// actually added (false for admissible duplicates) — concurrent callers
// need this for bookkeeping without re-probing the instance index.
func (g *Guard) InsertReport(scheme int, t relation.Tuple) (bool, error) {
	if scheme < 0 || scheme >= len(g.fds) {
		return false, fmt.Errorf("maintenance: no scheme %d", scheme)
	}
	fds := g.fds[scheme]
	// First verify all FDs, then commit; a half-committed index would
	// otherwise corrupt later checks. Probes are remembered in the scheme's
	// scratch so commit re-walks no chains.
	probes := g.scratch[scheme]
	for j := range fds {
		gf := &fds[j]
		h := relation.HashCols(t, gf.lhsCols)
		e := gf.lookup(h, t)
		if e >= 0 && !gf.rhsAgrees(e, t) {
			return false, gf.errViol
		}
		probes[j] = probe{h: h, entry: e}
	}
	if !g.st.Insts[scheme].Add(t) {
		return false, nil // duplicate tuple: state and indexes unchanged
	}
	// New entries copy t's witness values into the guard's own arena — the
	// instance's columnar storage recycles row slots, so nothing there is
	// stable enough to reference.
	for j := range fds {
		gf := &fds[j]
		if e := probes[j].entry; e >= 0 {
			gf.entries[e].n++
		} else {
			gf.insertEntry(probes[j].h, t)
		}
	}
	return true, nil
}

// Delete implements Maintainer. Deletions are always admissible; the work is
// unwinding the FD indexes so a later insert is judged against the remaining
// tuples only.
func (g *Guard) Delete(scheme int, t relation.Tuple) (bool, error) {
	if scheme < 0 || scheme >= len(g.fds) {
		return false, fmt.Errorf("maintenance: no scheme %d", scheme)
	}
	if !g.st.Insts[scheme].Remove(t) {
		return false, nil
	}
	fds := g.fds[scheme]
	for j := range fds {
		gf := &fds[j]
		h := relation.HashCols(t, gf.lhsCols)
		if e := gf.lookup(h, t); e >= 0 {
			if gf.entries[e].n--; gf.entries[e].n == 0 {
				gf.removeEntry(h, e)
			}
		}
	}
	return true, nil
}

// Apply applies a batch under policy p (see Policy and walk). Either policy
// admits each insert through InsertReport, the same per-relation check a
// single insert takes.
func (g *Guard) Apply(ops []Op, p Policy) (Result, error) {
	if err := checkSchemes(ops, len(g.fds)); err != nil {
		return Result{}, err
	}
	return walk(g, ops, p)
}

// State implements Maintainer.
func (g *Guard) State() *relation.State { return g.st }

// ChaseMaintainer is the general maintainer: every insert is admitted only
// if the chase of the new state under F ∪ {*D} finds no contradiction.
// Sound for any schema, but exponential in the worst case (Theorem 1 says
// this is unavoidable in general).
//
// Without a join dependency (jd=false, the FD-only chase Lemma 4 licenses
// whenever every FD is embedded), the maintainer is incremental: it keeps
// one chase engine padded with the whole state and chased to fixpoint, and
// a trial insert pads just the candidate tuple and chases its consequences
// — no state clone, no re-chase of old rows. A rejected trial poisons the
// engine (symbol merges cannot be undone), so it is lazily rebuilt from the
// unchanged state before the next trial; deletions poison it the same way.
// Accepting workloads therefore pay O(consequences) per insert and rebuild
// never.
//
// With a join dependency the JD-rule's row growth defeats incremental
// reuse, so each insert re-chases — but still without cloning the state:
// the candidate is padded on top of it (chase.SatisfiesWith).
type ChaseMaintainer struct {
	s    *schema.Schema
	fds  fd.List
	sfds fd.List // fds.Split(), the form the engine consumes
	st   *relation.State
	jd   bool
	caps chase.Caps

	eng   *chase.Engine // persistent incremental engine (jd=false only)
	stale bool          // eng no longer mirrors st and must be rebuilt
}

// NewChaseMaintainer builds a chase-based maintainer with an empty state.
// Pass jd=false when every FD is embedded (Lemma 4 makes the join
// dependency irrelevant, and the FD-only chase is polynomial).
func NewChaseMaintainer(s *schema.Schema, fds fd.List, jd bool, caps chase.Caps) *ChaseMaintainer {
	return &ChaseMaintainer{
		s: s, fds: fds, sfds: fds.Split(), st: relation.NewState(s), jd: jd, caps: caps,
	}
}

// Insert implements Maintainer by trial insertion and a full chase.
func (m *ChaseMaintainer) Insert(scheme int, t relation.Tuple) error {
	_, err := m.InsertReport(scheme, t)
	return err
}

// engine returns the incremental engine, rebuilding it from the state when
// absent or poisoned. A maintained state always satisfies the FDs, so the
// rebuild chase cannot fail; a failure would mean corruption and is
// reported.
func (m *ChaseMaintainer) engine() (*chase.Engine, error) {
	if m.eng != nil && !m.stale {
		return m.eng, nil
	}
	e := chase.NewEngine(m.s.U)
	e.PadState(m.st)
	if err := e.ChaseFDs(m.sfds, m.caps); err != nil {
		return nil, fmt.Errorf("maintenance: maintained state fails its own chase: %w", err)
	}
	m.eng, m.stale = e, false
	return e, nil
}

// tryInsert pads the candidate tuples into the incremental engine and
// chases their consequences. On contradiction the engine is poisoned and a
// violation returned; the state itself is never touched.
func (m *ChaseMaintainer) tryInsert(ops []Op) error {
	e, err := m.engine()
	if err != nil {
		return err
	}
	for _, op := range ops {
		e.PadTuple(m.s.Attrs(op.Scheme).Attrs(), op.Tuple)
	}
	if err := e.ChaseFDs(m.sfds, m.caps); err != nil {
		m.stale = true
		if e.Failed {
			return fmt.Errorf("%w: chase found a contradiction", ErrViolation)
		}
		return err
	}
	return nil
}

// InsertReport is Insert, additionally reporting whether the tuple was
// actually added. Duplicates short-circuit without a chase: re-adding a
// present tuple cannot change satisfaction.
func (m *ChaseMaintainer) InsertReport(scheme int, t relation.Tuple) (bool, error) {
	if scheme < 0 || scheme >= len(m.st.Insts) {
		return false, fmt.Errorf("maintenance: no scheme %d", scheme)
	}
	if m.st.Insts[scheme].Has(t) {
		return false, nil
	}
	if m.jd {
		ok, err := chase.SatisfiesWith(m.st, []chase.Extra{{Scheme: scheme, Tuple: t}},
			m.fds, true, m.caps)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, fmt.Errorf("%w: chase found a contradiction", ErrViolation)
		}
	} else if err := m.tryInsert([]Op{{Scheme: scheme, Tuple: t}}); err != nil {
		return false, err
	}
	m.st.Insts[scheme].Add(t)
	return true, nil
}

// Apply applies a batch under policy p, with Guard.Apply's contract. A
// Partial batch takes walk, one trial chase per insert. An Atomic batch
// takes one trial chase for all its inserts together: either they are
// admissible together and are added, or the state is left unchanged and the
// violation (or budget error) is returned; then walk applies the deletes.
func (m *ChaseMaintainer) Apply(ops []Op, p Policy) (Result, error) {
	if err := checkSchemes(ops, len(m.st.Insts)); err != nil {
		return Result{}, err
	}
	if p == Partial {
		return walk(m, ops, p)
	}
	var r Result
	for _, op := range ops {
		if op.Delete || m.st.Insts[op.Scheme].Has(op.Tuple) {
			continue
		}
		// Materialize the incremental engine from the pre-batch state before
		// touching it: a lazy rebuild below would otherwise pad the candidate
		// tuples as settled fact and misread the batch's own violation as
		// state corruption.
		if r.Changed == nil && !m.jd {
			if _, err := m.engine(); err != nil {
				return Result{}, err
			}
		}
		// Add now so in-batch duplicates collapse; roll back below unless
		// the whole batch chases clean.
		m.st.Insts[op.Scheme].Add(op.Tuple)
		r.appendChanged(op, len(ops))
	}
	if len(r.Changed) > 0 {
		var err error
		if m.jd {
			var ok bool
			if ok, err = chase.Satisfies(m.st, m.fds, true, m.caps); err == nil && !ok {
				err = fmt.Errorf("%w: chase found a contradiction", ErrViolation)
			}
		} else {
			err = m.tryInsert(r.Changed)
		}
		if err != nil {
			for i := len(r.Changed) - 1; i >= 0; i-- {
				m.st.Insts[r.Changed[i].Scheme].Remove(r.Changed[i].Tuple)
			}
			return Result{}, err
		}
	}
	// The inserts are in, so walk finds each present and applies the deletes.
	d, err := walk(m, ops, Atomic)
	r.Changed, r.Done = append(r.Changed, d.Changed...), d.Done
	return r, err
}

// Delete implements Maintainer. No chase is needed: SAT is closed under
// subsets, so removing a tuple can never break satisfaction. The
// incremental engine cannot un-merge the removed tuple's consequences, so
// it is rebuilt before the next trial insert.
func (m *ChaseMaintainer) Delete(scheme int, t relation.Tuple) (bool, error) {
	if scheme < 0 || scheme >= len(m.st.Insts) {
		return false, fmt.Errorf("maintenance: no scheme %d", scheme)
	}
	removed := m.st.Insts[scheme].Remove(t)
	if removed {
		m.stale = true
	}
	return removed, nil
}

// State implements Maintainer.
func (m *ChaseMaintainer) State() *relation.State { return m.st }

// ForSchema picks the right maintainer for a schema: the O(|F_i|) Guard
// when the independence decision procedure accepts, otherwise the chase
// maintainer. The boolean reports which one was chosen.
func ForSchema(s *schema.Schema, fds fd.List, caps chase.Caps) (Maintainer, bool, error) {
	res, err := independence.Decide(s, fds)
	if err != nil {
		return nil, false, err
	}
	if res.Independent {
		return NewGuard(s, res.Cover), true, nil
	}
	return NewChaseMaintainer(s, fds, res.JD, caps), false, nil
}
