// Package query evaluates window queries — the paper's X-total projections
// of the representative instance — over immutable database states.
//
// The representative instance of a state p is the chase of the padded
// universal relation I(p); the window [X] for an attribute set X is the
// projection onto X of its X-total rows (rows whose X columns all resolved
// to constants). Windows are the natural query semantics for weak-instance
// databases: they answer "what does the state, plus everything the
// dependencies force, say about X?" without inventing values.
//
// The payoff of independence is that windows are computable
// relation-by-relation. For an independent schema, the decision procedure
// keeps each scheme's accepted Loop run (independence.Result.Runs), and the
// evaluator reads its extension data from there: any tuple of r_l
// extends to a universal tuple whose determined attributes are computed by
// tiny tableau valuations (Theorem 5), so the window is the union, over
// relations, of the X-total tuple extensions — local joins, no global
// chase. For any other schema the Evaluator falls back to chasing the
// padded state, which is the honest exponential-worst-case cost the paper's
// Theorem 1 imposes.
//
// Plans are cached per attribute set: deciding which relations contribute
// to a window, which they consult, and on which attributes a contributor's
// tuple fixes its extension, happens once per distinct X, so repeated
// windows skip straight to evaluation. A relation whose extensions reach X
// only through tuples of another contributor holding X, tuples that
// determine the whole answer row, adds no row and is not read: a dimension
// point window on a star schema reads the dimension alone. A plan compile
// reads the decision's runs and cover and never runs The Loop.
//
// An evaluation costs its distinct keys and its answer rows, not its
// probed rows: a contributor's probed rows that agree on its extension key
// extend once, and the answer is collected by a relation.Builder, which
// deduplicates only when the plan can repeat a row and builds no index.
// Evaluators are safe for concurrent use; evaluation never mutates the
// state it reads, so callers may share one immutable snapshot across any
// number of concurrent Window calls.
package query

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/relation"
	"indep/internal/schema"
)

// Evaluator answers window queries for one schema, from the extension data
// its decision kept. Create with NewEvaluator; all methods are safe for
// concurrent use.
type Evaluator struct {
	s    *schema.Schema
	fds  fd.List
	caps chase.Caps

	// Fast path (independent schemas): runs[l] is scheme l's accepted Loop
	// run, and cover the embedded cover H, both taken from the decision and
	// immutable.
	fast  bool
	runs  []*independence.AcceptedRun
	cover infer.AssignedList

	// Chase path: jd reports whether the fallback chase must apply the
	// join-dependency rule (the decision's Result.JD).
	jd bool

	// mu guards plans.
	mu    sync.Mutex
	plans map[attrset.Set]*Plan

	queries    atomic.Uint64
	planHits   atomic.Uint64
	fastEvals  atomic.Uint64
	chaseEvals atomic.Uint64
}

// Stats is a point-in-time view of an evaluator's counters.
type Stats struct {
	Queries    uint64 // Window calls
	PlanHits   uint64 // queries answered from the plan cache
	FastEvals  uint64 // windows evaluated relation-by-relation
	ChaseEvals uint64 // windows evaluated by the fallback chase
}

// NewEvaluator builds an evaluator from an independence analysis result
// (the same Result the engine and the public Analysis are built from). It
// reads the extension data and the JD flag the decision recorded and runs
// no analysis of its own.
func NewEvaluator(s *schema.Schema, fds fd.List, res *independence.Result, caps chase.Caps) *Evaluator {
	return &Evaluator{
		s:     s,
		fds:   fds,
		caps:  caps,
		fast:  res.Independent,
		runs:  res.Runs,
		cover: res.Cover,
		jd:    res.JD,
		plans: make(map[attrset.Set]*Plan),
	}
}

// Fast reports whether windows evaluate relation-by-relation (independent
// schema) rather than through the serialized chase.
func (ev *Evaluator) Fast() bool { return ev.fast }

// Stats returns the evaluator's operation counters.
func (ev *Evaluator) Stats() Stats {
	return Stats{
		Queries:    ev.queries.Load(),
		PlanHits:   ev.planHits.Load(),
		FastEvals:  ev.fastEvals.Load(),
		ChaseEvals: ev.chaseEvals.Load(),
	}
}

// Plan is a compiled window query for one attribute set: which relations
// can contribute tuples and, for the fast path, their extension data, each
// contributor's extension key, and whether two contributions can be the
// same answer row. Plans are immutable and cached by the evaluator, so
// repeated windows over the same attribute set skip the closure and
// join-order computation.
type Plan struct {
	// X is the window attribute set the plan answers.
	X attrset.Set
	// Fast reports whether the plan evaluates relation-by-relation.
	Fast bool
	// Schemes lists the relations that contribute: each scheme l whose
	// extensions can determine all of X (X ⊆ R_l⁺), less those another
	// contributor subsumes, which could add no row (Evaluator.subsumed).
	// Chase plans leave it nil — the chase always consults the whole state.
	Schemes []int

	// runs[i] is the extension data for Schemes[i].
	runs []*independence.AcceptedRun
	// keys[i] is the extension key of Schemes[i] = l: R_l ∩ (X ∪ the DVs
	// of run.Consulted(X)'s rows). ExtendFor binds a tuple's values on R_l,
	// and a valuation reads a bound value only at a row's distinguished
	// column, so the tuple's extension to X \ R_l — whether it exists and
	// its values — is a function of its values on the key, and so is its
	// answer row. Tuples agreeing on the key extend once.
	keys []attrset.Set
	// distinct reports that evaluation must deduplicate answer rows. Only a
	// plan with one contributor whose scheme lies inside X cannot repeat a
	// row: each answer row then holds all of one distinct tuple.
	distinct bool
	// consults is what Consults returns.
	consults []Consult
}

// Consult is one scheme a fast-path evaluation may read. Agree holds the
// attributes on which every tuple of it the evaluation reads equals the
// universal tuple ī being built (Theorem 5): all of the scheme for a
// contributor's own tuples, a row's DVs for a tuple a tableau valuation
// reads (independence.AcceptedRun.Consulted), and their intersection when
// the scheme plays several parts. A tuple that helps produce an answer row
// therefore agrees with that row on X ∩ Agree: a selection on those
// attributes may be applied to the scheme before evaluating without
// changing the selected window.
type Consult struct {
	Scheme int
	Agree  attrset.Set
}

// Consults returns every scheme an evaluation of the plan may read: the
// contributors plus those the tableaux of each X \ R_l take valuations
// against. Chase plans return nil — the chase always consults the whole
// state. The result is sorted by scheme; it is the gather set a cluster
// router must fetch before evaluating the window away from the data.
func (p *Plan) Consults() []Consult { return p.consults }

// planConsults computes a fast plan's Consults and, from the same rows,
// its contributors' extension keys.
func planConsults(s *schema.Schema, p *Plan) []Consult {
	agree := make(map[int]attrset.Set)
	meet := func(l int, cols attrset.Set) {
		if prev, ok := agree[l]; ok {
			cols = cols.Intersect(prev)
		}
		agree[l] = cols
	}
	p.keys = make([]attrset.Set, len(p.Schemes))
	for i, l := range p.Schemes {
		meet(l, s.Attrs(l))
		key := p.X
		for _, row := range p.runs[i].Consulted(p.X) {
			meet(row.Tag, row.DVs)
			key = key.Union(row.DVs)
		}
		p.keys[i] = key.Intersect(s.Attrs(l))
	}
	out := make([]Consult, 0, len(agree))
	for l, cols := range agree {
		out = append(out, Consult{Scheme: l, Agree: cols})
	}
	slices.SortFunc(out, func(a, b Consult) int { return a.Scheme - b.Scheme })
	return out
}

// MaxCachedPlans bounds the plan cache. Attribute sets come straight from
// clients (GET /v1/window), so an unbounded cache would let a scan of
// distinct subsets grow the daemon's memory without limit; past the cap,
// new attribute sets are still answered, just re-planned per query.
const MaxCachedPlans = 4096

// Plan compiles (or fetches from cache) the plan for the window [x]. The
// boolean reports a cache hit.
func (ev *Evaluator) Plan(x attrset.Set) (*Plan, bool, error) {
	if x.IsEmpty() {
		return nil, false, fmt.Errorf("query: empty window attribute set")
	}
	if !x.SubsetOf(ev.s.U.All()) {
		return nil, false, fmt.Errorf("query: window attributes outside the universe")
	}
	ev.mu.Lock()
	if p, ok := ev.plans[x]; ok {
		ev.mu.Unlock()
		ev.planHits.Add(1)
		return p, true, nil
	}
	ev.mu.Unlock()

	p := &Plan{X: x, Fast: ev.fast}
	if ev.fast {
		for l, run := range ev.runs {
			if !x.SubsetOf(run.Available()) {
				continue // no tuple of r_l can be X-total in its extension
			}
			if ev.subsumed(x, run) {
				continue // another contributor gives every row r_l could
			}
			p.Schemes = append(p.Schemes, l)
			p.runs = append(p.runs, run)
		}
		p.distinct = len(p.Schemes) != 1 || !ev.s.Attrs(p.Schemes[0]).SubsetOf(x)
		p.consults = planConsults(ev.s, p)
	}
	ev.mu.Lock()
	if prev, ok := ev.plans[x]; ok { // raced with another planner
		p = prev
	} else if len(ev.plans) < MaxCachedPlans {
		ev.plans[x] = p
	}
	ev.mu.Unlock()
	return p, false, nil
}

// subsumed reports whether a contributor m with X ⊆ R_m gives every answer
// row run's scheme l could, so that l need not be read. That holds when l
// extends to X \ R_l through m alone: every tableau T(A), A ∈ X \ R_l, has
// a row tagged m, and K, the intersection of those rows' DVs, determines X
// under m's cover FDs. An X-total extension ī of a tuple of r_l maps each
// such row to a tuple u of r_m agreeing with ī on K; the representative
// instance satisfies K → X, so ī[X] = u[X], which m gives itself, and
// which passes any selection ī[X] passes. The candidates m are exactly the
// contributors whose scheme holds X, since R_m ⊆ R_m⁺.
func (ev *Evaluator) subsumed(x attrset.Set, run *independence.AcceptedRun) bool {
	rl := ev.s.Attrs(run.Scheme())
	if x.SubsetOf(rl) {
		return false
	}
	n := ev.s.U.Size()
	for m := range ev.runs {
		if m == run.Scheme() || !x.SubsetOf(ev.s.Attrs(m)) {
			continue
		}
		k, reads := ev.s.Attrs(m), true
		for a := 0; a < n && reads; a++ {
			if !x.Has(a) || rl.Has(a) {
				continue
			}
			reads = false
			for _, row := range run.Tableau(a) {
				if row.Tag == m {
					k, reads = k.Intersect(row.DVs), true
				}
			}
		}
		if reads && x.SubsetOf(ev.closure(m, k)) {
			return true
		}
	}
	return false
}

// closure returns k's closure under the cover FDs assigned to scheme m, the
// FDs the guard checks on r_m.
func (ev *Evaluator) closure(m int, k attrset.Set) attrset.Set {
	for grown := true; grown; {
		grown = false
		for _, f := range ev.cover {
			if f.Scheme == m && f.LHS.SubsetOf(k) && !f.RHS.SubsetOf(k) {
				k, grown = k.Union(f.RHS), true
			}
		}
	}
	return k
}

// Result is the outcome of one window evaluation.
type Result struct {
	// X is the window attribute set.
	X attrset.Set
	// Rows is the window: an instance over X holding the X-total projection
	// of the representative instance, its rows distinct. A relation.Builder
	// collects it, so it has no primary index until a membership probe
	// builds one.
	Rows *relation.Instance
	// Fast reports relation-by-relation evaluation (no chase).
	Fast bool
	// PlanCached reports that the plan came from the cache.
	PlanCached bool
	// Plan is the compiled plan the evaluation executed, for EXPLAIN.
	Plan *Plan
	// Scanned[i] counts the rows of Plan.Schemes[i] the fast path visited.
	Scanned []int
	// Extended[i] counts the rows of Plan.Schemes[i] the fast path extended
	// to the window: one per distinct extension key among the visited rows
	// (see Plan.keys), and every visited row of a contributor holding the
	// window, which is its own extension.
	Extended []int
}

// Cond is one equality condition of a window selection: Attr = Val.
type Cond struct {
	Attr int
	Val  relation.Value
}

// Unseen is what Resolve gives a name the dictionary lacks; no tuple has it.
const Unseen relation.Value = -1

// Resolve turns attribute → value-name conditions into a selection ordered
// by attribute, looking the names up without interning them.
func Resolve(d *relation.Dict, where map[int]string) []Cond {
	var sel []Cond
	for a, name := range where {
		v, ok := d.Lookup(name)
		if !ok {
			v = Unseen
		}
		sel = append(sel, Cond{Attr: a, Val: v})
	}
	slices.SortFunc(sel, func(a, b Cond) int { return a.Attr - b.Attr })
	return sel
}

// Window computes the window [x] over the state: Query with no selection.
func (ev *Evaluator) Window(st *relation.State, x attrset.Set) (*Result, error) {
	return ev.Query(st, x, nil)
}

// Query computes the rows of the window [x] satisfying every condition of
// sel over an immutable state. The fallback chase can exhaust its budget
// (chase.ErrBudget) or report a state's violation of the dependencies.
func (ev *Evaluator) Query(st *relation.State, x attrset.Set, sel []Cond) (*Result, error) {
	ev.queries.Add(1)
	plan, cached, err := ev.Plan(x)
	if err != nil {
		return nil, err
	}
	for _, c := range sel {
		if !x.Has(c.Attr) {
			return nil, fmt.Errorf("query: selection attribute %d outside the window", c.Attr)
		}
	}
	res := &Result{X: x, Fast: plan.Fast, PlanCached: cached, Plan: plan}
	if plan.Fast {
		ev.fastEvals.Add(1)
		res.Rows, res.Scanned, res.Extended = evalFast(plan, st, sel)
		return res, nil
	}
	ev.chaseEvals.Add(1)
	if res.Rows, err = ev.evalChase(st, x); err != nil {
		return nil, err
	}
	if len(sel) > 0 {
		slots, _ := probe(res.Rows, sel)
		kept := relation.NewBuilder(x.Len(), len(slots), false) // rows of a set stay distinct
		var row relation.Tuple
		for _, s := range slots {
			row = res.Rows.AppendRow(row[:0], s)
			kept.Append(row)
		}
		res.Rows = kept.Instance(x)
	}
	return res, nil
}

// probe returns the live slots of inst matching sel on inst's attributes,
// and sel's attributes outside them.
func probe(inst *relation.Instance, sel []Cond) ([]int32, attrset.Set) {
	var colBuf [8]int // probe keys stay on the stack
	var valBuf [8]relation.Value
	cols, vals := colBuf[:0], valBuf[:0]
	var outer attrset.Set
	for _, c := range sel {
		if !inst.Attrs.Has(c.Attr) {
			outer.Add(c.Attr)
			continue
		}
		cols, vals = append(cols, inst.Attrs.Rank(c.Attr)), append(vals, c.Val)
	}
	return inst.MatchingRows(cols, vals), outer
}

// RelScan is one relation an executed plan consulted, with the number of
// tuples it scanned.
type RelScan struct {
	Relation string
	Rows     int
}

// Explain describes the executed plan of one window evaluation against the
// state it ran over: the chosen mode, whether the plan came from the cache,
// which relations contributed (with per-relation rows scanned), and — on
// the fast path — which relations the planner pruned: those whose extension
// closure (Available()) does not hold the window, and those a contributor
// holding the window subsumes (see Evaluator.subsumed).
type Explain struct {
	Mode       string // "fast" (Theorem 5 extension joins) or "chase"
	PlanCached bool
	Relations  []RelScan
	Pruned     []string
}

// Explain reconstructs the executed plan of res over st. The chase mode
// consults the whole padded state, so every relation is listed and nothing
// is pruned.
func (ev *Evaluator) Explain(res *Result, st *relation.State) *Explain {
	ex := &Explain{PlanCached: res.PlanCached}
	if res.Fast {
		ex.Mode = "fast"
		member := make([]bool, ev.s.Size())
		for i, l := range res.Plan.Schemes {
			member[l] = true
			ex.Relations = append(ex.Relations, RelScan{Relation: ev.s.Name(l), Rows: res.Scanned[i]})
		}
		for l := 0; l < ev.s.Size(); l++ {
			if !member[l] {
				ex.Pruned = append(ex.Pruned, ev.s.Name(l))
			}
		}
		return ex
	}
	ex.Mode = "chase"
	for l := 0; l < ev.s.Size(); l++ {
		ex.Relations = append(ex.Relations, RelScan{Relation: ev.s.Name(l), Rows: st.Insts[l].Len()})
	}
	return ex
}

// probeHits is one contributor's probe: its matching slots and the
// selected attributes outside its scheme.
type probeHits struct {
	slots []int32
	outer attrset.Set
}

// evalFast is the independent-schema window: the union over contributors
// of the X-total extensions of their probed rows (Theorem 5) satisfying
// sel. A row extends to sel's attributes outside its scheme first, rejected
// at the first mismatch, then to the rest of X. Of the probed rows that
// agree on their contributor's extension key only the first extends: the
// others would give its answer row, or none, again. Every probed row still
// counts as scanned, and the rows that extend count as extended.
func evalFast(p *Plan, st *relation.State, sel []Cond) (rows *relation.Instance, scanned, extended []int) {
	// Probe every contributor first, and size the answer from the ones whose
	// rows are their own extensions: each such row is at most one answer row.
	// An extending contributor can probe many rows for few answers (a point
	// window over a dimension probes every fact row carrying the key), so
	// its rows add no room.
	var probeBuf [8]probeHits // a plan's contributors stay on the stack
	probed := probeBuf[:0]
	counts := make([]int, 2*len(p.Schemes)) // scanned, then extended
	scanned, extended = counts[:len(p.Schemes)], counts[len(p.Schemes):]
	size := 0
	for i, l := range p.Schemes {
		inst := st.Insts[l]
		slots, outer := probe(inst, sel)
		probed = append(probed, probeHits{slots, outer})
		scanned[i] = len(slots)
		if p.X.SubsetOf(inst.Attrs) {
			size += len(slots)
		}
	}
	out := relation.NewBuilder(p.X.Len(), size, p.distinct)
	n := st.Schema.U.Size()
	var colBuf, keyColBuf, posBuf [16]int // column maps, rows and keys stay on the stack
	var projBuf, keyBuf, rowBuf [16]relation.Value
	cols := appendAttrs(colBuf[:0], p.X, n)
	proj, row := scratch(projBuf[:], len(cols)), relation.Tuple(rowBuf[:0])
	var keys relation.Builder
	var sc independence.Scratch
	for i, l := range p.Schemes {
		inst := st.Insts[l]
		slots, outer := probed[i].slots, probed[i].outer
		if p.X.SubsetOf(inst.Attrs) { // the row is its own extension
			extended[i] = len(slots)
			pos := appendRanks(posBuf[:0], inst.Attrs, cols)
			for _, s := range slots {
				for j, c := range pos {
					proj[j] = inst.At(s, c)
				}
				out.Append(proj)
			}
			continue
		}
		// Group on the key only when it is narrower than the scheme and two
		// rows could share it.
		var keyPos []int
		var key relation.Tuple
		if k := p.keys[i]; k != inst.Attrs && len(slots) >= 2 {
			keyPos = appendRanks(posBuf[:0], inst.Attrs, appendAttrs(keyColBuf[:0], k, n))
			key = scratch(keyBuf[:], len(keyPos))
			keys.Reset(len(keyPos), len(slots), true)
		}
		run := p.runs[i]
	rows:
		for _, s := range slots {
			if keyPos != nil {
				for j, c := range keyPos {
					key[j] = inst.At(s, c)
				}
				if !keys.Append(key) {
					continue
				}
			}
			extended[i]++
			row = inst.AppendRow(row[:0], s)
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
			out.Append(proj)
		}
	}
	return out.Instance(p.X), scanned, extended
}

// scratch returns buf's first n values, or fresh ones when buf is shorter.
func scratch(buf []relation.Value, n int) relation.Tuple {
	if n <= len(buf) {
		return buf[:n]
	}
	return make(relation.Tuple, n)
}

// appendAttrs appends x's attributes, ascending, to dst; n bounds them.
func appendAttrs(dst []int, x attrset.Set, n int) []int {
	for a := 0; a < n; a++ {
		if x.Has(a) {
			dst = append(dst, a)
		}
	}
	return dst
}

// appendRanks appends each attribute's column position within the scheme
// attrs to dst.
func appendRanks(dst []int, attrs attrset.Set, sub []int) []int {
	for _, a := range sub {
		dst = append(dst, attrs.Rank(a))
	}
	return dst
}

// evalChase is the general window: chase the padded state to the
// representative instance, then take the X-total projection.
func (ev *Evaluator) evalChase(st *relation.State, x attrset.Set) (*relation.Instance, error) {
	e := chase.NewEngine(ev.s.U)
	e.PadState(st)
	var jdSchema *schema.Schema
	if ev.jd {
		jdSchema = ev.s
	}
	if err := e.Chase(ev.fds, jdSchema, ev.caps); err != nil {
		return nil, err
	}
	return e.TotalProjection(x), nil
}
