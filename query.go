package indep

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"indep/internal/engine"
	"indep/internal/obs"
	"indep/internal/query"
	"indep/internal/relation"
)

// WindowQuery describes a window query: the X-total projection of the
// representative instance for the attribute set Attrs, optionally filtered,
// projected, and truncated. Windows are the weak-instance answer to "what
// does the database say about these attributes?": a row appears iff the
// state, plus everything the dependencies force, determines a value for
// every requested attribute.
type WindowQuery struct {
	// Attrs is the window attribute set X (required, any attributes of the
	// universe — they need not lie in one relation).
	Attrs []string
	// Where keeps only rows whose attribute equals the named value. Keys
	// must be attributes of Attrs; a value the store has never seen matches
	// nothing.
	Where map[string]string
	// Project, when non-empty, projects the filtered window onto this
	// subset of Attrs (duplicates collapse).
	Project []string
	// Limit, when positive, caps the number of returned rows (applied after
	// filtering, projection, and sorting, so results are deterministic).
	Limit int
	// Explain, when set, attaches the executed plan to the result: fast path
	// vs chase, plan-cache hit, per-relation rows scanned, pruned relations,
	// and (on a store) snapshot reuse. The query still runs normally.
	Explain bool
	// BinaryResult, when set, skips the rendered Rows maps and emits the
	// result as the length-prefixed binary encoding instead (WindowResult.Bin,
	// decoded by DecodeWindowBinary) — the shape the daemon serves under
	// Accept: application/x-indep-bin. Rows is nil on such a result.
	BinaryResult bool
}

// RelationScan is one relation a window evaluation consulted, with the
// number of its rows visited: the live rows, or those a Where probe kept.
type RelationScan struct {
	Relation string `json:"relation"`
	Rows     int    `json:"rows"`
}

// WindowExplain describes the plan a window query actually executed. The
// same facts are recorded as span attributes on traced requests, so a
// flight-recorder trace and an explain=1 response can never disagree.
type WindowExplain struct {
	// Mode is "fast" (Theorem 5 extension joins, relation-by-relation) or
	// "chase" (padded state chased to the representative instance).
	Mode string `json:"mode"`
	// PlanCached reports the compiled plan came from the evaluator's cache.
	PlanCached bool `json:"planCached"`
	// SnapshotReused reports the evaluation ran over the cached snapshot
	// without taking any lock (always false for a plain Database query,
	// which has no snapshot cache).
	SnapshotReused bool `json:"snapshotReused"`
	// StoreVersion is the store mutation version the snapshot reflects
	// (0 for a plain Database query).
	StoreVersion uint64 `json:"storeVersion"`
	// Relations lists the relations the evaluation consulted with their
	// scanned row counts. The chase consults the whole state.
	Relations []RelationScan `json:"relations"`
	// Pruned lists relations the planner ruled out (fast path only):
	// those whose extension closure does not hold the window, and those
	// subsumed by a relation holding it, which gives every row they could.
	Pruned []string `json:"pruned,omitempty"`
}

// WindowResult is the outcome of a window query.
type WindowResult struct {
	// Attrs names the output columns — the window's attributes (restricted
	// to Project when given) in universe order, i.e. the order attributes
	// first appear in the schema declaration, not the order they were
	// requested in. Rows are keyed by name, so only positional consumers
	// need to care.
	Attrs []string
	// Rows holds the result as attribute-name → value-name maps, sorted
	// column by column for deterministic output: by the first column's
	// names, compared bytewise, then the second's, and so on.
	Rows []map[string]string
	// Total is the number of window rows after filtering and projection,
	// before Limit.
	Total int
	// FastPath reports relation-by-relation evaluation (independent schema:
	// local extension joins, no global chase).
	FastPath bool
	// PlanCached reports that the compiled plan for Attrs came from the
	// evaluator's cache.
	PlanCached bool
	// Explain is the executed plan, present iff the query set Explain.
	Explain *WindowExplain `json:"explain,omitempty"`
	// Bin is the binary encoding of the result, present iff the query set
	// BinaryResult (Rows is nil then); DecodeWindowBinary parses it.
	Bin []byte `json:"-"`
}

// QueryStats re-exports the engine's query-side counters: window queries
// served, plan-cache hits, fast vs chase evaluations, and how often the
// lock-free snapshot cache could be reused.
type QueryStats = engine.QueryStats

// Window computes the window [attrs] over a consistent snapshot of the
// store. Equivalent to Query(WindowQuery{Attrs: attrs}).
func (cs *ConcurrentStore) Window(attrs ...string) (*WindowResult, error) {
	return cs.Query(WindowQuery{Attrs: attrs})
}

// Query evaluates a window query over a consistent snapshot of the store.
// Evaluation is lock-free: writers are never blocked by a running query,
// and a query never observes a half-applied batch. For an independent
// schema the window is computed relation-by-relation through the extension
// joins of Theorem 5; otherwise the padded state is chased, which can
// exhaust the chase budget (test with Overloaded). Plans are cached per
// attribute set, so repeated windows skip plan compilation.
func (cs *ConcurrentStore) Query(q WindowQuery) (*WindowResult, error) {
	return cs.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with the context's trace ID attached to any slow-query
// log record; a traced context additionally records a store.query span
// whose engine.window child carries the explain attributes.
func (cs *ConcurrentStore) QueryCtx(ctx context.Context, q WindowQuery) (*WindowResult, error) {
	ctx, sp := obs.StartSpan(ctx, "store.query")
	defer sp.End()
	x, where, err := cs.schema.windowArgs(q)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, st, meta, err := cs.eng.WindowMetaCtx(ctx, x, where, q.Explain)
	var out *WindowResult
	if err == nil {
		rsp := sp.StartChild("store.render")
		out, err = finishWindow(cs.schema, st, res, q, rsp)
		rsp.End()
	}
	cs.eng.ObserveWindow(ctx, x, time.Since(start), err)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		out.Explain = newWindowExplain(meta.Explain, meta.SnapshotReused, meta.Version)
	}
	return out, nil
}

// newWindowExplain converts the evaluator's explain record plus the store's
// snapshot facts into the public shape.
func newWindowExplain(ex *query.Explain, reused bool, version uint64) *WindowExplain {
	if ex == nil {
		return nil
	}
	we := &WindowExplain{
		Mode:           ex.Mode,
		PlanCached:     ex.PlanCached,
		SnapshotReused: reused,
		StoreVersion:   version,
		Relations:      make([]RelationScan, len(ex.Relations)),
		Pruned:         ex.Pruned,
	}
	for i, rs := range ex.Relations {
		we.Relations[i] = RelationScan{Relation: rs.Relation, Rows: rs.Rows}
	}
	return we
}

// QueryStats returns the store's query-side counters.
func (cs *ConcurrentStore) QueryStats() QueryStats { return cs.eng.QueryStats() }

// Window computes the window [attrs] over this database state. Equivalent
// to Query(WindowQuery{Attrs: attrs}).
func (db *Database) Window(attrs ...string) (*WindowResult, error) {
	return db.Query(WindowQuery{Attrs: attrs})
}

// Query evaluates a window query over this database state (for example a
// ConcurrentStore snapshot, or a hand-built state). The state must satisfy
// the dependencies — maintained states and snapshots always do; for a
// hand-built inconsistent state the chase path reports the contradiction
// and the fast path's answers are meaningless. Store snapshots carry their
// store's evaluator (shared plan cache, queries counted in the store's
// QueryStats); other databases share one evaluator per Schema.
func (db *Database) Query(q WindowQuery) (*WindowResult, error) {
	x, where, err := db.schema.windowArgs(q)
	if err != nil {
		return nil, err
	}
	ev := db.qev
	if ev == nil {
		if ev, err = db.schema.windowEvaluator(); err != nil {
			return nil, err
		}
	}
	res, err := ev.Query(db.st, x, query.Resolve(db.st.Dict, where))
	if err != nil {
		return nil, err
	}
	out, err := finishWindow(db.schema, db.st, res, q, nil)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		out.Explain = newWindowExplain(ev.Explain(res, db.st), false, 0)
	}
	return out, nil
}

// windowEvaluator returns the schema's shared window evaluator, built from
// the schema's one decision.
func (s *Schema) windowEvaluator() (*query.Evaluator, error) {
	_, ev, err := s.decision()
	return ev, err
}

// WindowFetch is one relation a window evaluation consults, with Where: the
// part of the query's Where that every tuple of the relation the evaluation
// reads satisfies (nil when no condition qualifies).
type WindowFetch struct {
	Relation string
	Where    map[string]string
}

// WindowFetches reports which relations an evaluation of q may read, each
// with the share of q.Where its tuples must satisfy to take part in an
// answer row. On the independent fast path that is the contributing
// relations plus every relation their extension tableaux of the window's
// attributes take valuations against — the exact set a cluster router must
// gather from shards before it can evaluate the window away from the data,
// because Theorem 5's extensions consult those relations and no others. A
// relation a contributor holding the window subsumes is no contributor, so
// a star schema's dimension point window fetches the dimension alone. For
// a non-independent schema fetches is nil and fast false: the fallback
// chase consults the whole state, so a router can only proxy the query to a
// node holding everything. cached reports that the plan came from the
// schema evaluator's cache, as WindowResult.PlanCached does.
//
// A tuple helps produce a row only through Theorem 5's extension joins, and
// agrees with that row on the relation's attributes for a contributor's own
// tuple, on the distinguished columns of the tableau row that reads it
// otherwise — not on every attribute the relation shares with the window:
// an FD's tableau row leaves the relation's other columns free. So q
// evaluates to the same answer over any state holding, of each fetched
// relation R, every tuple of R satisfying its Where and otherwise only
// tuples of R or of R's total projection.
func (s *Schema) WindowFetches(q WindowQuery) (fetches []WindowFetch, fast, cached bool, err error) {
	x, where, err := s.windowArgs(q)
	if err != nil {
		return nil, false, false, err
	}
	ev, err := s.windowEvaluator()
	if err != nil {
		return nil, false, false, err
	}
	p, cached, err := ev.Plan(x)
	if err != nil {
		return nil, false, false, err
	}
	if !p.Fast {
		return nil, false, cached, nil
	}
	for _, c := range p.Consults() {
		f := WindowFetch{Relation: s.s.Name(c.Scheme)}
		for a, v := range where {
			if c.Agree.Has(a) {
				if f.Where == nil {
					f.Where = make(map[string]string)
				}
				f.Where[s.s.U.Name(a)] = v
			}
		}
		fetches = append(fetches, f)
	}
	return fetches, true, cached, nil
}

// windowArgs resolves a query's window attributes and keys its Where by
// attribute; the values stay names until a state's dictionary resolves them.
func (s *Schema) windowArgs(q WindowQuery) (attrSetT, map[int]string, error) {
	x, err := s.attrSet(q.Attrs)
	if err != nil {
		return x, nil, err
	}
	where := make(map[int]string, len(q.Where))
	for name, val := range q.Where {
		i, ok := s.s.U.Index(name)
		if !ok {
			return x, nil, fmt.Errorf("indep: unknown attribute %q in Where", name)
		}
		if !x.Has(i) {
			return x, nil, fmt.Errorf("indep: Where attribute %s is not in the window %s",
				name, strings.Join(s.s.U.Names(x), " "))
		}
		where[i] = val
	}
	return x, where, nil
}

// finishWindow applies projection, limit, and name rendering to an
// evaluated (already selected) window, using the dictionary of the state
// the window was evaluated against. A recording span gets the answer's rows
// before Limit, the rows kept, and the bytes rendered: the binary answer's
// length, or the kept names' total length.
func finishWindow(s *Schema, st *relation.State, res *query.Result, q WindowQuery, sp *obs.Span) (*WindowResult, error) {
	rows := res.Rows
	outAttrs := res.X
	if len(q.Project) > 0 {
		y, err := s.attrSet(q.Project)
		if err != nil {
			return nil, err
		}
		if !y.SubsetOf(res.X) {
			return nil, fmt.Errorf("indep: projection %s is not a subset of the window %s",
				strings.Join(s.s.U.Names(y), " "), strings.Join(s.s.U.Names(res.X), " "))
		}
		rows = rows.Project(y)
		outAttrs = y
	}

	names := s.s.U.Names(outAttrs)
	out := &WindowResult{
		Attrs:      names,
		Total:      rows.Len(),
		FastPath:   res.Fast,
		PlanCached: res.PlanCached,
	}
	kept := rankInstance(st.Dict, rows, firstRows(st.Dict, rows, q.Limit))
	kept.sort()
	sp.SetInt("rows", int64(out.Total))
	sp.SetInt("kept", int64(kept.n))
	if q.BinaryResult {
		out.Bin = kept.encode(names, out.Total, out.FastPath, out.PlanCached)
		sp.SetInt("bytes", int64(len(out.Bin)))
		return out, nil
	}
	rendered := make([]map[string]string, kept.n)
	size := 0
	for i := range rendered {
		row := make(map[string]string, len(names))
		for j, r := range kept.row(i) {
			nm := kept.names[r]
			row[names[j]] = nm
			size += len(nm)
		}
		rendered[i] = row
	}
	out.Rows = rendered
	sp.SetInt("bytes", int64(size))
	return out, nil
}

// rankedRows is a window answer coded by name rank: names holds the
// distinct names its rows use, ascending bytewise, and each cell is its
// name's rank, its index in names. Two rows order column by column as their
// rank tuples do, so ordering, checking and merging answers compare
// integers, never names, and an answer's IWIN1 bytes (encode) depend only
// on its attributes, rows, total and flags.
type rankedRows struct {
	width int
	n     int // rows
	names []string
	cells []int32 // n × width ranks, row-major
}

// row returns row i's ranks.
func (t *rankedRows) row(i int) []int32 { return t.cells[i*t.width : (i+1)*t.width] }

// rankInstance codes the given slots of rows by name rank, in slot order.
func rankInstance(d *relation.Dict, rows *relation.Instance, slots []int32) rankedRows {
	var colBuf [16][]relation.Value // a window's columns stay on the stack
	cols := colBuf[:0]
	for j := 0; j < rows.Width(); j++ {
		cols = append(cols, rows.Col(j))
	}
	return rankRows(d, cols, slots)
}

// rankRows codes rows by name rank, in slot order: row i holds each
// column's value at slots[i]. Each distinct value's name is fetched once,
// and the names are sorted once, on their 8-byte prefixes (see sortNames).
func rankRows(d *relation.Dict, cols [][]relation.Value, slots []int32) rankedRows {
	w, n := len(cols), len(slots)
	// table is an open-addressed hash of value → 1 + its index in vals, at
	// most half full; each cell first holds its value's index in vals.
	mask := uint64(1)<<bits.Len(uint(2*n*w)) - 1
	ints := make([]int32, int(mask)+1+n*w)
	table, cells := ints[:mask+1], ints[mask+1:]
	vals := make([]relation.Value, 0, n*w)
	for j, col := range cols {
		for i, s := range slots {
			v := col[s]
			h := mixID(int64(v)) & mask
			for table[h] != 0 && vals[table[h]-1] != v {
				h = (h + 1) & mask
			}
			if table[h] == 0 {
				vals = append(vals, v)
				table[h] = int32(len(vals))
			}
			cells[i*w+j] = table[h] - 1
		}
	}
	nd := len(vals)
	names := make([]string, nd)
	keys := make([]rankKey, nd)
	for i, v := range vals {
		names[i] = d.Name(v)
		keys[i] = rankKey{prefix8(names[i]), int32(i)}
	}
	rank := table[:nd] // the hash is done with: rank[i] is vals[i]'s rank
	for r, k := range sortNames(keys, names) {
		rank[k.i] = int32(r)
	}
	for p, i := range cells {
		cells[p] = rank[i]
	}
	for i := range names { // put the names in rank order, cycle by cycle
		for r := rank[i]; r != int32(i); r = rank[i] {
			names[i], names[r] = names[r], names[i]
			rank[i], rank[r] = rank[r], rank[i]
		}
	}
	return rankedRows{width: w, n: n, names: names, cells: cells}
}

// rankKey is the sort key of names[i]: its first 8 bytes, big-endian and
// zero-padded.
type rankKey struct {
	prefix uint64
	i      int32
}

// sortNames sorts keys as strings.Compare orders their names and returns
// them sorted, in keys or in a buffer of their length. Past a few dozen
// keys a least-significant-byte radix sort orders the prefixes, skipping
// each byte every prefix shares, so short names sort in a few linear passes
// without a comparison. Two names with equal prefixes are both 8 bytes or
// longer and agree on their first 8, or one is a prefix of the other; only
// such runs compare names.
func sortNames(keys []rankKey, names []string) []rankKey {
	byName := func(a, b rankKey) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return strings.Compare(names[a.i], names[b.i])
	}
	if len(keys) <= 64 { // fewer keys than a radix pass has buckets
		slices.SortFunc(keys, byName)
		return keys
	}
	tmp := make([]rankKey, len(keys))
	var diff uint64 // the prefix bits that are not the same in every key
	for _, k := range keys[1:] {
		diff |= k.prefix ^ keys[0].prefix
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var at [256]int32 // the first position of each byte value's keys
		for _, k := range keys {
			at[byte(k.prefix>>shift)]++
		}
		sum := int32(0)
		for c, n := range at {
			at[c], sum = sum, sum+n
		}
		for _, k := range keys {
			c := byte(k.prefix >> shift)
			tmp[at[c]] = k
			at[c]++
		}
		keys, tmp = tmp, keys
	}
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].prefix == keys[i].prefix {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(keys[i:j], byName)
		}
		i = j
	}
	return keys
}

// sort puts the rows in window order, column by column: a stable counting
// sort on each column whose ranks vary, last column first. Each pass costs
// the rows plus the column's span of ranks and compares nothing.
func (t *rankedRows) sort() {
	w, n := t.width, t.n
	if n < 2 {
		return
	}
	ints := make([]int32, 2*n+len(t.names)+1+len(t.cells))
	perm, next := ints[:n], ints[n:2*n]
	count, cells := ints[2*n:2*n+len(t.names)+1], ints[2*n+len(t.names)+1:]
	for i := range perm {
		perm[i] = int32(i)
	}
	for j := w - 1; j >= 0; j-- {
		lo, hi := t.cells[j], t.cells[j] // the column's least and greatest rank
		for i := 1; i < n; i++ {
			c := t.cells[i*w+j]
			lo, hi = min(lo, c), max(hi, c)
		}
		if lo == hi { // one name throughout: the column orders nothing
			continue
		}
		for i := 0; i < n; i++ {
			count[t.cells[i*w+j]+1]++
		}
		for r := lo + 1; r <= hi; r++ {
			count[r+1] += count[r]
		}
		for _, i := range perm {
			c := t.cells[int(i)*w+j]
			next[count[c]] = i
			count[c]++
		}
		clear(count[lo : hi+2])
		perm, next = next, perm
	}
	for i, r := range perm {
		copy(cells[i*w:(i+1)*w], t.row(int(r)))
	}
	t.cells = cells
}

// keptRows is a bounded max-heap of a window's first rows in window order,
// each row keyed once. It is a table of rows: one more than are kept, so a
// candidate can be keyed into the spare row and swapped in. Only the
// columns whose value varies over the answer can order two rows (a Where
// condition fixes its column), so only they are keyed. A key cell is two
// words: the name's first 8 bytes, big-endian and zero-padded, and the
// name's length. Two cells order as their names do by those words alone
// unless both names are longer than 8 bytes and share their first 8: equal
// padded prefixes otherwise mean the shorter name is a prefix of the
// longer, NUL bytes or not. Only such a tie fetches the names again.
type keptRows struct {
	d     *relation.Dict
	rows  *relation.Instance
	vary  []int    // the columns whose value is not the same in every row
	cells []uint64 // 2*len(vary) words per table row
	slots []int32  // each table row's slot in the answer
	order []int32  // the heap of kept table rows; its root is the last
}

// firstRows returns the slots of the first k rows of rows in window order
// (column by column, each column's names compared bytewise), in no
// particular order: rankRows orders the rows it keeps. When k is not
// positive or not below the row count that is every live slot. Otherwise a
// bounded max-heap keeps the k first rows so far, so a limit-5 query over a
// million-row window ranks and renders 5 rows, and a candidate keys a
// column only when the comparison with the heap's last row reaches that
// column.
func firstRows(d *relation.Dict, rows *relation.Instance, k int) []int32 {
	live := rows.LiveRows()
	if k <= 0 || k >= len(live) {
		return live
	}
	ints := make([]int32, 2*k+1)
	t := keptRows{d: d, rows: rows, slots: ints[:k+1], order: ints[k+1:]}
	for j := 0; j < rows.Width(); j++ {
		col := rows.Col(j)
		for _, s := range live[1:] {
			if col[s] != col[live[0]] {
				t.vary = append(t.vary, j)
				break
			}
		}
	}
	t.cells = make([]uint64, 2*(k+1)*len(t.vary))
	for r, s := range live[:k] {
		t.fill(int32(r), s, 0)
		t.order[r] = int32(r)
	}
	for i := k/2 - 1; i >= 0; i-- {
		t.down(i)
	}
	spare := int32(k)
	for _, s := range live[k:] {
		if t.beats(spare, s, t.order[0]) {
			t.order[0], spare = spare, t.order[0]
			t.down(0)
		}
	}
	for i, r := range t.order {
		t.order[i] = t.slots[r]
	}
	return t.order
}

// name returns the name in column j of table row r.
func (t *keptRows) name(r int32, j int) string { return t.d.Name(t.rows.At(t.slots[r], j)) }

// row returns table row r's key cells.
func (t *keptRows) row(r int32) []uint64 {
	w := 2 * len(t.vary)
	return t.cells[int(r)*w : int(r+1)*w]
}

// key keys the i-th varying column of table row r.
func (t *keptRows) key(r int32, i int) {
	nm := t.name(r, t.vary[i])
	c := t.row(r)
	c[2*i], c[2*i+1] = prefix8(nm), uint64(len(nm))
}

// prefix8 is s's first 8 bytes, big-endian and zero-padded.
func prefix8(s string) uint64 {
	if len(s) >= 8 {
		return uint64(s[7]) | uint64(s[6])<<8 | uint64(s[5])<<16 | uint64(s[4])<<24 |
			uint64(s[3])<<32 | uint64(s[2])<<40 | uint64(s[1])<<48 | uint64(s[0])<<56
	}
	var p uint64
	for i := 0; i < len(s); i++ {
		p |= uint64(s[i]) << (56 - 8*i)
	}
	return p
}

// fill keys slot s's varying columns from the i-th on into table row r.
func (t *keptRows) fill(r, s int32, i int) {
	t.slots[r] = s
	for ; i < len(t.vary); i++ {
		t.key(r, i)
	}
}

// beats keys slot s into the spare table row and reports whether it orders
// before table row r. It keys column by column and stops at the first
// column that differs from r's, unless s wins.
func (t *keptRows) beats(spare, s, r int32) bool {
	t.slots[spare] = s
	for i := range t.vary {
		t.key(spare, i)
		if c := t.compareCol(spare, r, i); c != 0 {
			if c > 0 {
				return false
			}
			t.fill(spare, s, i+1)
			return true
		}
	}
	return false
}

// compare orders table rows a and b column by column.
func (t *keptRows) compare(a, b int32) int {
	for i := range t.vary {
		if c := t.compareCol(a, b, i); c != 0 {
			return c
		}
	}
	return 0
}

// compareCol orders the i-th varying column of table rows a and b as
// strings.Compare orders their names.
func (t *keptRows) compareCol(a, b int32, i int) int {
	ca, cb := t.row(a)[2*i:2*i+2], t.row(b)[2*i:2*i+2]
	if ca[0] != cb[0] {
		return cmp.Compare(ca[0], cb[0])
	}
	if ca[1] <= 8 || cb[1] <= 8 {
		return cmp.Compare(ca[1], cb[1])
	}
	j := t.vary[i]
	return strings.Compare(t.name(a, j)[8:], t.name(b, j)[8:])
}

// down sifts the heap entry at i down; the root is the last row kept.
func (t *keptRows) down(i int) {
	h := t.order
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && t.compare(h[c], h[c+1]) < 0 {
			c++
		}
		if t.compare(h[i], h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}
