// Package experiments regenerates, as printable tables, every empirical
// artifact of the reproduction. The paper is a theory paper — its
// "evaluation" is theorems and worked examples — so each experiment either
// replays a worked example, validates a theorem's claim against the chase
// oracle, or measures the complexity behaviour the theorems assert
// (polynomial decision procedure, fast maintenance for independent schemas,
// intractable maintenance in general). `indep experiments` prints them.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"indep/internal/acyclic"
	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/maintenance"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/workload"
)

// Params scale the work; the zero value picks the default scale and seed
// that `indep experiments` runs with.
type Params struct {
	Seed  int64
	Scale int // 0 = default scale
}

func (p Params) scale(def int) int {
	if p.Scale <= 0 {
		return def
	}
	return p.Scale
}

func (p Params) rng() *rand.Rand {
	seed := p.Seed
	if seed == 0 {
		seed = 1982
	}
	return rand.New(rand.NewSource(seed))
}

// Runner executes one experiment and returns its report.
type Runner func(Params) string

// Registry maps experiment ids to runners.
var Registry = map[string]Runner{
	"E1": E1, "E2": E2, "E3": E3,
	"T1": T1, "T2": T2, "T3": T3,
	"C1": C1, "P1": P1, "A1": A1, "M1": M1,
}

// Order is the canonical execution order.
var Order = []string{"E1", "E2", "E3", "T1", "T2", "T3", "C1", "P1", "A1", "M1"}

func header(id, title string) string {
	return fmt.Sprintf("== %s: %s ==\n", id, title)
}

// E1 replays the paper's Example 1: the CS402/Jones state is locally
// satisfying but globally unsatisfying, and the schema is not independent.
func E1(p Params) string {
	var b strings.Builder
	b.WriteString(header("E1", "Example 1 (CD,CT,TD with C->D, C->T, T->D)"))
	st, fds := workload.Example1State()
	local, _, _ := chase.LocallySatisfies(st, fds, true, chase.DefaultCaps)
	global, _ := chase.Satisfies(st, fds, true, chase.DefaultCaps)
	fmt.Fprintf(&b, "state locally satisfying: %v (paper: yes)\n", local)
	fmt.Fprintf(&b, "state globally satisfying: %v (paper: no — chase derives d=EE then contradicts C->D)\n", global)
	s, f := workload.Example1()
	res, _ := independence.Decide(s, f)
	fmt.Fprintf(&b, "schema independent: %v (paper: no; \"the algorithm will reject the system of Example 1\")\n", res.Independent)
	if res.Witness != nil {
		ok, _ := chase.IsIndependenceWitness(res.Witness, f, chase.DefaultCaps)
		fmt.Fprintf(&b, "algorithm witness verified by chase: %v (kind %s)\n", ok, res.WitnessKind)
	}
	return b.String()
}

// E2 replays Example 2: CT,CS,CHR with C->T, CH->R is independent; adding
// SH->R breaks cover-embedding (Theorem 2 condition 1).
func E2(p Params) string {
	var b strings.Builder
	b.WriteString(header("E2", "Example 2 (CT,CS,CHR)"))
	s, f := workload.Example2()
	res, _ := independence.Decide(s, f)
	fmt.Fprintf(&b, "with {C->T, CH->R}: independent = %v (paper: yes)\n", res.Independent)
	for i := range s.Rels {
		fmt.Fprintf(&b, "  F_%s = %s\n", s.Name(i), res.Cover.ForScheme(i).Format(s.U))
	}
	s2, f2 := workload.Example2Broken()
	res2, _ := independence.Decide(s2, f2)
	fmt.Fprintf(&b, "with SH->R added: independent = %v, reason = %s (paper: condition (1) fails)\n",
		res2.Independent, res2.Reason)
	fmt.Fprintf(&b, "  failing FDs: %s\n", res2.FailingFDs.Format(s2.U))
	return b.String()
}

// E3 replays the recovered Example 3 and both of the paper's rejection
// sites (line 4 when A2B2 is picked, line 5 when A1B1 is picked).
func E3(p Params) string {
	var b strings.Builder
	b.WriteString(header("E3", "Example 3 (recovered; R1(A1,B1), R2(A1,B1,A2,B2,C))"))
	s, f := workload.Example3()
	cover, ok, _ := infer.ExtractCover(s, f)
	fmt.Fprintf(&b, "cover-embedding: %v\n", ok)
	rej, _ := independence.RunLoop(s, cover, s.IndexOf("R1"))
	fmt.Fprintf(&b, "picking A1B1 first: rejected at %s (paper: line 5)\n", rej.Site)
	s4 := schema.MustParse("R2(A2,B2,A1,B1,C); R1(A1,B1)")
	f4 := fd.MustParse(s4.U, "A1 -> A2; B1 -> B2; A1 B1 -> C; A2 B2 -> A1 B1 C")
	cover4, _, _ := infer.ExtractCover(s4, f4)
	rej4, _ := independence.RunLoop(s4, cover4, s4.IndexOf("R1"))
	fmt.Fprintf(&b, "picking A2B2 first: rejected at %s with attribute %s (paper: line 4, A1/B1)\n",
		rej4.Site, s4.U.Name(rej4.Attr))
	res, _ := independence.Decide(s, f)
	okW, _ := chase.IsIndependenceWitness(res.Witness, f, chase.DefaultCaps)
	fmt.Fprintf(&b, "witness (matches the paper's printed state, see tests): verified = %v\n%s",
		okW, indent(res.Witness.String()))
	return b.String()
}

// T1 demonstrates Theorem 1: maintenance cost through the chase grows
// explosively on the reduction family, while the join-membership question
// it encodes is the NP-complete core.
func T1(p Params) string {
	var b strings.Builder
	b.WriteString(header("T1", "Theorem 1: the maintenance problem is intractable in general"))
	b.WriteString("reduction family: chain of k binary schemes over n-value columns;\n")
	b.WriteString("maintenance of the single insert is decided by chasing p' (FD X->B plus jd *D).\n")
	fmt.Fprintf(&b, "%6s %6s %12s %14s %10s\n", "k", "rows", "join member", "chase verdict", "time")
	r := p.rng()
	maxK := p.scale(6)
	for k := 2; k <= maxK; k++ {
		u := attrset.NewUniverse()
		for i := 0; i <= k; i++ {
			u.Add(fmt.Sprintf("X%d", i))
		}
		inst := relation.NewInstance(u.All())
		for i := 0; i < 3*k; i++ {
			t := make(relation.Tuple, k+1)
			for c := range t {
				t[c] = relation.Value(r.Intn(3))
			}
			inst.Add(t)
		}
		var schemes []attrset.Set
		for i := 0; i < k; i++ {
			schemes = append(schemes, attrset.Of(i, i+1))
		}
		x := attrset.Of(0, k)
		tu := relation.Tuple{relation.Value(r.Intn(3)), relation.Value(r.Intn(3))}
		member := maintenance.MemberOfJoin(inst, schemes, x, tu)
		red, err := maintenance.BuildReduction(u, inst, schemes, x, tu)
		if err != nil {
			fmt.Fprintf(&b, "%6d error: %v\n", k, err)
			continue
		}
		p2 := red.P.Clone()
		p2.Insts[red.Last].Add(red.Inserted)
		start := time.Now()
		sat, err := chase.Satisfies(p2, red.FDs, true, chase.Caps{MaxRows: 2_000_000, MaxIters: 100000})
		el := time.Since(start)
		verdict := fmt.Sprintf("%v", sat)
		if err != nil {
			verdict = "budget"
		}
		fmt.Fprintf(&b, "%6d %6d %12v %14s %10s   (agree: %v)\n",
			k, p2.TupleCount(), member, verdict, el.Round(time.Microsecond), err == nil && sat == !member)
	}
	b.WriteString("expected shape: chase verdict == NOT(join member); time grows superlinearly with k.\n")
	return b.String()
}

// T2 validates the Section 3 cover-embedding test against the exponential
// chase oracle and times its polynomial scaling.
func T2(p Params) string {
	var b strings.Builder
	b.WriteString(header("T2", "Theorem 2 / Section 3: cover-embedding test vs chase oracle"))
	r := p.rng()
	n := p.scale(250)
	agree, checked := 0, 0
	for i := 0; i < n; i++ {
		s, fds := workload.Schema(r, workload.Config{
			Attrs: 4 + r.Intn(3), Schemes: 2 + r.Intn(2), SchemeMax: 3,
			FDs: 1 + r.Intn(3), LHSMax: 2,
		})
		for _, f := range fds.Split() {
			fast := infer.Implies(s, fds, f) // trivially true (f ∈ F) — skip
			_ = fast
			// Compare embedded-closure membership with oracle implication
			// from embedded FDs only on a sampled attribute.
			a := r.Intn(s.U.Size())
			closed, _ := infer.ClosureEmbedded(s, fds, f.LHS)
			slow, err := chase.ClosureFD(s, fds, f.LHS, true, chase.DefaultCaps)
			if err != nil {
				continue
			}
			checked++
			// Embedded closure is a subset of the full closure; and the
			// full polynomial closure must equal the chase closure.
			fastFull := infer.Closure(s, fds, f.LHS)
			if fastFull == slow && closed.SubsetOf(slow) {
				agree++
			}
			_ = a
		}
	}
	fmt.Fprintf(&b, "random closures checked against two-row FD+JD chase: %d, agreement: %d\n", checked, agree)
	b.WriteString("\npolynomial scaling of the full decision procedure (chain schemas, key FDs):\n")
	fmt.Fprintf(&b, "%8s %8s %8s %12s\n", "|U|", "schemes", "|F|", "decide time")
	sizes := []int{8, 16, 32, 64, 128}
	if p.Scale > 0 && p.Scale <= 8 {
		sizes = []int{8, 16, 32}
	}
	for _, n := range sizes {
		s, fds := chainWithKeys(n)
		start := time.Now()
		res, err := independence.Decide(s, fds)
		el := time.Since(start)
		verdict := "?"
		if err == nil {
			verdict = fmt.Sprintf("%v", res.Independent)
		}
		fmt.Fprintf(&b, "%8d %8d %8d %12s  independent=%s\n", n, s.Size(), len(fds), el.Round(time.Microsecond), verdict)
	}
	return b.String()
}

// chainWithKeys builds R_i(A_i, A_{i+1}) with A_i -> A_{i+1}: an
// independent chain of any size.
func chainWithKeys(n int) (*schema.Schema, fd.List) {
	u := attrset.NewUniverse()
	for i := 0; i < n; i++ {
		u.Add(fmt.Sprintf("A%d", i))
	}
	var rels []schema.Rel
	var fds fd.List
	for i := 0; i+1 < n; i++ {
		rels = append(rels, schema.Rel{Name: fmt.Sprintf("R%d", i), Attrs: attrset.Of(i, i+1)})
		fds = append(fds, fd.FD{LHS: attrset.Of(i), RHS: attrset.Of(i + 1)})
	}
	return schema.New(u, rels...), fds
}

// T3 validates Theorems 3–5 end to end: every rejection must ship a
// chase-verified witness; accepted schemas must admit no locally-sat
// globally-unsat state in randomized hunting.
func T3(p Params) string {
	var b strings.Builder
	b.WriteString(header("T3", "Theorems 3-5: randomized validation of accept/reject"))
	r := p.rng()
	n := p.scale(300)
	accepted, rejected, witnessOK, huntStates, huntBad := 0, 0, 0, 0, 0
	for i := 0; i < n; i++ {
		s, fds := workload.Schema(r, workload.Config{
			Attrs: 4 + r.Intn(3), Schemes: 2 + r.Intn(2), SchemeMax: 3,
			FDs: 1 + r.Intn(3), LHSMax: 2,
		})
		res, err := independence.Decide(s, fds)
		if err != nil {
			continue
		}
		if res.Independent {
			accepted++
			for j := 0; j < 4; j++ {
				st := workload.LocalState(r, s, fds, 1+r.Intn(2), 3, 15)
				if st == nil {
					continue
				}
				huntStates++
				ok, err := chase.Satisfies(st, fds, true, chase.DefaultCaps)
				if err == nil && !ok {
					huntBad++
				}
			}
		} else {
			rejected++
			if res.Witness != nil {
				if ok, err := chase.IsIndependenceWitness(res.Witness, fds, chase.DefaultCaps); err == nil && ok {
					witnessOK++
				}
			}
		}
	}
	fmt.Fprintf(&b, "instances: %d   accepted: %d   rejected: %d\n", n, accepted, rejected)
	fmt.Fprintf(&b, "rejections with chase-verified witness: %d/%d (paper: every non-independent schema has one)\n", witnessOK, rejected)
	fmt.Fprintf(&b, "locally-satisfying states hunted on accepted schemas: %d, counterexamples found: %d (paper: 0)\n", huntStates, huntBad)
	return b.String()
}

// C1 checks the |H| <= |F|·|U| bound on the extracted embedded cover.
func C1(p Params) string {
	var b strings.Builder
	b.WriteString(header("C1", "Section 3: |H| <= |F|*|U| for the extracted embedded cover"))
	r := p.rng()
	n := p.scale(300)
	maxRatio, covers := 0.0, 0
	for i := 0; i < n; i++ {
		s, fds := workload.Schema(r, workload.Config{
			Attrs: 5 + r.Intn(4), Schemes: 2 + r.Intn(3), SchemeMax: 4,
			FDs: 1 + r.Intn(4), LHSMax: 2,
		})
		cover, ok, _ := infer.ExtractCover(s, fds)
		if !ok {
			continue
		}
		covers++
		bound := len(fds.Split()) * s.U.Size()
		if bound == 0 {
			continue
		}
		ratio := float64(len(cover)) / float64(bound)
		if ratio > maxRatio {
			maxRatio = ratio
		}
	}
	fmt.Fprintf(&b, "cover-embedding instances: %d; max |H| / (|F|*|U|) observed: %.3f (bound: 1.0)\n", covers, maxRatio)
	return b.String()
}

// P1 measures the polynomial growth of the full analysis.
func P1(p Params) string {
	var b strings.Builder
	b.WriteString(header("P1", "Polynomial-time claims: Analyze wall time vs universe size"))
	fmt.Fprintf(&b, "%8s %10s %12s %12s\n", "|U|", "shape", "verdict", "time")
	sizes := []int{8, 16, 32, 64, 96, 128, 192}
	if p.Scale > 0 && p.Scale <= 8 {
		sizes = []int{8, 16, 32}
	}
	for _, n := range sizes {
		for _, shape := range []string{"chain", "star"} {
			s, fds := scalingSchema(n, shape)
			start := time.Now()
			res, err := independence.Decide(s, fds)
			el := time.Since(start)
			v := "error"
			if err == nil {
				v = fmt.Sprintf("%v", res.Independent)
			}
			fmt.Fprintf(&b, "%8d %10s %12s %12s\n", n, shape, v, el.Round(time.Microsecond))
		}
	}
	b.WriteString("expected shape: low-degree polynomial growth (the paper proves polynomial time).\n")
	return b.String()
}

func scalingSchema(n int, shape string) (*schema.Schema, fd.List) {
	if shape == "chain" {
		return chainWithKeys(n)
	}
	// Star: FACT(K1..Kk), DIMi(Ki, Vi...) with Ki -> Vi.
	u := attrset.NewUniverse()
	k := n / 3
	if k < 2 {
		k = 2
	}
	var fact attrset.Set
	for i := 0; i < k; i++ {
		fact.Add(u.Add(fmt.Sprintf("K%d", i)))
	}
	rels := []schema.Rel{{Name: "FACT", Attrs: fact}}
	var fds fd.List
	for i := 0; i < k && u.Size() < n; i++ {
		v := u.Add(fmt.Sprintf("V%d", i))
		rels = append(rels, schema.Rel{
			Name:  fmt.Sprintf("DIM%d", i),
			Attrs: attrset.Of(i, v),
		})
		fds = append(fds, fd.FD{LHS: attrset.Of(i), RHS: attrset.Of(v)})
	}
	return schema.New(u, rels...), fds
}

// A1 contrasts acyclic and cyclic schemas: GYO verdicts and the cost of
// consistency checking via semijoins vs joins.
func A1(p Params) string {
	var b strings.Builder
	b.WriteString(header("A1", "Acyclicity context: GYO, full reducer vs join"))
	r := p.rng()
	chain := schema.MustParse("R1(A,B); R2(B,C); R3(C,D); R4(D,E)")
	tri := schema.MustParse("R1(A,B); R2(B,C); R3(C,A)")
	fmt.Fprintf(&b, "chain acyclic: %v   triangle acyclic: %v\n",
		acyclic.IsAcyclic(chain), acyclic.IsAcyclic(tri))
	fmt.Fprintf(&b, "%10s %10s %14s %14s\n", "tuples/rel", "schema", "semijoin test", "join test")
	tupleCounts := []int{50, 200, 800}
	if p.Scale > 0 && p.Scale <= 8 {
		tupleCounts = []int{50, 100}
	}
	for _, n := range tupleCounts {
		st := relation.NewState(chain)
		for i := 0; i < n; i++ {
			for j := range chain.Rels {
				st.Insts[j].Add(relation.Tuple{relation.Value(r.Intn(n)), relation.Value(r.Intn(n))})
			}
		}
		start := time.Now()
		acyclic.GloballyConsistent(st)
		semi := time.Since(start)
		start = time.Now()
		st.JoinConsistent()
		join := time.Since(start)
		fmt.Fprintf(&b, "%10d %10s %14s %14s\n", n, "chain", semi.Round(time.Microsecond), join.Round(time.Microsecond))
	}
	b.WriteString("expected shape: semijoin (full-reducer) test scales better than materializing the join.\n")
	return b.String()
}

// M1 measures maintenance throughput: the independent-schema guard vs
// chase-based maintenance as the state grows.
func M1(p Params) string {
	var b strings.Builder
	b.WriteString(header("M1", "Maintenance: guard (independent) vs chase, per-insert cost"))
	r := p.rng()
	s, fds := workload.Example2()
	res, _ := independence.Decide(s, fds)
	fmt.Fprintf(&b, "%10s %16s %16s %8s\n", "state size", "guard ns/insert", "chase ns/insert", "ratio")
	stateSizes := []int{100, 400, 1600}
	if p.Scale > 0 && p.Scale <= 8 {
		stateSizes = []int{50, 100}
	}
	for _, n := range stateSizes {
		guard := maintenance.NewGuard(s, res.Cover)
		chaser := maintenance.NewChaseMaintainer(s, fds, false, chase.DefaultCaps)
		load := func(m maintenance.Maintainer) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				c := relation.Value(i)
				_ = m.Insert(0, relation.Tuple{c, c + 1})
				_ = m.Insert(1, relation.Tuple{c, c + 2})
				_ = m.Insert(2, relation.Tuple{c, relation.Value(i % 7), c + 3})
			}
			return time.Since(start)
		}
		gt := load(guard)
		ct := load(chaser)
		inserts := int64(3 * n)
		gns := gt.Nanoseconds() / inserts
		cns := ct.Nanoseconds() / inserts
		ratio := float64(cns) / float64(max64(1, gns))
		fmt.Fprintf(&b, "%10d %16d %16d %7.0fx\n", 3*n, gns, cns, ratio)
		_ = r
	}
	b.WriteString("expected shape: guard is O(|F_i|) per insert (flat); chase cost grows with state size.\n")
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// Run executes the experiments named by ids — a comma-separated list of
// Order's ids, matched case- and space-insensitively, or "all" for Order
// itself — and concatenates their reports, each followed by a blank line.
// An unknown id is an error listing the known ones, and nothing runs.
func Run(ids string, p Params) (string, error) {
	list := Order
	if !strings.EqualFold(strings.TrimSpace(ids), "all") {
		list = nil
		for _, id := range strings.Split(ids, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := Registry[id]; !ok {
				return "", fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(Order, ","))
			}
			list = append(list, id)
		}
	}
	var b strings.Builder
	for _, id := range list {
		b.WriteString(Registry[id](p))
		b.WriteString("\n")
	}
	return b.String(), nil
}
