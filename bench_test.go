package indep

// One benchmark per experiment of internal/experiments. The paper has no
// numeric tables (it is a theory paper); these benchmarks regenerate the
// executable artifacts: the worked examples, the decision procedure's
// polynomial scaling, the maintenance fast path vs the chase, the
// Theorem 1 reduction, and the acyclic-schema machinery. The table-form
// outputs come from `indep experiments`.

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"indep/internal/acyclic"
	"indep/internal/attrset"
	"indep/internal/chase"
	"indep/internal/engine"
	"indep/internal/fd"
	"indep/internal/independence"
	"indep/internal/infer"
	"indep/internal/maintenance"
	"indep/internal/relation"
	"indep/internal/schema"
	"indep/internal/workload"
)

// --- E1/E2/E3: the paper's worked examples -------------------------------

func BenchmarkExample1Decide(b *testing.B) {
	s, fds := workload.Example1()
	for i := 0; i < b.N; i++ {
		if res, err := independence.Decide(s, fds); err != nil || res.Independent {
			b.Fatal("Example 1 must reject")
		}
	}
}

func BenchmarkExample1Chase(b *testing.B) {
	st, fds := workload.Example1State()
	for i := 0; i < b.N; i++ {
		ok, err := chase.Satisfies(st, fds, true, chase.DefaultCaps)
		if err != nil || ok {
			b.Fatal("Example 1 state must not satisfy")
		}
	}
}

func BenchmarkExample2Decide(b *testing.B) {
	s, fds := workload.Example2()
	for i := 0; i < b.N; i++ {
		if res, err := independence.Decide(s, fds); err != nil || !res.Independent {
			b.Fatal("Example 2 must accept")
		}
	}
}

func BenchmarkExample3Decide(b *testing.B) {
	s, fds := workload.Example3()
	for i := 0; i < b.N; i++ {
		if res, err := independence.Decide(s, fds); err != nil || res.Independent {
			b.Fatal("Example 3 must reject")
		}
	}
}

// --- T2/P1: polynomial scaling of the decision procedure ------------------

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

func BenchmarkAnalyzeScaling(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		s, fds := chainWithKeys(n)
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res, err := independence.Decide(s, fds); err != nil || !res.Independent {
					b.Fatal("chain must be independent")
				}
			}
		})
	}
}

func BenchmarkCoverEmbedding(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		s, fds := chainWithKeys(n)
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok, _ := infer.ExtractCover(s, fds); !ok {
					b.Fatal("chain embeds its cover")
				}
			}
		})
	}
}

func BenchmarkClosureJD(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		s, fds := chainWithKeys(n)
		x := attrset.Of(0)
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := infer.Closure(s, fds, x); got.Len() != n {
					b.Fatal("closure of A0 must be the whole chain")
				}
			}
		})
	}
}

// --- M1: maintenance fast path vs chase -----------------------------------

func BenchmarkGuardInsert(b *testing.B) {
	s, fds := workload.Example2()
	res, _ := independence.Decide(s, fds)
	g := maintenance.NewGuard(s, res.Cover)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := relation.Value(i)
		if err := g.Insert(0, relation.Tuple{c, c + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardReject measures the rejection path: the verify phase plus
// the precomputed violation error, which together allocate nothing.
func BenchmarkGuardReject(b *testing.B) {
	s, fds := workload.Example2()
	res, _ := independence.Decide(s, fds)
	g := maintenance.NewGuard(s, res.Cover)
	if err := g.Insert(0, relation.Tuple{1, 10}); err != nil {
		b.Fatal(err)
	}
	bad := relation.Tuple{1, 11} // same C, different T: violates C→T
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Insert(0, bad); err == nil {
			b.Fatal("want violation")
		}
	}
}

// BenchmarkInstanceOps pins the relation-layer floor the maintainers sit
// on: membership probes and duplicate adds over the hashed primary index.
func BenchmarkInstanceOps(b *testing.B) {
	in := relation.NewInstance(attrset.Of(0, 1, 2))
	for i := 0; i < 4096; i++ {
		in.Add(relation.Tuple{relation.Value(i), relation.Value(i % 17), relation.Value(i % 5)})
	}
	probe := relation.Tuple{100, 100 % 17, 0}
	b.Run("has", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !in.Has(probe) {
				b.Fatal("probe must be present")
			}
		}
	})
	b.Run("add-dup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if in.Add(probe) {
				b.Fatal("probe must be a duplicate")
			}
		}
	})
}

func BenchmarkChaseMaintainerInsert(b *testing.B) {
	for _, base := range []int{32, 256} {
		b.Run(fmt.Sprintf("state=%d", base), func(b *testing.B) {
			s, fds := workload.Example2()
			m := maintenance.NewChaseMaintainer(s, fds, false, chase.DefaultCaps)
			for i := 0; i < base; i++ {
				c := relation.Value(i)
				if err := m.Insert(0, relation.Tuple{c, c + 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := relation.Value(base + i)
				if err := m.Insert(0, relation.Tuple{c, c + 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1: the Theorem 1 reduction -------------------------------------------

func BenchmarkMaintenanceReduction(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, k := range []int{3, 5} {
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
		tu := relation.Tuple{0, 1}
		red, err := maintenance.BuildReduction(u, inst, schemes, x, tu)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p2 := red.P.Clone()
				p2.Insts[red.Last].Add(red.Inserted)
				if _, err := chase.Satisfies(p2, red.FDs, true, chase.Caps{MaxRows: 500000, MaxIters: 50000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A1: acyclic machinery --------------------------------------------------

func BenchmarkFullReduce(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	s := schema.MustParse("R1(A,B); R2(B,C); R3(C,D); R4(D,E)")
	st := relation.NewState(s)
	for i := 0; i < 500; i++ {
		for j := range s.Rels {
			st.Insts[j].Add(relation.Tuple{relation.Value(r.Intn(300)), relation.Value(r.Intn(300))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := acyclic.FullReduce(st); !ok {
			b.Fatal("chain is acyclic")
		}
	}
}

func BenchmarkJoinConsistency(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	s := schema.MustParse("R1(A,B); R2(B,C); R3(C,D); R4(D,E)")
	st := relation.NewState(s)
	for i := 0; i < 500; i++ {
		for j := range s.Rels {
			st.Insts[j].Add(relation.Tuple{relation.Value(r.Intn(300)), relation.Value(r.Intn(300))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.JoinConsistent()
	}
}

// --- T3: decision procedure on random instances ----------------------------

func BenchmarkDecideRandom(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	type inst struct {
		s   *schema.Schema
		fds fd.List
	}
	var pool []inst
	for i := 0; i < 64; i++ {
		s, fds := workload.Schema(r, workload.Config{
			Attrs: 8, Schemes: 4, SchemeMax: 4, FDs: 4, LHSMax: 2,
		})
		pool = append(pool, inst{s, fds})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := pool[i%len(pool)]
		if _, err := independence.Decide(in.s, in.fds); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Facade-level quickstart ------------------------------------------------

func BenchmarkFacadeAnalyze(b *testing.B) {
	s := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	for i := 0; i < b.N; i++ {
		a, err := s.Analyze()
		if err != nil || !a.Independent {
			b.Fatal("Example 2 must be independent")
		}
	}
}

// --- E4: the concurrent engine --------------------------------------------
//
// The paper's payoff made parallel: on an independent schema each relation
// validates behind its own lock stripe, so insert throughput should scale
// with goroutines (compare the Serial and Parallel variants, and run with
// -cpu to vary the goroutine count). Batch inserts amortize striping; the
// batch benchmarks report per-tuple cost.

// engineWorkload builds an independent engine over a generated star or
// chain schema with one key FD per dimension/link scheme.
func engineWorkload(b *testing.B, shape workload.Shape) (*engine.Engine, *schema.Schema) {
	b.Helper()
	r := rand.New(rand.NewSource(7))
	var cfg workload.Config
	switch shape {
	case workload.ShapeStar:
		cfg = workload.Config{Attrs: 25, Schemes: 5, Shape: workload.ShapeStar}
	default:
		cfg = workload.Config{Attrs: 25, SchemeMax: 5, Shape: workload.ShapeChain}
	}
	s, _ := workload.Schema(r, cfg)
	var fds fd.List
	for i := range s.Rels {
		attrs := s.Attrs(i).Attrs()
		if s.Name(i) == "FACT" || len(attrs) < 2 {
			continue
		}
		var rhs attrset.Set
		for _, a := range attrs[1:] {
			rhs.Add(a)
		}
		fds = append(fds, fd.FD{LHS: attrset.Of(attrs[0]), RHS: rhs})
	}
	e, err := engine.New(s, fds, chase.DefaultCaps)
	if err != nil {
		b.Fatal(err)
	}
	if !e.Fast() {
		b.Fatalf("shape %v with per-scheme keys must be independent", shape)
	}
	return e, s
}

// funcTuple builds a tuple whose values are a function of (seed, attribute),
// so any FD is satisfied by construction and distinct seeds never conflict.
func funcTuple(s *schema.Schema, scheme int, seed int64) relation.Tuple {
	attrs := s.Attrs(scheme).Attrs()
	t := make(relation.Tuple, len(attrs))
	for c, a := range attrs {
		t[c] = relation.Value(seed*1000 + int64(a))
	}
	return t
}

func benchmarkEngineShapes(b *testing.B, run func(b *testing.B, e *engine.Engine, s *schema.Schema)) {
	for _, sh := range []struct {
		name  string
		shape workload.Shape
	}{{"star", workload.ShapeStar}, {"chain", workload.ShapeChain}} {
		b.Run(sh.name, func(b *testing.B) {
			e, s := engineWorkload(b, sh.shape)
			b.ResetTimer()
			run(b, e, s)
		})
	}
}

func BenchmarkEngineInsertSerial(b *testing.B) {
	benchmarkEngineShapes(b, func(b *testing.B, e *engine.Engine, s *schema.Schema) {
		n := s.Size()
		for i := 0; i < b.N; i++ {
			scheme := i % n
			if err := e.Insert(scheme, funcTuple(s, scheme, int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineInsertParallel(b *testing.B) {
	benchmarkEngineShapes(b, func(b *testing.B, e *engine.Engine, s *schema.Schema) {
		n := s.Size()
		var seed atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := seed.Add(1)
				scheme := int(i) % n
				if err := e.Insert(scheme, funcTuple(s, scheme, i)); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

func BenchmarkEngineInsertBatch(b *testing.B) {
	for _, size := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			e, s := engineWorkload(b, workload.ShapeStar)
			n := s.Size()
			var seed int64
			b.ResetTimer()
			// ns/op is per tuple, not per batch: each iteration admits one
			// tuple's share of a size-tuple batch.
			for i := 0; i < b.N; i += size {
				k := size
				if rem := b.N - i; rem < k {
					k = rem
				}
				ops := make([]engine.Op, k)
				for j := range ops {
					seed++
					scheme := int(seed) % n
					ops[j] = engine.Op{Scheme: scheme, Tuple: funcTuple(s, scheme, seed)}
				}
				if err := e.InsertBatch(ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: durability -------------------------------------------------------
//
// The WAL's claim is that group commit makes durability cheap: concurrent
// appenders share one fsync, and batches amortize both locking and framing.
// DurableInsert compares sync modes across batch sizes (ns/op is per
// tuple); GroupCommit drives parallel single inserts so the coalescing
// shows up as records-per-fsync in -v output.

func durableStarStore(b *testing.B, noFsync bool) (*DurableStore, []string) {
	b.Helper()
	sch := starSchema(b, 4, 3)
	ds, err := sch.OpenDurableStore(b.TempDir(), DurableOptions{NoFsync: noFsync})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ds.Close() })
	return ds, sch.Relations()
}

// durableRow builds a functionally consistent row for one of the star's
// relations: every value is a pure function of (attribute, seed).
func durableRow(sch *Schema, rel string, seed int64) map[string]string {
	attrs, _ := sch.RelationAttrs(rel)
	row := make(map[string]string, len(attrs))
	for _, a := range attrs {
		row[a] = fmt.Sprintf("%s_%d", a, seed)
	}
	return row
}

// batchInsertLoop drives b.N tuples through insert in size-chunks. The
// durable and in-memory benchmarks share it so the durability-tax ratio
// compares strictly identical work.
func batchInsertLoop(b *testing.B, sch *Schema, rels []string, size int, insert func([]BatchOp) error) {
	var seed int64
	b.ResetTimer()
	for i := 0; i < b.N; i += size {
		k := size
		if rem := b.N - i; rem < k {
			k = rem
		}
		ops := make([]BatchOp, k)
		for j := range ops {
			seed++
			rel := rels[seed%int64(len(rels))]
			ops[j] = BatchOp{Rel: rel, Row: durableRow(sch, rel, seed)}
		}
		if err := insert(ops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDurableInsert(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noFsync bool
	}{{"sync", false}, {"nosync", true}} {
		for _, size := range []int{1, 64, 256} {
			b.Run(fmt.Sprintf("%s/batch=%d", mode.name, size), func(b *testing.B) {
				ds, rels := durableStarStore(b, mode.noFsync)
				batchInsertLoop(b, ds.schema, rels, size, ds.InsertBatch)
			})
		}
	}
}

// BenchmarkMemoryInsertBaseline is the in-memory twin of
// BenchmarkDurableInsert: the ratio between the two is the durability tax
// (the acceptance bar is ≤5× at batch ≥ 64).
func BenchmarkMemoryInsertBaseline(b *testing.B) {
	for _, size := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			sch := starSchema(b, 4, 3)
			cs, err := sch.OpenConcurrentStore()
			if err != nil {
				b.Fatal(err)
			}
			batchInsertLoop(b, sch, sch.Relations(), size, cs.InsertBatch)
		})
	}
}

func BenchmarkGroupCommit(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noFsync bool
	}{{"sync", false}, {"nosync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ds, rels := durableStarStore(b, mode.noFsync)
			sch := ds.schema
			var seed atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					s := seed.Add(1)
					rel := rels[s%int64(len(rels))]
					if err := ds.Insert(rel, durableRow(sch, rel, s)); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			ws := ds.WAL()
			if ws.Syncs > 0 {
				b.ReportMetric(float64(ws.Records)/float64(ws.Syncs), "records/fsync")
			}
		})
	}
}

func BenchmarkEngineSnapshot(b *testing.B) {
	e, s := engineWorkload(b, workload.ShapeStar)
	n := s.Size()
	for i := 0; i < 5000; i++ {
		scheme := i % n
		if err := e.Insert(scheme, funcTuple(s, scheme, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := e.Snapshot(); st.TupleCount() != 5000 {
			b.Fatal("bad snapshot")
		}
	}
}

// --- E7: window queries ---------------------------------------------------
//
// The claim: for an independent schema the window function is a per-relation
// computation over a lock-free snapshot, so read throughput scales with
// cores (run with -cpu 1,4,8) even while a writer mutates the store.

// windowBenchStore opens a preloaded university store.
func windowBenchStore(b *testing.B, rows int) *ConcurrentStore {
	b.Helper()
	cs, err := MustParse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R").OpenConcurrentStore()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		c := fmt.Sprintf("c%d", i)
		if err := cs.Insert("CT", map[string]string{"C": c, "T": "t" + c}); err != nil {
			b.Fatal(err)
		}
		if err := cs.Insert("CS", map[string]string{"C": c, "S": "s" + c}); err != nil {
			b.Fatal(err)
		}
	}
	return cs
}

// BenchmarkWindowQueryParallel measures read-only window throughput: every
// query after the first reuses the cached snapshot and the cached plan, so
// parallel readers share immutable data and never touch an engine state
// lock.
func BenchmarkWindowQueryParallel(b *testing.B) {
	cs := windowBenchStore(b, 500)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cs.Window("S", "T"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWindowQueryMixed runs parallel readers against one background
// writer, the contended regime the snapshot cache is designed for: each
// write invalidates the cache once, and all readers between two writes
// share the same cut. The writer toggles a single row so the store size —
// and therefore the per-query work — stays constant across b.N.
func BenchmarkWindowQueryMixed(b *testing.B) {
	cs := windowBenchStore(b, 500)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		row := map[string]string{"C": "c_toggle", "T": "t_toggle"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cs.Insert("CT", row); err != nil {
				b.Error(err)
				return
			}
			if _, err := cs.Delete("CT", row); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cs.Window("S", "T"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkWindowPlanCached measures the steady-state floor of the read
// path: every plan is warmed first, and the store is empty and unchanging,
// so each timed query is a plan-cache hit over a reused snapshot — the
// cost the two caches buy down to.
func BenchmarkWindowPlanCached(b *testing.B) {
	sets := [][]string{{"C", "T"}, {"C", "S"}, {"S", "T"}, {"C", "H", "R"}, {"C", "S", "T"}}
	cs := windowBenchStore(b, 0)
	for _, s := range sets {
		if _, err := cs.Window(s...); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Window(sets[i%len(sets)]...); err != nil {
			b.Fatal(err)
		}
	}
}

// windowShapesStore opens a store over the benchmark's star schema holding
// its read state's shape: 1,000 keys per dimension, each with six or seven
// dependents drawn from 61 shared names, and 5,000 distinct FACT rows whose
// keys are Zipf-drawn (s = 1.1), so the hottest key is carried by hundreds
// of FACT rows.
func windowShapesStore(b *testing.B) *ConcurrentStore {
	b.Helper()
	dims := [4][]string{
		{"A", "E", "F", "G", "H", "I"},
		{"B", "J", "K", "L", "M", "N"},
		{"C", "O", "P", "Q", "R", "S"},
		{"D", "T", "U", "V", "W", "X", "Y"},
	}
	cs, err := MustParse("FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)",
		"A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y").OpenConcurrentStore()
	if err != nil {
		b.Fatal(err)
	}
	const keys, facts = 1000, 5000
	key := func(k, id int) string { return fmt.Sprintf("%c%d", 'a'+k, id) }
	var ops []BatchOp
	flush := func() {
		if err := cs.InsertBatch(ops); err != nil {
			b.Fatal(err)
		}
		ops = ops[:0]
	}
	for k, attrs := range dims {
		for id := 0; id < keys; id++ {
			row := map[string]string{attrs[0]: key(k, id)}
			for j, a := range attrs[1:] {
				row[a] = fmt.Sprintf("%c%d", a[0]+'a'-'A', (id*31+j*7+k)%61)
			}
			ops = append(ops, BatchOp{Rel: fmt.Sprintf("DIM%d", k+1), Row: row})
		}
		flush()
	}
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, keys-1)
	seen := make(map[[4]uint64]bool, facts)
	for len(seen) < facts {
		ids := [4]uint64{zipf.Uint64(), zipf.Uint64(), zipf.Uint64(), zipf.Uint64()}
		if seen[ids] {
			continue
		}
		seen[ids] = true
		ops = append(ops, BatchOp{Rel: "FACT", Row: map[string]string{
			"A": key(0, int(ids[0])), "B": key(1, int(ids[1])), "C": key(2, int(ids[2])), "D": key(3, int(ids[3])),
		}})
		if len(ops) == 1000 {
			flush()
		}
	}
	return cs
}

// BenchmarkWindowShapes drives QueryCtx with a binary result, as the daemon
// serves a window, over windowShapesStore's state for three window shapes:
// a local window on the hottest key (hundreds of answer rows, one
// contributor), the first 100 rows of all of FACT (a top-k over thousands),
// a DIM1 point window (one answer row, read from DIM1 alone: FACT, which
// reaches DIM1's attributes only through it, is subsumed), and a window
// over FACT and two DIM1 dependents selected on a key (FACT's rows carrying
// the key extended through DIM1, once per distinct extension key).
func BenchmarkWindowShapes(b *testing.B) {
	cs := windowShapesStore(b)
	fact := []string{"A", "B", "C", "D"}
	for _, c := range []struct {
		name string
		q    WindowQuery
	}{
		{"hot-key", WindowQuery{Attrs: fact, Where: map[string]string{"A": "a0"}}},
		{"limit100", WindowQuery{Attrs: fact, Limit: 100}},
		{"dim-point", WindowQuery{Attrs: []string{"A", "E", "F", "G", "H", "I"}, Where: map[string]string{"A": "a3"}}},
		{"fact-dim", WindowQuery{Attrs: []string{"A", "B", "C", "D", "E", "F"}, Where: map[string]string{"A": "a17"}}},
	} {
		c.q.BinaryResult = true
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			if _, err := cs.QueryCtx(ctx, c.q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cs.QueryCtx(ctx, c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
