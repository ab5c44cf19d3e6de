package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"indep"
	"indep/internal/cluster"
)

// benchPayloads builds conflict-free 64-op payloads cycling the relations.
func benchPayloads(b *testing.B, sch *indep.Schema, n int) [][]byte {
	b.Helper()
	rels := []struct {
		name  string
		attrs []string
	}{{"CT", []string{"C", "T"}}, {"CS", []string{"C", "S"}}, {"CHR", []string{"C", "H", "R"}}}
	var payloads [][]byte
	seed := 0
	for p := 0; p < n; p++ {
		enc := indep.NewBinBatchEncoder(sch)
		for i := 0; i < 64; i++ {
			r := rels[seed%len(rels)]
			row := make(map[string]string, len(r.attrs))
			for _, a := range r.attrs {
				row[a] = fmt.Sprintf("%s_%d", a, seed)
			}
			if err := enc.Add(r.name, row); err != nil {
				b.Fatal(err)
			}
			seed++
		}
		payloads = append(payloads, enc.Bytes())
	}
	return payloads
}

func benchRouter(b *testing.B, shards int) {
	sch, err := indep.Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		b.Fatal(err)
	}
	tc := newTestCluster(b, sch, shards, cluster.Options{}, nil)
	payloads := benchPayloads(b, sch, 256)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := tc.rt.Batch(ctx, payloads[i%len(payloads)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkRouterBatch1(b *testing.B) { benchRouter(b, 1) }
func BenchmarkRouterBatch4(b *testing.B) { benchRouter(b, 4) }

func BenchmarkApplyPartial(b *testing.B) {
	sch, err := indep.Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		b.Fatal(err)
	}
	cs, err := sch.OpenConcurrentStore()
	if err != nil {
		b.Fatal(err)
	}
	payloads := benchPayloads(b, sch, 256)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.ApplyBinBatchPartial(ctx, payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinBatch(b *testing.B) {
	sch, err := indep.Parse("CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if err != nil {
		b.Fatal(err)
	}
	payloads := benchPayloads(b, sch, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.DecodeBinBatch(payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
}

// starDims lists the bench star schema's dimensions, key first.
var starDims = [4][]string{
	{"A", "E", "F", "G", "H", "I"},
	{"B", "J", "K", "L", "M", "N"},
	{"C", "O", "P", "Q", "R", "S"},
	{"D", "T", "U", "V", "W", "X", "Y"},
}

// starSchema is the bench star schema: FACT over the four dimension keys.
func starSchema(t testing.TB) *indep.Schema {
	t.Helper()
	sch, err := indep.Parse("FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)",
		"A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y")
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// starPayloads holds keys rows per dimension and facts distinct FACT rows
// whose keys are Zipf-drawn, so a few keys are hot, as payloads of at most
// 1,000 ops. Key k of dimension d is named by d's letter and k.
func starPayloads(t testing.TB, sch *indep.Schema, keys, facts int) [][]byte {
	t.Helper()
	key := func(d, k int) string { return fmt.Sprintf("%c%d", 'a'+d, k) }
	var ops []indep.BatchOp
	for d, attrs := range starDims {
		for k := 0; k < keys; k++ {
			row := map[string]string{attrs[0]: key(d, k)}
			for j, a := range attrs[1:] {
				row[a] = fmt.Sprintf("%c%d", a[0]+'a'-'A', (k*31+j*7+d)%61)
			}
			ops = append(ops, indep.BatchOp{Rel: fmt.Sprintf("DIM%d", d+1), Row: row})
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(keys-1))
	seen := make(map[[4]uint64]bool, facts)
	for len(seen) < facts {
		ids := [4]uint64{zipf.Uint64(), zipf.Uint64(), zipf.Uint64(), zipf.Uint64()}
		if seen[ids] {
			continue
		}
		seen[ids] = true
		ops = append(ops, indep.BatchOp{Rel: "FACT", Row: map[string]string{
			"A": key(0, int(ids[0])), "B": key(1, int(ids[1])), "C": key(2, int(ids[2])), "D": key(3, int(ids[3])),
		}})
	}
	var payloads [][]byte
	for len(ops) > 0 {
		n := min(len(ops), 1000)
		payloads = append(payloads, encodePayload(t, sch, ops[:n], nil))
		ops = ops[n:]
	}
	return payloads
}

// BenchmarkRouterWindow drives Router.Window with a binary result, as the
// daemon serves a routed window, on a two-shard in-process cluster holding
// the bench star state: 1,000 keys per dimension and 5,000 FACT rows. It
// covers a hot-key FACT window (every owner answers, and the disjoint
// answers merge), the first 100 rows of [A B] (the owners answer every row,
// and the overlapping answers merge), and a window over FACT and two DIM1
// dependents selected on a key (the router gathers FACT and DIM1 and
// evaluates it).
func BenchmarkRouterWindow(b *testing.B) {
	sch := starSchema(b)
	tc := newTestCluster(b, sch, 2, cluster.Options{}, nil)
	ctx := context.Background()
	for _, p := range starPayloads(b, sch, 1000, 5000) {
		if _, err := tc.rt.Batch(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		q    indep.WindowQuery
	}{
		{"hot-key", indep.WindowQuery{Attrs: []string{"A", "B", "C", "D"}, Where: map[string]string{"A": "a0"}}},
		{"AB-limit100", indep.WindowQuery{Attrs: []string{"A", "B"}, Limit: 100}},
		{"fact-dim", indep.WindowQuery{Attrs: []string{"A", "B", "C", "D", "E", "F"}, Where: map[string]string{"A": "a17"}}},
	} {
		c.q.BinaryResult = true
		b.Run(c.name, func(b *testing.B) {
			if _, err := tc.rt.Window(ctx, c.q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tc.rt.Window(ctx, c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
