package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"indep"
)

func members(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{Name: fmt.Sprintf("shard%d", i+1), URL: fmt.Sprintf("http://shard%d:7070", i+1)}
	}
	return out
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("a=http://h1:1, b=http://h2:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{{Name: "a", URL: "http://h1:1"}, {Name: "b", URL: "http://h2:2"}}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("got %v, want %v", ms, want)
	}
	for _, bad := range []string{"", "a=", "=http://h", "noequals", "a=http://h,a=http://h2"} {
		if _, err := ParseMembers(bad); err == nil {
			t.Errorf("ParseMembers(%q) accepted", bad)
		}
	}
}

// TestRingDeterministic pins that two routers over the same membership
// compute identical ownership for every hash — the property that lets
// several stateless routers front the same shards.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(members(5), 64)
	b := NewRing(members(5), 64)
	for h := uint64(0); h < 10_000; h++ {
		x := h * 0x9e3779b97f4a7c15
		if a.Owner(x) != b.Owner(x) {
			t.Fatalf("rings disagree at %#x: %s vs %s", x, a.Owner(x), b.Owner(x))
		}
	}
}

// TestRingDistribution checks the consistent-hash ring spreads hashes
// roughly evenly: with 64 vnodes per member no shard should own more than
// about twice its fair share.
func TestRingDistribution(t *testing.T) {
	ring := NewRing(members(4), 64)
	counts := map[string]int{}
	const n = 40_000
	for h := uint64(0); h < n; h++ {
		counts[ring.Owner(h*0x9e3779b97f4a7c15+0x632be59bd9b4e019)]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d shards own anything: %v", len(counts), counts)
	}
	for shard, c := range counts {
		if c < n/4/2 || c > n/4*2 {
			t.Errorf("shard %s owns %d of %d (fair share %d)", shard, c, n, n/4)
		}
	}
}

func analyze(t *testing.T, schemaSrc, fdSrc string) (*indep.Schema, *indep.Analysis) {
	t.Helper()
	sch, err := indep.Parse(schemaSrc, fdSrc)
	if err != nil {
		t.Fatal(err)
	}
	an, err := sch.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return sch, an
}

// TestPlacementPartitionKeys pins the partition rule on the paper's
// running example: key = intersection of the cover FDs' left-hand sides,
// full scheme when the relation has no FDs.
func TestPlacementPartitionKeys(t *testing.T) {
	sch, an := analyze(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	if !an.Independent {
		t.Fatalf("running example not independent: %s", an.Reason)
	}
	p := PlanPlacement(sch, an, members(3), 6, 64)
	wantKeys := map[string][]string{
		"CT":  {"C"},
		"CS":  {"C", "S"},
		"CHR": {"C", "H"},
	}
	for rel, want := range wantKeys {
		if got := p.PartitionKey(rel); !reflect.DeepEqual(got, want) {
			t.Errorf("%s partition key = %v, want %v", rel, got, want)
		}
		if n := len(p.Owners(rel)); n < 2 {
			t.Errorf("%s spread over %d shards, want several (6 parts, 3 shards)", rel, n)
		}
	}
	if p.Parts() != 6 {
		t.Errorf("Parts() = %d, want 6", p.Parts())
	}
}

// TestPlacementOwnerColocatesConflicts pins partition-key soundness: two
// rows that agree on the key land on the same shard, regardless of their
// other attributes, so guard conflicts never span shards.
func TestPlacementOwnerColocatesConflicts(t *testing.T) {
	sch, an := analyze(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	p := PlanPlacement(sch, an, members(4), 8, 64)
	for i := 0; i < 200; i++ {
		c := fmt.Sprintf("c%d", i)
		a, err := p.Owner("CT", map[string]string{"C": c, "T": "t1"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Owner("CT", map[string]string{"C": c, "T": "a-different-t"})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("C=%s: conflicting rows placed on %s and %s", c, a, b)
		}
	}
	if _, err := p.Owner("CT", map[string]string{"T": "t"}); err == nil {
		t.Error("Owner accepted a row missing its partition-key attribute")
	}
	if _, err := p.Owner("nope", map[string]string{"C": "c"}); err == nil {
		t.Error("Owner accepted an unknown relation")
	}
}

// TestPlacementFallback pins that a non-independent schema places every
// relation whole on one designated shard.
func TestPlacementFallback(t *testing.T) {
	// A -> B is not embedded in any scheme that contains both: classic
	// non-independent design.
	sch, an := analyze(t, "R(A,B); S(B,C)", "C -> A")
	if an.Independent {
		t.Fatal("expected a non-independent schema")
	}
	p := PlanPlacement(sch, an, members(3), 6, 64)
	var pinned string
	for _, rel := range sch.Relations() {
		owners := p.Owners(rel)
		if len(owners) != 1 {
			t.Fatalf("%s spread over %v in fallback mode", rel, owners)
		}
		if pinned == "" {
			pinned = owners[0]
		} else if owners[0] != pinned {
			t.Fatalf("fallback split relations across %s and %s", pinned, owners[0])
		}
		if p.PartitionKey(rel) != nil {
			t.Errorf("%s has a partition key in fallback mode", rel)
		}
	}
}

// TestPlacementDeterministic pins that placement is a pure function of
// (schema, membership, parts): routers never have to gossip.
func TestPlacementDeterministic(t *testing.T) {
	sch, an := analyze(t, "CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R")
	a := PlanPlacement(sch, an, members(3), 6, 64)
	b := PlanPlacement(sch, an, members(3), 6, 64)
	for _, rel := range sch.Relations() {
		if !reflect.DeepEqual(a.Owners(rel), b.Owners(rel)) {
			t.Fatalf("%s owners differ: %v vs %v", rel, a.Owners(rel), b.Owners(rel))
		}
		for i := 0; i < 100; i++ {
			row := map[string]string{"C": fmt.Sprint(i), "T": "t", "S": "s", "H": "h", "R": "r"}
			oa, _ := a.Owner(rel, row)
			ob, _ := b.Owner(rel, row)
			if oa != ob {
				t.Fatalf("%s row %d: %s vs %s", rel, i, oa, ob)
			}
		}
	}
}

func TestShardErrorFormat(t *testing.T) {
	unreachable := &ShardError{Shard: "s1", Err: fmt.Errorf("dial refused")}
	if !strings.Contains(unreachable.Error(), "unreachable") {
		t.Errorf("status-0 error should read as unreachable: %s", unreachable)
	}
	answered := &ShardError{Shard: "s1", Status: 500, Err: fmt.Errorf("boom")}
	if !strings.Contains(answered.Error(), "500") {
		t.Errorf("status error should carry the code: %s", answered)
	}
}

// TestPlacementRouteMatchesOwner pins that route, which reads a row's key
// names positionally off a payload, places every row where Owner places
// the same row given by attribute name: on the bench-shaped schema, on the
// running example, on a key that is not a tuple's first value, and on a
// non-independent schema, over 1, 2 and 4 shards, with names that are
// empty, longer than a hash block, or hold NUL bytes.
func TestPlacementRouteMatchesOwner(t *testing.T) {
	schemas := [][2]string{
		{"FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)",
			"A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y"},
		{"CT(C,T); CS(C,S); CHR(C,H,R)", "C -> T; C H -> R"},
		{"AB(A,B); BC(B,C)", "B -> A; C -> B"},
		{"R(A,B); S(B,C)", "C -> A"},
	}
	rng := rand.New(rand.NewSource(40))
	pick := []func() string{
		func() string { return "" },
		func() string { return fmt.Sprintf("a-name-longer-than-eight-bytes-%d", rng.Intn(50)) },
		func() string { return fmt.Sprintf("n\x00%d\x00", rng.Intn(50)) },
		func() string { return fmt.Sprintf("v%d", rng.Intn(1000)) },
	}
	for _, src := range schemas {
		sch, an := analyze(t, src[0], src[1])
		for _, shards := range []int{1, 2, 4} {
			p := PlanPlacement(sch, an, members(shards), 2*shards, 64)
			for rel, name := range sch.Relations() {
				attrs, err := sch.RelationAttrs(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 200; i++ {
					names := make([][]byte, len(attrs))
					row := make(map[string]string, len(attrs))
					for j, a := range attrs {
						v := pick[rng.Intn(len(pick))]()
						names[j], row[a] = []byte(v), v
					}
					want, err := p.Owner(name, row)
					if err != nil {
						t.Fatal(err)
					}
					if got := p.shards[p.route(rel, func(j int) []byte { return names[j] })]; got != want {
						t.Fatalf("%s on %d shards, row %q: route places it on %s, Owner on %s", name, shards, row, got, want)
					}
				}
			}
		}
	}
}
