// Registrar: measure what independence buys at runtime. The same insert
// workload runs against (a) the O(|F_i|) guard that independence makes
// sound and (b) chase-based maintenance that any schema needs without it.
// The guard's per-insert cost stays flat while the chase grows with the
// state — the practical content of the paper's Section 1–2 discussion.
package main

import (
	"fmt"
	"log"
	"time"

	"indep"
)

func main() {
	schemaSrc := "CT(C,T); CS(C,S); CHR(C,H,R)"
	fdSrc := "C -> T; C H -> R"

	s := indep.MustParse(schemaSrc, fdSrc)
	a, err := s.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schema independent: %v — fast maintenance is sound\n\n", a.Independent)

	fmt.Printf("%10s %18s %18s\n", "inserts", "guard ns/insert", "chase ns/insert")
	for _, n := range []int{200, 800, 3200} {
		fast, err := s.OpenConcurrentStore()
		if err != nil {
			log.Fatal(err)
		}
		if !fast.FastPath() {
			log.Fatal("expected the guard")
		}
		guardNS := load(fast, n)

		// Force the chase path by analyzing a dependent variant with the
		// same relations: Example 1's triangle.
		dep := indep.MustParse("CD(C,D); CT(C,T); TD(T,D)", "C -> D; C -> T; T -> D")
		slow, err := dep.OpenConcurrentStore()
		if err != nil {
			log.Fatal(err)
		}
		if slow.FastPath() {
			log.Fatal("expected chase maintenance")
		}
		chaseNS := loadTriangle(slow, n)

		fmt.Printf("%10d %18d %18d\n", n, guardNS, chaseNS)
	}
	fmt.Println("\nexpected shape: guard flat, chase growing with state size.")
}

func load(st *indep.ConcurrentStore, n int) int64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		c := fmt.Sprintf("C%d", i)
		if err := st.Insert("CT", map[string]string{"C": c, "T": "T" + c}); err != nil {
			log.Fatal(err)
		}
		if err := st.Insert("CHR", map[string]string{"C": c, "H": "H1", "R": "R" + c}); err != nil {
			log.Fatal(err)
		}
	}
	return time.Since(start).Nanoseconds() / int64(2*n)
}

func loadTriangle(st *indep.ConcurrentStore, n int) int64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		c, t, d := fmt.Sprintf("C%d", i), fmt.Sprintf("T%d", i), fmt.Sprintf("D%d", i)
		if err := st.Insert("CD", map[string]string{"C": c, "D": d}); err != nil {
			log.Fatal(err)
		}
		if err := st.Insert("CT", map[string]string{"C": c, "T": t}); err != nil {
			log.Fatal(err)
		}
		if err := st.Insert("TD", map[string]string{"T": t, "D": d}); err != nil {
			log.Fatal(err)
		}
	}
	return time.Since(start).Nanoseconds() / int64(3*n)
}
