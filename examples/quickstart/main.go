// Quickstart: decide independence for the paper's Example 2 schema, then
// open a maintained store and watch the per-relation FD guard reject
// inconsistent inserts in O(|F_i|) — the paper's motivating payoff.
package main

import (
	"fmt"
	"log"

	"indep"
)

func main() {
	// Course-Teacher, Course-Student, Course-Hour-Room: the paper's
	// academic schema with "every course has one teacher" and "a course
	// meets in one room at a given hour".
	s, err := indep.Parse(
		"CT(C,T); CS(C,S); CHR(C,H,R)",
		"C -> T; C H -> R",
	)
	if err != nil {
		log.Fatal(err)
	}

	analysis, err := s.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(analysis.Summary())

	store, err := s.OpenConcurrentStore()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmaintained store fast path: %v\n", store.FastPath())

	inserts := []struct {
		rel string
		row map[string]string
	}{
		{"CT", map[string]string{"C": "CS101", "T": "Smith"}},
		{"CS", map[string]string{"C": "CS101", "S": "Alice"}},
		{"CHR", map[string]string{"C": "CS101", "H": "Mon10", "R": "313"}},
		{"CT", map[string]string{"C": "CS101", "T": "Turing"}},             // violates C->T
		{"CHR", map[string]string{"C": "CS101", "H": "Mon10", "R": "414"}}, // violates CH->R
		{"CT", map[string]string{"C": "CS102", "T": "Turing"}},
	}
	for _, in := range inserts {
		err := store.Insert(in.rel, in.row)
		switch {
		case err == nil:
			fmt.Printf("insert %-4s %v: ok\n", in.rel, in.row)
		case indep.Rejected(err):
			fmt.Printf("insert %-4s %v: REJECTED (%v)\n", in.rel, in.row, err)
		default:
			log.Fatal(err)
		}
	}
	fmt.Printf("\nfinal state (%d rows):\n%s", store.Rows(), store)
}
