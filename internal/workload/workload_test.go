package workload

import (
	"math/rand"
	"testing"

	"indep/internal/chase"
	"indep/internal/independence"
)

func TestSchemaShapesValidate(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, shape := range []Shape{ShapeRandom, ShapeChain, ShapeStar} {
		for i := 0; i < 50; i++ {
			s, fds := Schema(r, Config{
				Attrs: 6 + r.Intn(6), Schemes: 3, SchemeMax: 4,
				FDs: 3, LHSMax: 2, Embedded: true, Shape: shape,
			})
			if err := s.Validate(); err != nil {
				t.Fatalf("shape %d produced invalid schema: %v", shape, err)
			}
			for _, f := range fds {
				if !s.Embeds(f.Attrs()) {
					t.Fatalf("embedded config produced non-embedded FD %s in %s",
						f.Format(s.U), s)
				}
			}
		}
	}
}

func TestSchemaNonEmbeddedAllowed(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	s, fds := Schema(r, Config{Attrs: 8, Schemes: 3, SchemeMax: 3, FDs: 6, LHSMax: 2})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = fds // non-embedded FDs are fine; nothing to assert beyond validity
}

func TestLocalStateIsLocallySatisfying(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s, fds := Example1()
	st := LocalState(r, s, fds, 2, 3, 50)
	if st == nil {
		t.Fatal("generator gave up")
	}
	ok, _, err := chase.LocallySatisfies(st, fds, true, chase.DefaultCaps)
	if err != nil || !ok {
		t.Fatal("LocalState result not locally satisfying")
	}
}

func TestClassicVerdicts(t *testing.T) {
	s1, f1 := Example1()
	s2, f2 := Example2()
	s2b, f2b := Example2Broken()
	s3, f3 := Example3()
	su, fu := University()
	for _, v := range []struct {
		name        string
		independent bool
		res         func() (bool, error)
	}{
		{"example1", false, func() (bool, error) { r, e := independence.Decide(s1, f1); return r != nil && r.Independent, e }},
		{"example2", true, func() (bool, error) { r, e := independence.Decide(s2, f2); return r != nil && r.Independent, e }},
		{"example2broken", false, func() (bool, error) { r, e := independence.Decide(s2b, f2b); return r != nil && r.Independent, e }},
		{"example3", false, func() (bool, error) { r, e := independence.Decide(s3, f3); return r != nil && r.Independent, e }},
		{"university", true, func() (bool, error) { r, e := independence.Decide(su, fu); return r != nil && r.Independent, e }},
	} {
		got, err := v.res()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if got != v.independent {
			t.Errorf("%s: independent = %v, want %v", v.name, got, v.independent)
		}
	}
}

func TestExample1StateIsTheCanonicalWitness(t *testing.T) {
	st, fds := Example1State()
	ok, err := chase.IsIndependenceWitness(st, fds, chase.DefaultCaps)
	if err != nil || !ok {
		t.Fatalf("Example 1 state must witness non-independence (ok=%v err=%v)", ok, err)
	}
}
