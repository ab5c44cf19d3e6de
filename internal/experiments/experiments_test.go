package experiments

import (
	"maps"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The experiment runners are exercised at reduced scale; their detailed
// claims are asserted by the per-package test suites — here we check the
// harness runs and reports the expected qualitative outcomes.

func small() Params { return Params{Seed: 7, Scale: 20} }

func TestE1ReportsPaperOutcome(t *testing.T) {
	out := E1(small())
	for _, want := range []string{
		"locally satisfying: true",
		"globally satisfying: false",
		"independent: false",
		"witness verified by chase: true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestE2ReportsPaperOutcome(t *testing.T) {
	out := E2(small())
	if !strings.Contains(out, "independent = true") ||
		!strings.Contains(out, "independent = false, reason = not-cover-embedding") {
		t.Errorf("E2 output wrong:\n%s", out)
	}
}

func TestE3ReportsBothRejectionSites(t *testing.T) {
	out := E3(small())
	if !strings.Contains(out, "rejected at line 5") || !strings.Contains(out, "rejected at line 4") {
		t.Errorf("E3 must show both rejection sites:\n%s", out)
	}
	if !strings.Contains(out, "verified = true") {
		t.Errorf("E3 witness must verify:\n%s", out)
	}
}

func TestT1ReductionAgrees(t *testing.T) {
	out := T1(Params{Seed: 7, Scale: 4})
	if strings.Contains(out, "agree: false") {
		t.Errorf("T1 reduction disagreement:\n%s", out)
	}
}

func TestT3NoCounterexamplesOnAccepted(t *testing.T) {
	out := T3(small())
	if !strings.Contains(out, "counterexamples found: 0") {
		t.Errorf("T3 found counterexamples on accepted schemas:\n%s", out)
	}
}

func TestC1BoundHolds(t *testing.T) {
	out := C1(small())
	if !strings.Contains(out, "bound: 1.0") {
		t.Errorf("C1 malformed:\n%s", out)
	}
	// Extract the observed ratio sanity: must not exceed 1.0; the string
	// itself carries it, so just ensure no "exceeds" style failure by
	// checking the package test in infer already enforces the bound.
}

// TestRunAllSmoke runs every experiment at a scale small enough for T1 (at
// small()'s 20 it chases a 20-scheme reduction); Run("all") must equal the
// concatenation of Order's reports.
func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness is slow")
	}
	p := Params{Seed: 7, Scale: 4}
	out, err := Run("all", p)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, id := range Order {
		if !strings.Contains(out, "== "+id+":") {
			t.Errorf("Run(\"all\") missing %s", id)
		}
		want.WriteString(Registry[id](p) + "\n")
	}
	if g, w := mask(out), mask(want.String()); g != w {
		t.Errorf("Run(\"all\") differs from the Order concatenation:\n%s\nwant:\n%s", g, w)
	}
}

func TestOrderMatchesRegistry(t *testing.T) {
	ids := slices.Sorted(maps.Keys(Registry))
	order := slices.Sorted(slices.Values(Order))
	if !slices.Equal(ids, order) {
		t.Errorf("Registry ids %v, Order ids %v", ids, order)
	}
}

// mask hides the wall-clock figures the tables print (durations, and M1's
// per-insert ns and ratio columns) and the column padding that follows
// their width, leaving the deterministic text.
func mask(s string) string {
	s = timings.ReplaceAllString(s, "<d>")
	return spaces.ReplaceAllString(s, " ")
}

var (
	timings = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b|(?m)^ +[0-9]+ +[0-9]+ +[0-9]+ +[0-9]+x$`)
	spaces  = regexp.MustCompile(` +`)
)

func TestRun(t *testing.T) {
	p := small()
	e1t3 := E1(p) + "\n" + T3(p) + "\n"
	for _, tc := range []struct {
		ids, want string
		errHas    []string
	}{
		{ids: "E1,T3", want: e1t3},
		{ids: "e1, t3", want: e1t3},
		{ids: " E1 ,T3 ", want: e1t3},
		{ids: "E1,X9", errHas: []string{`"X9"`, strings.Join(Order, ",")}},
		{ids: "", errHas: []string{`""`}},
	} {
		got, err := Run(tc.ids, p)
		if tc.errHas != nil {
			if err == nil {
				t.Errorf("Run(%q) succeeded, want an error", tc.ids)
				continue
			}
			for _, want := range tc.errHas {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Run(%q) error %q does not name %s", tc.ids, err, want)
				}
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("Run(%q) = %q, %v; want %q", tc.ids, got, err, tc.want)
		}
	}
}
