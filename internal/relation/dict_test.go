package relation

import (
	"fmt"
	"sync"
	"testing"
)

func TestDictInternRoundTrip(t *testing.T) {
	d := &Dict{}
	v1 := d.Value("alice")
	v2 := d.Value("bob")
	if v1 == v2 {
		t.Fatal("distinct names share a value")
	}
	if d.Value("alice") != v1 {
		t.Fatal("re-interning changed the value")
	}
	if d.Name(v1) != "alice" || d.Name(v2) != "bob" {
		t.Fatalf("Name round-trip failed: %q, %q", d.Name(v1), d.Name(v2))
	}
	if _, ok := d.Lookup("carol"); ok {
		t.Fatal("Lookup invented a value")
	}
	if v, ok := d.Lookup("alice"); !ok || v != v1 {
		t.Fatal("Lookup disagrees with Value")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Name(Value(1<<40)) != fmt.Sprintf("%d", int64(1<<40)) {
		t.Fatal("unknown value must render as numeral")
	}
}

func TestDictConcurrent(t *testing.T) {
	d := &Dict{}
	const goroutines = 16
	const names = 200
	got := make([][]Value, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]Value, names)
			for i := 0; i < names; i++ {
				// Every goroutine interns the same name set concurrently.
				got[g][i] = d.Value(fmt.Sprintf("name-%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different value for name-%d", g, i)
			}
		}
	}
	if d.Len() != names {
		t.Fatalf("Len = %d, want %d", d.Len(), names)
	}
	seen := make(map[Value]bool, names)
	for i, v := range got[0] {
		if seen[v] {
			t.Fatalf("value %d assigned twice", v)
		}
		seen[v] = true
		if d.Name(v) != fmt.Sprintf("name-%d", i) {
			t.Fatalf("Name(%d) = %q", v, d.Name(v))
		}
	}
}

// TestDictReadersWhileInterning runs the lock-free readers (Name, Each,
// Marks, AppendNew) against a writer that keeps interning, under -race in
// CI: every value a reader sees keeps its name, and the bindings Each and
// AppendNew produce restore into a fresh dictionary.
func TestDictReadersWhileInterning(t *testing.T) {
	d := &Dict{}
	const names = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < names; i++ {
			d.Value(fmt.Sprintf("n%d", i))
		}
	}()
	var m Marks
	var taken []Binding
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		taken = d.AppendNew(&m, taken)
		d.Each(func(v Value, name string) {
			if got := d.Name(v); got != name {
				t.Fatalf("Name(%d) = %q while Each reports %q", v, got, name)
			}
		})
	}
	taken = d.AppendNew(&m, taken)
	if len(taken) != names || d.Marks() != m {
		t.Fatalf("AppendNew took %d bindings, marks %v; want %d, %v", len(taken), m.total, names, d.Marks().total)
	}
	re := &Dict{}
	for _, b := range taken {
		if err := re.Restore(b.Value, b.Name); err != nil {
			t.Fatal(err)
		}
	}
	d.Each(func(v Value, name string) {
		if re.Name(v) != name {
			t.Fatalf("restored Name(%d) = %q, want %q", v, re.Name(v), name)
		}
	})
	if got, want := re.Value("fresh"), d.Value("fresh"); got != want {
		t.Fatalf("restored dictionary allocates %d for a new name, original %d", got, want)
	}
}
