package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"indep"
)

// streamHash hashes the first 1,000 operations of a workload's stream for
// client 0 (and, for the window workloads, its window pool and first picks).
func streamHash(workload string, seed uint64) string {
	h := sha256.New()
	n := 0
	emit := func(ops []op) {
		for _, o := range ops {
			if n < 1000 {
				fmt.Fprintln(h, o)
				n++
			}
		}
	}
	for seq := 0; n < 1000; seq++ {
		switch workload {
		case "ingest":
			emit(ingestBatch(seed, 0, seq))
		case "readonly":
			emit(preloadOps(seed))
		case "mixed":
			emit(mixedBatch(seed, seq))
		case "routed":
			emit(routedBatch(seed, 0, 2, seq))
		}
	}
	pool := windowPool()
	for _, list := range pool {
		for _, w := range list {
			fmt.Fprintln(h, w.class, w.query)
		}
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintln(h, pickWindow(pool, seed, 0, i).query)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamPinned keeps the benchmark's inputs from drifting silently: a
// change to the generator changes these hashes and has to say so.
func TestStreamPinned(t *testing.T) {
	want := map[string]string{
		"ingest":   "63c87c9c2adf8a75d6bc161e3e34b30d7a97b4306a832587781704040aea264f",
		"readonly": "3ef445eb3c2c094e4cc562ac62edb3845fd0a3efac2c748d862ace4aa723fc18",
		"mixed":    "06597323a5a8e60e85657111fdea940b1b243e4c87e4d7e07d7e46d7a6180b47",
		"routed":   "dd5ecbf9337dcbff847e5c92474efdbfa4f76708ba28826cfe4a34bb41ea2f8c",
	}
	for _, w := range workloads {
		if got := streamHash(w.name, 1); got != want[w.name] {
			t.Errorf("%s: stream hash %s, pinned %s", w.name, got, want[w.name])
		}
		if streamHash(w.name, 1) == streamHash(w.name, 2) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	pre := preloadOps(1)
	if len(pre) != preloadFact+4*preloadDim {
		t.Fatalf("preload has %d ops", len(pre))
	}
	seen := make(map[uint64]bool)
	for _, o := range pre {
		if o.rel == 0 {
			if seen[o.factKey()] {
				t.Fatalf("preload repeats FACT row %v", o)
			}
			seen[o.factKey()] = true
		}
	}
	b := ingestBatch(1, 1, 49)
	if len(b) != batchOps || !b[len(b)-1].bad || !ingestViolates(49) || ingestViolates(48) {
		t.Fatalf("ingest batch 49 should be %d ops ending in the violating row", batchOps)
	}
	// A violating row differs from the stored one in exactly one value.
	good := b[len(b)-1]
	good.bad = false
	diff := 0
	for a, v := range good.row() {
		if b[len(b)-1].row()[a] != v {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("violating row differs in %d values", diff)
	}
	// A mixed batch deletes exactly what the batch mixedLag earlier inserted.
	m := mixedBatch(1, mixedLag+3)
	for i, o := range mixedInserts(1, 3) {
		d := m[16+i]
		if !d.del || d.key != o.key {
			t.Fatalf("mixed batch delete %d is %v, want the deletion of %v", i, d, o)
		}
	}
	// Routed clients keep to their own residue class of D.
	for seq := 0; seq < 50; seq++ {
		for c := 0; c < 2; c++ {
			for _, o := range routedBatch(1, c, 2, seq) {
				if o.rel == 0 && int(o.key[3])%2 != c {
					t.Fatalf("client %d drew FACT row %v", c, o)
				}
			}
		}
	}
	// Every batch encodes and decodes to the same operations.
	sch := indep.MustParse(schemaSrc, fdSrc)
	payload, err := encodeBatch(indep.NewBinBatchEncoder(sch), m)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := sch.DecodeBinBatch(payload)
	if err != nil || len(ops) != len(m) {
		t.Fatalf("decoded %d ops of %d: %v", len(ops), len(m), err)
	}
	// One window in five is a join window.
	pool := windowPool()
	joins := 0
	for i := 0; i < 1000; i++ {
		if pickWindow(pool, 1, 0, i).class == classJoin {
			joins++
		}
	}
	if joins != 200 {
		t.Fatalf("%d join windows in 1000", joins)
	}
}

func TestQuantileSupport(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	if v, ok := l.q(0.5); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v, %v", v, ok)
	}
	// 100 samples: exactly ten lie beyond p90, one beyond p99.
	if v, ok := l.q(0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, supported %v", v, ok)
	}
	if _, ok := l.q(0.99); ok {
		t.Error("p99 of 100 samples must not be supported")
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v", c.n, c.q, got)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestOpenLoopAccounting: a stall is charged to every request it delayed.
func TestOpenLoopAccounting(t *testing.T) {
	s := schedule{start: time.Unix(100, 0), every: 20 * time.Millisecond}
	ms := func(n int) time.Time { return s.start.Add(time.Duration(n) * time.Millisecond) }
	// Request 0 is sent on time and takes 5 ms.
	if lat, late := s.account(0, ms(0), ms(5)); lat != 5*time.Millisecond || late != 0 {
		t.Errorf("request 0: latency %v lateness %v", lat, late)
	}
	// Request 1 (due at 20) stalls for 50 ms; request 2 (due at 40) could
	// only be sent at 70 and took 5 ms: its latency is 35 ms, not 5.
	if lat, late := s.account(1, ms(20), ms(70)); lat != 50*time.Millisecond || late != 0 {
		t.Errorf("request 1: latency %v lateness %v", lat, late)
	}
	if lat, late := s.account(2, ms(70), ms(75)); lat != 35*time.Millisecond || late != 30*time.Millisecond {
		t.Errorf("request 2: latency %v lateness %v", lat, late)
	}
	// A generator that wakes early is not credited.
	if _, late := s.account(3, ms(59), ms(61)); late != 0 {
		t.Errorf("early send counted as lateness %v", late)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in spec.go in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, spec.go %d/%d/%d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %s differs from BENCHMARK.json or its why is over 200 characters", w.name)
		}
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end-to-end metric %s differs from BENCHMARK.json: %+v", m.name, d)
		}
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer metric %s differs from BENCHMARK.json: %+v", m.name, d)
		}
	}
}

// TestPhaseRate: a stalled second does not drag a fast phase's figure down,
// and a slow phase reports its mean.
func TestPhaseRate(t *testing.T) {
	fast := phase{elapsed: 10 * time.Second}
	for s := 0; s < 10; s++ {
		n := 200
		if s == 4 {
			n = 20 // the host stalled
		}
		for i := 0; i < n; i++ {
			fast.add(time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond, time.Millisecond, 64, 0)
		}
	}
	if got := fast.perSecond(); got != 200*64 {
		t.Errorf("fast phase: %v per second, want %v", got, 200*64)
	}
	slow := phase{elapsed: 5 * time.Second}
	for i := 0; i < 50; i++ {
		slow.add(time.Duration(i)*100*time.Millisecond, time.Millisecond, 1, 0)
	}
	if got := slow.perSecond(); got != 10 {
		t.Errorf("slow phase: %v per second, want 10", got)
	}
}

// TestStolenSeconds: seconds the host stole are left out of a phase's
// figures while at least half of the phase is clean, and not otherwise.
func TestStolenSeconds(t *testing.T) {
	p := phase{elapsed: 6 * time.Second}
	for s := 0; s < 6; s++ {
		for i := 0; i < 10; i++ {
			d := time.Millisecond
			if s >= 4 {
				d = 9 * time.Millisecond // the host was elsewhere
			}
			p.add(time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond, d, 1, classJoin)
		}
	}
	p.dirty = []bool{false, false, false, false, true, true}
	if v, _ := p.latencies(classJoin).q(0.9); v != 1 {
		t.Errorf("p90 without the stolen seconds = %v ms, want 1", v)
	}
	if got := p.perSecond(); got != 10 {
		t.Errorf("rate without the stolen seconds = %v", got)
	}
	if n := p.latencies(classLocal).n(); n != 0 {
		t.Errorf("%d local samples in a phase of join windows", n)
	}
	p.dirty = []bool{true, true, true, true, false, false}
	if n := p.latencies(classJoin).n(); n != 60 {
		t.Errorf("a phase stolen for more than half its seconds must keep every sample, kept %d", n)
	}
	if usable([]bool{false, false}) || !usable([]bool{true, false}) {
		t.Error("usable: a clean mask filters nothing, a half-dirty one does")
	}
}
