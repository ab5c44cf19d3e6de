package indep

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nulRow is a row whose NUL-bearing name shifts its columns against the
// plain rows': by key ("a\x00\x00\x00") it comes before ("a", "b"), whose key
// is "a\x00b\x00", while column by column "a" < "a\x00" puts it after.
var nulRow = map[string]string{"P": "a\x00", "Q": ""}

// plainRows are NUL-free rows of R(P,Q), several sharing a prefix with
// nulRow's P.
var plainRows = []map[string]string{
	{"P": "a", "Q": "b"}, {"P": "a", "Q": ""}, {"P": "ab", "Q": "a"},
	{"P": "", "Q": "z"}, {"P": "a\x01", "Q": "c"}, {"P": "b", "Q": "a"},
}

// checkWindowOrder answers R(P,Q)'s window over db at every limit, in rows
// and in IWIN1, and fails unless both match referenceWindow, tied keys in
// column order.
func checkWindowOrder(t *testing.T, db *Database) {
	t.Helper()
	x := db.schema.s.U.Set("P", "Q")
	ev, err := db.schema.windowEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	full, err := ev.Window(db.st, x)
	if err != nil {
		t.Fatal(err)
	}
	for limit := 0; limit <= full.Rows.Len()+1; limit++ {
		q := WindowQuery{Attrs: []string{"P", "Q"}, Limit: limit}
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, total := referenceWindow(db.schema, db.st, full.Rows, x, q)
		keys := rowKeys(got.Rows, got.Attrs)
		if got.Total != total || !reflect.DeepEqual(keys, rowKeys(want, got.Attrs)) {
			t.Fatalf("limit %d (HasNUL %v):\ngot  %q\nwant %q", limit, db.st.Dict.HasNUL(), got.Rows, want)
		}
		for i := 1; i < len(keys); i++ {
			a, b := got.Rows[i-1], got.Rows[i]
			if keys[i-1] == keys[i] && !(a["P"] < b["P"] || a["P"] == b["P"] && a["Q"] < b["Q"]) {
				t.Fatalf("limit %d: tied rows %q before %q", limit, a, b)
			}
		}
		q.BinaryResult = true
		bin, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseWindowAnswer(bin.Bin); err != nil {
			t.Fatalf("limit %d: the router refuses the node's order: %v", limit, err)
		}
		dec, err := DecodeWindowBinary(bin.Bin)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec.Rows, got.Rows) {
			t.Fatalf("limit %d: binary rows %q, rows %q", limit, dec.Rows, got.Rows)
		}
	}
}

// TestWindowOrderSwitchesOnInsert answers windows over NUL-free names, then
// inserts a row binding a NUL-bearing name and answers again: the second
// answer must order by key, although the store already answered with plain
// comparisons.
func TestWindowOrderSwitchesOnInsert(t *testing.T) {
	cs, err := MustParse("R(P,Q)", "").OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range plainRows {
		if err := cs.Insert("R", row); err != nil {
			t.Fatal(err)
		}
	}
	db := cs.Snapshot()
	if db.st.Dict.HasNUL() {
		t.Fatal("HasNUL before any NUL name")
	}
	checkWindowOrder(t, db)
	if err := cs.Insert("R", nulRow); err != nil {
		t.Fatal(err)
	}
	db = cs.Snapshot()
	if !db.st.Dict.HasNUL() {
		t.Fatal("HasNUL false after binding a NUL name")
	}
	checkWindowOrder(t, db)
	if got, _ := db.Query(WindowQuery{Attrs: []string{"P", "Q"}, Limit: 3}); got.Rows[2]["P"] != "a\x00" {
		t.Fatalf("NUL row not ordered by key: %q", got.Rows)
	}
}

// TestWindowOrderSwitchesOnRestore binds the NUL-bearing name through
// Dict.Restore: a follower answers over NUL-free names, then replays a
// record binding the NUL name, and answers again; then the primary is
// reopened, so recovery restores the binding from its log.
func TestWindowOrderSwitchesOnRestore(t *testing.T) {
	sch := MustParse("R(P,Q)", "")
	dir := t.TempDir()
	ds, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range plainRows {
		if err := ds.Insert("R", row); err != nil {
			t.Fatal(err)
		}
	}
	f, err := sch.OpenFollower(t.TempDir(), ds, FollowerOptions{NoFsync: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitCaughtUp(t, f, ds)
	if f.Snapshot().st.Dict.HasNUL() {
		t.Fatal("follower HasNUL before any NUL name")
	}
	checkWindowOrder(t, f.Snapshot())

	if err := ds.Insert("R", nulRow); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f, ds)
	requireConverged(t, ds, f)
	if !f.Snapshot().st.Dict.HasNUL() {
		t.Fatal("follower HasNUL false after replaying a NUL name")
	}
	checkWindowOrder(t, f.Snapshot())

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := sch.OpenDurableStore(dir, DurableOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Snapshot().st.Dict.HasNUL() {
		t.Fatal("recovered store HasNUL false")
	}
	checkWindowOrder(t, re.Snapshot())
}

// TestWindowOrderNULWhileInterning races readers against a writer that
// inserts NUL-free rows and then nulRow, under -race in CI: every answer
// that holds the NUL name must be in key order, whichever comparison the
// reader chose.
func TestWindowOrderNULWhileInterning(t *testing.T) {
	cs, err := MustParse("R(P,Q)", "").OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	var sawNUL atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				res, err := cs.Query(WindowQuery{Attrs: []string{"P", "Q"}})
				if err != nil {
					t.Error(err)
					return
				}
				keys := rowKeys(res.Rows, res.Attrs)
				if !sort.StringsAreSorted(keys) {
					t.Errorf("answer of %d rows out of key order: %q", len(keys), res.Rows)
					return
				}
				for _, row := range res.Rows {
					if strings.Contains(row["P"], "\x00") {
						sawNUL.Add(1)
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p := string(rune('a' + i%3))
		if err := cs.Insert("R", map[string]string{"P": p, "Q": strings.Repeat("q", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Insert("R", nulRow); err != nil {
		t.Fatal(err)
	}
	for sawNUL.Load() == 0 && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	wg.Wait()
}

// FuzzWindowOrder inserts arbitrary byte names into R(P,Q) and checks every
// limit's answer, in rows and in IWIN1, against referenceWindow. Each name
// is length-prefixed: a byte n, then the next n%24 bytes, so names reach
// past the 8-byte prefix the order compares first. The seeds hold names
// that share that prefix and differ after it, names of exactly 8 bytes,
// bytes of 0x80 and above, and the empty name beside "\x00".
func FuzzWindowOrder(f *testing.F) {
	f.Add([]byte("\x01a\x02a\x00\x02a\x00\x00\x01b\x00\x02ab"))
	f.Add([]byte("\x01a\x01b\x02ab\x00\x01\x00\x03a\x01c"))
	seed := func(ns ...string) []byte {
		var b []byte
		for _, n := range ns {
			b = append(append(b, byte(len(n))), n...)
		}
		return b
	}
	f.Add(seed("abcdefghZ", "q", "abcdefghA", "q", "abcdefgh", "q", "abcdefghAA", "r", "abcdefgh\x00", "q"))
	f.Add(seed("p", "abcdefgh", "p", "abcdefgi", "p", "abcdefg", "p", "abcdefgh\xff", "p", "abcdefghij"))
	f.Add(seed("\x80", "x", "\xff\x01", "x", "a", "x", "\x7f", "\x80\x80\x80\x80\x80\x80\x80\x80\x80", "\x7f", "\x80\x80\x80\x80\x80\x80\x80\x80"))
	f.Add(seed("", "\x00", "\x00", "", "", "", "\x00", "\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x00", "\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var names []string
		for len(data) > 0 && len(names) < 64 {
			n := min(int(data[0])%24, len(data)-1)
			names = append(names, string(data[1:1+n]))
			data = data[1+n:]
		}
		db := MustParse("R(P,Q)", "").NewDatabase()
		for i := 0; i+1 < len(names); i += 2 {
			if err := db.Insert("R", map[string]string{"P": names[i], "Q": names[i+1]}); err != nil {
				t.Fatal(err)
			}
		}
		checkWindowOrder(t, db)
	})
}

// TestWindowOrderAllocsFlat pins ordering and encoding a window's answer —
// the bounded top-k and the map-free IWIN1 encoder — to the same allocation
// count at 100 and at 1,000 rows, with and without a Limit.
func TestWindowOrderAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race; CI pins them in a plain pass")
	}
	sch := MustParse("R(P,Q,S)", "")
	count := func(n, limit int) float64 {
		db := sch.NewDatabase()
		for i := 0; i < n; i++ {
			row := map[string]string{"P": string(rune('a' + i%7)), "Q": strings.Repeat("q", i%13), "S": strings.Repeat("s", i)}
			if err := db.Insert("R", row); err != nil {
				t.Fatal(err)
			}
		}
		ev, err := sch.windowEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.Window(db.st, sch.s.U.Set("P", "Q", "S"))
		if err != nil {
			t.Fatal(err)
		}
		q := WindowQuery{Attrs: []string{"P", "Q", "S"}, Limit: limit, BinaryResult: true}
		return testing.AllocsPerRun(50, func() {
			if _, err := finishWindow(sch, db.st, res, q, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, limit := range []int{0, 10} {
		if small, large := count(100, limit), count(1000, limit); small != large {
			t.Fatalf("limit %d: ordering and encoding allocate %v times at 100 rows, %v at 1,000", limit, small, large)
		}
	}
}
